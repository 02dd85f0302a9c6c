#include "tools/tool_common.h"

#include <utility>

#include "src/ir/models/model_zoo.h"

namespace aceso {
namespace tools {

StatusOr<ModelAndCluster> LoadModelAndCluster(const std::string& model,
                                              int gpus) {
  StatusOr<OpGraph> graph = models::BuildByName(model);
  if (!graph.ok()) {
    std::string message = graph.status().message() + "; known models:";
    for (const std::string& name : models::ZooNames()) {
      message += ' ';
      message += name;
    }
    return Status(graph.status().code(), std::move(message));
  }
  ACESO_RETURN_IF_ERROR(ClusterSpec::CheckGpuCount(gpus));
  ModelAndCluster out{std::move(graph).value(),
                      ClusterSpec::WithGpuCount(gpus)};
  return out;
}

const char* ZooUsageLines() {
  return
      "models: gpt3-{0.35,1.3,2.6,6.7,13}b  t5-{0.77,3,6,11,22}b\n"
      "        wresnet-{0.5,2,4,6.8,13}b  deepnet-<layers>\n";
}

}  // namespace tools
}  // namespace aceso
