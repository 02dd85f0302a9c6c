#include "src/hw/cluster.h"

#include <sstream>
#include <string>

#include "src/common/hash.h"
#include "src/common/logging.h"

namespace aceso {

bool ClusterSpec::GroupCrossesNodes(int first, int size, int stride) const {
  if (size <= 1) {
    return false;
  }
  const int last = first + (size - 1) * stride;
  return NodeOf(first) != NodeOf(last);
}

ClusterSpec ClusterSpec::SingleGpu() {
  ClusterSpec cluster;
  cluster.num_nodes = 1;
  cluster.gpus_per_node = 1;
  return cluster;
}

ClusterSpec ClusterSpec::PaperCluster() {
  return ClusterSpec();  // defaults model the paper's 4x8 V100 testbed
}

Status ClusterSpec::CheckGpuCount(int gpus) {
  if (gpus < 1) {
    return InvalidArgument("GPU count must be >= 1, got " +
                           std::to_string(gpus));
  }
  if (gpus > 8 && gpus % 8 != 0) {
    return InvalidArgument(
        "GPU count " + std::to_string(gpus) +
        " is not 1-8 or a multiple of 8 (multi-node clusters must be 8 "
        "GPUs/node)");
  }
  return OkStatus();
}

ClusterSpec ClusterSpec::WithGpuCount(int gpus) {
  const Status valid = CheckGpuCount(gpus);
  ACESO_CHECK(valid.ok()) << valid.message();
  ClusterSpec cluster;
  if (gpus <= 8) {
    cluster.num_nodes = 1;
    cluster.gpus_per_node = gpus;
  } else {
    cluster.num_nodes = gpus / 8;
    cluster.gpus_per_node = 8;
  }
  return cluster;
}

uint64_t ClusterSpec::Fingerprint() const {
  Hasher h;
  h.Add(gpu.Fingerprint());
  h.Add(num_nodes);
  h.Add(gpus_per_node);
  h.Add(nvlink_bandwidth);
  h.Add(nvlink_latency);
  h.Add(ib_bandwidth);
  h.Add(ib_latency);
  return h.Digest();
}

std::string ClusterSpec::ToString() const {
  std::ostringstream oss;
  oss << num_nodes << "x" << gpus_per_node << " " << gpu.name;
  return oss.str();
}

}  // namespace aceso
