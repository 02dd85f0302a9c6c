// Persistence for parallel configurations: the search's output can be saved
// to disk and reloaded by the runtime/tools (the paper's workflow runs
// search and training as separate steps).

#ifndef SRC_CONFIG_CONFIG_IO_H_
#define SRC_CONFIG_CONFIG_IO_H_

#include <string>
#include <string_view>

#include "src/common/status.h"
#include "src/config/parallel_config.h"

namespace aceso {

// Serializes `config` to the text-record format (DESIGN.md §19). The model
// name is embedded so loads can be checked against the intended graph.
std::string SerializeConfig(const ParallelConfig& config,
                            const std::string& model_name);

// Parses a serialized configuration in one pass; validates structure
// against `graph` and rejects configs saved for a different model name.
// Every integer must lie in [0, INT_MAX], a stage may hold no more ops than
// the model has, and each op run's count must be at least 1 and at most the
// ops its stage still has unfilled (checked before the run is added).
StatusOr<ParallelConfig> ParseConfig(std::string_view text,
                                     const OpGraph& graph);

// Whole-file helpers.
Status SaveConfigToFile(const std::string& path, const ParallelConfig& config,
                        const std::string& model_name);
StatusOr<ParallelConfig> LoadConfigFromFile(const std::string& path,
                                            const OpGraph& graph);

}  // namespace aceso

#endif  // SRC_CONFIG_CONFIG_IO_H_
