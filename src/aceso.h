// Umbrella header: the Aceso public API.
//
// Aceso is an auto-configuration search system for parallel DNN training
// (data / tensor / pipeline parallelism + recomputation), reproducing
// "Aceso: Efficient Parallel DNN Training through Iterative Bottleneck
// Alleviation" (EuroSys 2024).
//
// Typical flow:
//   OpGraph model = models::Gpt3(1.3);
//   ClusterSpec cluster = ClusterSpec::WithGpuCount(4);
//   ProfileDatabase db(cluster);
//   PerformanceModel perf(&model, cluster, &db);
//   SearchResult result = AcesoSearch(perf, SearchOptions{});
//   result.best.config / result.best.perf

#ifndef SRC_ACESO_H_
#define SRC_ACESO_H_

#include "src/baselines/alpa_like.h"
#include "src/baselines/baseline_result.h"
#include "src/baselines/dp_solver.h"
#include "src/baselines/megatron.h"
#include "src/common/json.h"
#include "src/common/logging.h"
#include "src/common/status.h"
#include "src/common/stopwatch.h"
#include "src/common/table_printer.h"
#include "src/common/units.h"
#include "src/config/config_io.h"
#include "src/config/parallel_config.h"
#include "src/core/apply.h"
#include "src/core/bottleneck.h"
#include "src/core/dp_seeder.h"
#include "src/core/seed_adapt.h"
#include "src/core/finetune.h"
#include "src/core/primitives.h"
#include "src/core/search.h"
#include "src/cost/perf_model.h"
#include "src/cost/resource_usage.h"
#include "src/cost/stage_cache.h"
#include "src/hw/cluster.h"
#include "src/hw/gpu_spec.h"
#include "src/hw/interconnect.h"
#include "src/ir/model_builder.h"
#include "src/ir/models/model_zoo.h"
#include "src/ir/op_graph.h"
#include "src/ir/operator.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/telemetry.h"
#include "src/plan/execution_plan.h"
#include "src/plan/schedule.h"
#include "src/profile/profile_db.h"
#include "src/runtime/allocator_sim.h"
#include "src/runtime/event_sim.h"
#include "src/runtime/pipeline_executor.h"
#include "src/runtime/trace.h"
#include "src/serve/daemon.h"
#include "src/serve/http.h"
#include "src/serve/plan_cache.h"
#include "src/serve/plan_protocol.h"
#include "src/serve/service.h"

#endif  // SRC_ACESO_H_
