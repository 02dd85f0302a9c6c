#include "src/config/stage_segments.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace aceso {
namespace {

// The layout entering stage op `i`: set by the nearest earlier op of the
// stage that is not a shard follower (its output layout does not depend on
// what flows into it); activations enter a stage replicated.
ActivationLayout LayoutEntering(const OpGraph& graph,
                                const OpGraph::PeriodTable& table,
                                const StageConfig& stage, int i) {
  const int source =
      table.layout_source[static_cast<size_t>(stage.first_op + i)];
  if (source < stage.first_op) {
    return ActivationLayout{};
  }
  return AdvanceLayout(
      graph.op(source),
      stage.ops[static_cast<size_t>(source - stage.first_op)],
      ActivationLayout{});
}

// Whether op `i` enters with a dp-reshard (its dp differs from the
// previous op's; the stage's first op never reshards).
bool ReshardsEntering(const StageConfig& stage, int i) {
  return i > 0 && stage.ops[static_cast<size_t>(i - 1)].dp !=
                      stage.ops[static_cast<size_t>(i)].dp;
}

// Settings equality as three word compares per side: every byte of an
// OpParallel but its trailing padding. The sweep's inner test.
static_assert(offsetof(OpParallel, tp) == 0 && offsetof(OpParallel, dp) == 4 &&
              offsetof(OpParallel, tp_dim) == 8 && sizeof(TpDim) == 4 &&
              offsetof(OpParallel, recompute) == 12 &&
              offsetof(OpParallel, zero_opt) == 13);
bool SameSettings(const OpParallel& a, const OpParallel& b) {
  const char* pa = reinterpret_cast<const char*>(&a);
  const char* pb = reinterpret_cast<const char*>(&b);
  uint64_t a0, b0;
  uint32_t a1, b1;
  uint16_t a2, b2;
  std::memcpy(&a0, pa, 8);
  std::memcpy(&b0, pb, 8);
  std::memcpy(&a1, pa + 8, 4);
  std::memcpy(&b1, pb + 8, 4);
  std::memcpy(&a2, pa + 12, 2);
  std::memcpy(&b2, pb + 12, 2);
  return ((a0 ^ b0) | (a1 ^ b1) | static_cast<uint32_t>(a2 ^ b2)) == 0;
}

}  // namespace

bool MayHoldRuns(const OpGraph& graph, const StageConfig& stage) {
  const int n = stage.num_ops;
  if (stage.first_op < 0 || stage.end_op() > graph.num_ops() ||
      static_cast<int>(stage.ops.size()) != n) {
    return false;
  }
  const int period = graph.period_table().period;
  return period > 0 && n >= 2 * period;
}

int SegmentStage(const OpGraph& graph, const StageConfig& stage,
                 StageRun* runs, int capacity) {
  const int n = stage.num_ops;
  if (!MayHoldRuns(graph, stage)) {
    runs[0] = StageRun{0, n, 1};
    return 1;
  }
  const OpGraph::PeriodTable& table = graph.period_table();
  const int period = table.period;
  const unsigned char* repeats =
      table.repeats.data() + static_cast<size_t>(stage.first_op);
  const OpParallel* settings = stage.ops.data();
  int count = 0;
  int emitted = 0;  // ops [0, emitted) are covered
  // A run and the plain stretch before it take two blocks, and the stage's
  // tail needs one more.
  for (int first = period; first < n && count + 3 <= capacity;) {
    // The stretch [first, last) of ops that repeat the op one period
    // earlier in operator and settings.
    int last = first;
    while (last < n && (repeats[last] != 0) &
                           SameSettings(settings[last], settings[last - period])) {
      ++last;
    }
    // A run needs `period` of them whose walk state matches too; from the
    // first such op on, the rest of the stretch follows by induction.
    int begin = first;
    while (begin + period <= last &&
           !(ReshardsEntering(stage, begin) ==
                 ReshardsEntering(stage, begin - period) &&
             LayoutEntering(graph, table, stage, begin) ==
                 LayoutEntering(graph, table, stage, begin - period))) {
      ++begin;
    }
    first = last + 1;  // op `last` (if any) does not repeat
    if (begin + period > last) {
      continue;
    }
    const int start = std::max(begin - period, emitted);
    const int reps = (last - start) / period;
    if (reps < 2) {
      continue;
    }
    if (start > emitted) {
      runs[count++] = StageRun{emitted, start - emitted, 1};
    }
    runs[count++] = StageRun{start, period, reps};
    emitted = start + reps * period;
  }
  if (emitted < n) {
    runs[count++] = StageRun{emitted, n - emitted, 1};
  }
  return count;
}

}  // namespace aceso
