#include "src/core/apply.h"

#include <algorithm>
#include <charconv>
#include <numeric>
#include <string_view>

#include "src/common/logging.h"
#include "src/common/units.h"
#include "src/config/stage_segments.h"

namespace aceso {
namespace {

// Uniform tp the stage was configured with: per-op clamping only lowers tp,
// so the stage-level setting is the max across ops.
int StageModalTp(const StageConfig& stage) {
  int tp = 1;
  for (const OpParallel& setting : stage.ops) {
    tp = std::max(tp, setting.tp);
  }
  return tp;
}

// Approximate stored activation bytes of one op per microbatch per device;
// ranking key for the greedy recompute chooser (§4.1: "operators with the
// largest activation size").
int64_t ApproxStoredBytes(const Operator& op, const OpParallel& setting,
                          int mbs) {
  int shards = 1;
  if (op.tp_class == TpClass::kPartitioned &&
      setting.tp_dim == TpDim::kColumn) {
    shards = setting.tp;
  } else if (op.tp_class == TpClass::kShardFollower) {
    shards = EffectiveShards(op, setting.tp);
  }
  return DivideBytes(op.out_bytes * DivideBytes(mbs, setting.dp), shards);
}

// Re-derives one op's settings for a destination stage with uniform target
// tp, preserving the recompute flag.
OpParallel RederiveSettings(const Operator& op, const OpParallel& old_setting,
                            int stage_devices, int target_tp) {
  OpParallel setting;
  setting.tp = ClampOpTp(op, std::min(target_tp, stage_devices));
  setting.dp = stage_devices / setting.tp;
  setting.tp_dim =
      op.default_tp_dim == TpDim::kNone ? TpDim::kColumn : op.default_tp_dim;
  setting.recompute = old_setting.recompute;
  return setting;
}

// Re-derives every op in `stage` for a new device count / uniform tp target,
// preserving recompute flags.
void RederiveStage(const OpGraph& graph, StageConfig& stage, int target_tp) {
  for (int i = 0; i < stage.num_ops; ++i) {
    const Operator& op = graph.op(stage.first_op + i);
    OpParallel& setting = stage.ops[static_cast<size_t>(i)];
    setting = RederiveSettings(op, setting, stage.num_devices, target_tp);
  }
}

// One op of a stage's segmentation and its repetitions: ops index +
// r * stride for r < count share every input of the fix-up's rankings
// (operator, settings), so one of them is scanned and profiled for all.
struct OpGroup {
  int index = 0;
  int count = 1;
  int stride = 0;
  int64_t bytes = 0;  // per member: stored (add pass), added back (release)
  double cost = 0.0;  // per member: recompute time (release pass)
};

using GroupIt = std::vector<OpGroup>::const_iterator;

// Calls visit(index, group) for the members of groups [first, last), which
// are sorted by descending index, by descending index until it returns
// false. Groups of one run (equal count and stride, indices within one
// stride) interleave regularly, repetition by repetition; others are merged
// by a sort.
template <typename Visit>
void ForEachMemberByIndexDesc(GroupIt first, GroupIt last, Visit visit) {
  const bool one_run = std::all_of(first, last, [&](const OpGroup& g) {
    return g.count == first->count && g.stride == first->stride &&
           first->index - g.index < std::max(g.stride, 1);
  });
  if (one_run) {
    for (int r = first->count - 1; r >= 0; --r) {
      for (auto it = first; it != last; ++it) {
        if (!visit(it->index + r * it->stride, *it)) {
          return;
        }
      }
    }
    return;
  }
  std::vector<std::pair<int, const OpGroup*>> members;
  for (auto it = first; it != last; ++it) {
    for (int r = 0; r < it->count; ++r) {
      members.emplace_back(it->index + r * it->stride, &*it);
    }
  }
  std::sort(members.begin(), members.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (const auto& [index, group] : members) {
    if (!visit(index, *group)) {
      return;
    }
  }
}

// Calls flip(index) for the `k` highest-index members of groups [first,
// last).
template <typename Flip>
void FlipTopMembers(GroupIt first, GroupIt last, int64_t k, Flip flip) {
  ForEachMemberByIndexDesc(first, last, [&](int index, const OpGroup&) {
    if (k-- <= 0) {
      return false;
    }
    flip(index);
    return true;
  });
}

// Visits `groups` in the order the greedy passes visit ops, descending
// (key, index), one level of equal keys at a time: calls level(first,
// last) for each level until it returns false. Members of a level all rank
// alike, so a pass decides a level by counting; only groups tied on the
// key interleave by index.
template <typename Key, typename Level>
void ForEachLevel(std::vector<OpGroup>& groups, Key key, Level level) {
  std::sort(groups.begin(), groups.end(),
            [&](const OpGroup& a, const OpGroup& b) {
              return std::pair(key(a), a.index) > std::pair(key(b), b.index);
            });
  for (GroupIt first = groups.cbegin(); first != groups.cend();) {
    auto last = first + 1;
    while (last != groups.cend() && key(*last) == key(*first)) {
      ++last;
    }
    if (!level(first, last)) {
      return;
    }
    first = last;
  }
}

}  // namespace

double EstimateOpTime(const PerformanceModel& model, int op_index,
                      const OpParallel& setting, int microbatch_size) {
  const OpGraph& graph = model.graph();
  const Operator& op = graph.op(op_index);
  const int local_batch = std::max(1, microbatch_size / setting.dp);
  const OpMeasurement m = model.db().OpTime(
      op, graph.op_signatures()[static_cast<size_t>(op_index)],
      graph.precision(), EffectiveShards(op, setting.tp), local_batch);
  double t = m.fwd_seconds + m.bwd_seconds;
  if (setting.recompute) {
    t += m.fwd_seconds;
  }
  return t;
}

void FixRecompute(const PerformanceModel& model, ParallelConfig& config,
                  int stage_index, int64_t limit) {
  if (stage_index < 0 || stage_index >= config.num_stages()) {
    return;
  }
  // The fix reads one number, this stage's Eq. 1 memory, from an
  // integer-only pass: no stage-cost walk, no cache probe (DESIGN.md §18).
  const int64_t memory = model.StageMemory(config, stage_index);
  const StageConfig& stage = config.stage(stage_index);
  const int64_t in_flight =
      std::max(1, config.num_stages() - stage_index);
  const int mbs = config.microbatch_size();
  // The stage is cloned for writing only once a flag actually flips, so a
  // no-op fix keeps the block (and its hash caches) shared.
  StageConfig* mutable_stage = nullptr;
  auto set_recompute = [&](int i, bool recompute) {
    if (mutable_stage == nullptr) {
      mutable_stage = &config.MutableStage(stage_index);
    }
    mutable_stage->ops[static_cast<size_t>(i)].recompute = recompute;
  };

  // Both passes rank one group per op of the stage's segmentation (the
  // ops that repeat it rank alike) and decide each level of equal rank by
  // count (DESIGN.md §18).
  const OpGraph& graph = model.graph();
  std::vector<OpGroup> groups;
  if (memory > limit) {
    // Enable recompute on the fattest activations until the stage fits:
    // ops by (stored bytes, index) descending, until `need <= 0`.
    for (const StageRun& run : config.StageRuns(
             graph, stage_index, model.run_compression_enabled())) {
      for (int i = run.start; i < run.start + run.period; ++i) {
        const OpParallel& setting = stage.ops[static_cast<size_t>(i)];
        if (!setting.recompute) {
          const int64_t stored =
              ApproxStoredBytes(graph.op(stage.first_op + i), setting, mbs);
          if (stored > 0) {
            groups.push_back(OpGroup{i, run.reps, run.period, stored});
          }
        }
      }
    }
    int64_t need = memory - limit;
    ForEachLevel(
        groups, [](const OpGroup& g) { return g.bytes; },
        [&](GroupIt first, GroupIt last) {
          const int64_t unit = first->bytes * in_flight;
          int64_t members = 0;
          for (auto it = first; it != last; ++it) {
            members += it->count;
          }
          const int64_t k = std::min(members, (need + unit - 1) / unit);
          FlipTopMembers(first, last, k,
                         [&](int i) { set_recompute(i, true); });
          need -= k * unit;
          return need > 0;
        });
  } else {
    // Release recompute where memory allows, cheapest savings first --
    // i.e. drop the recomputations with the highest time cost per byte:
    // ops by (recompute time, index) descending, each released while its
    // added bytes fit. The slack only shrinks, so an op whose release
    // needs more than the initial slack can never be released: it is
    // skipped before its profile lookup.
    int64_t slack = limit - memory;
    for (const StageRun& run : config.StageRuns(
             graph, stage_index, model.run_compression_enabled())) {
      for (int i = run.start; i < run.start + run.period; ++i) {
        const OpParallel& setting = stage.ops[static_cast<size_t>(i)];
        if (!setting.recompute) {
          continue;
        }
        const int op_index = stage.first_op + i;
        const Operator& op = graph.op(op_index);
        const int64_t added = ApproxStoredBytes(op, setting, mbs) * in_flight;
        if (added > slack) {
          continue;
        }
        const OpMeasurement m = model.db().OpTime(
            op, graph.op_signatures()[static_cast<size_t>(op_index)],
            graph.precision(), EffectiveShards(op, setting.tp),
            std::max(1, mbs / setting.dp));
        groups.push_back(
            OpGroup{i, run.reps, run.period, added, m.fwd_seconds});
      }
    }
    ForEachLevel(
        groups, [](const OpGroup& g) { return g.cost; },
        [&](GroupIt first, GroupIt last) {
          if (last - first == 1) {
            // A lone group: its members add equal bytes back, so the
            // greedy releases its top members while they fit.
            const int64_t fit =
                first->bytes == 0
                    ? first->count
                    : std::min<int64_t>(first->count, slack / first->bytes);
            FlipTopMembers(first, last, fit,
                           [&](int i) { set_recompute(i, false); });
            slack -= fit * first->bytes;
            return true;
          }
          ForEachMemberByIndexDesc(first, last,
                                   [&](int i, const OpGroup& group) {
                                     if (group.bytes <= slack) {
                                       set_recompute(i, false);
                                       slack -= group.bytes;
                                     }
                                     return true;
                                   });
          return true;
        });
  }
}

bool MoveOps(const PerformanceModel& model, ParallelConfig& config, int from,
             int to, int count) {
  if (std::abs(from - to) != 1 || count < 1) {
    return false;
  }
  if (from < 0 || to < 0 || from >= config.num_stages() ||
      to >= config.num_stages()) {
    return false;
  }
  StageConfig& src = config.MutableStage(from);
  StageConfig& dst = config.MutableStage(to);
  if (count >= src.num_ops) {
    return false;  // never empty a stage
  }
  const OpGraph& graph = model.graph();
  const int dst_tp = StageModalTp(dst);

  if (to == from - 1) {
    // Move the first `count` ops of src to the back of dst.
    for (int i = 0; i < count; ++i) {
      const int op_index = src.first_op + i;
      dst.ops.push_back(RederiveSettings(graph.op(op_index),
                                         src.ops[static_cast<size_t>(i)],
                                         dst.num_devices, dst_tp));
    }
    src.ops.erase(src.ops.begin(), src.ops.begin() + count);
    src.first_op += count;
    src.num_ops -= count;
    dst.num_ops += count;
  } else {
    // Move the last `count` ops of src to the front of dst.
    std::vector<OpParallel> moved;
    moved.reserve(static_cast<size_t>(count));
    for (int i = src.num_ops - count; i < src.num_ops; ++i) {
      const int op_index = src.first_op + i;
      moved.push_back(RederiveSettings(graph.op(op_index),
                                       src.ops[static_cast<size_t>(i)],
                                       dst.num_devices, dst_tp));
    }
    src.ops.erase(src.ops.end() - count, src.ops.end());
    src.num_ops -= count;
    dst.ops.insert(dst.ops.begin(), moved.begin(), moved.end());
    dst.first_op -= count;
    dst.num_ops += count;
  }
  return true;
}

namespace {

// Chooses candidate op-move counts for rebalancing `from` toward `to_time`:
// the tight goal moves just enough per-microbatch time to close half the
// gap; the loose goal closes the full gap; 1 is the minimal probe (§4.1).
std::vector<int> ChooseMoveCounts(const PerformanceModel& model,
                                  const ParallelConfig& config,
                                  const PerfResult& perf, int from,
                                  bool from_front, double target_delta) {
  const StageConfig& stage = config.stage(from);
  const int n = stage.num_ops;
  // cumulative[k]: the estimated time of the k ops nearest the moving end,
  // summed outward from that end. Extended lazily, so only the ops a count
  // would move are profiled, in the same addition order as a full scan.
  std::vector<double> cumulative{0.0};
  auto cumulative_at = [&](int k) {
    while (static_cast<int>(cumulative.size()) <= k) {
      const int i = static_cast<int>(cumulative.size()) - 1;
      const int idx = from_front ? i : n - 1 - i;
      cumulative.push_back(
          cumulative.back() +
          EstimateOpTime(model, stage.first_op + idx,
                         stage.ops[static_cast<size_t>(idx)],
                         config.microbatch_size()));
    }
    return cumulative[static_cast<size_t>(k)];
  };
  std::vector<int> counts{1};
  for (const double goal : {target_delta / 2.0, target_delta}) {
    if (goal <= 0.0) {
      continue;
    }
    for (int k = 1; k < n; ++k) {
      if (cumulative_at(k) >= goal) {
        counts.push_back(k);
        break;
      }
    }
  }
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  // Keep counts strictly below the stage size.
  while (!counts.empty() && counts.back() >= n) {
    counts.pop_back();
  }
  (void)perf;
  return counts;
}

// The idlest stage: lowest total stage time.
int IdlestStage(const PerfResult& perf, int exclude) {
  int best = -1;
  double best_time = 0.0;
  for (int s = 0; s < static_cast<int>(perf.stages.size()); ++s) {
    if (s == exclude) {
      continue;
    }
    const double t = perf.stages[static_cast<size_t>(s)].stage_time;
    if (best < 0 || t < best_time) {
      best = s;
      best_time = t;
    }
  }
  return best;
}

// The stage with the most free memory, for memory-driven partner choice.
int RoomiestStage(const PerfResult& perf, int exclude) {
  int best = -1;
  int64_t best_mem = 0;
  for (int s = 0; s < static_cast<int>(perf.stages.size()); ++s) {
    if (s == exclude) {
      continue;
    }
    const int64_t m = perf.stages[static_cast<size_t>(s)].memory_bytes;
    if (best < 0 || m < best_mem) {
      best = s;
      best_mem = m;
    }
  }
  return best;
}

class CandidateBuilder {
 public:
  CandidateBuilder(const PerformanceModel& model, PrimitiveKind kind,
                   int stage, bool attach_recompute_fix, int64_t memory_limit)
      : model_(model),
        kind_(kind),
        stage_(stage),
        attach_recompute_fix_(attach_recompute_fix),
        memory_limit_(memory_limit) {}

  // Validates, applies the §4.3 recompute attachment to the stages the
  // candidate touched, and records it. `touched_stages` lists every stage
  // whose parallelism or op range the primitive changed (every stage for a
  // microbatch change), so Validate's per-op checks run on those alone: the
  // rest are the valid base's shared blocks. The rc and ZeRO primitives
  // pass none — they flip only fields Validate does not check.
  void Emit(ParallelConfig config, std::string description,
            const std::vector<int>& touched_stages) {
    if (!config.Validate(model_.graph(), model_.cluster(), &touched_stages)
             .ok()) {
      return;
    }
    if (attach_recompute_fix_) {
      for (int s : touched_stages) {
        FixRecompute(model_, config, s, memory_limit_);
      }
    }
    if (out_.empty()) {
      out_.reserve(kInitialCandidates);
    }
    Candidate candidate;
    candidate.config = std::move(config);
    candidate.primitive = kind_;
    candidate.stage = stage_;
    candidate.description = std::move(description);
    out_.push_back(std::move(candidate));
  }

  std::vector<Candidate> Take() { return std::move(out_); }

 private:
  // First allocation of the output: most calls emit a handful of
  // candidates, so growth rarely reallocates past it.
  static constexpr size_t kInitialCandidates = 4;

  const PerformanceModel& model_;
  PrimitiveKind kind_;
  int stage_;
  bool attach_recompute_fix_;
  int64_t memory_limit_;
  std::vector<Candidate> out_;
};

void AppendPart(std::string& out, std::string_view part) { out += part; }

void AppendPart(std::string& out, int value) {
  char digits[16];
  out.append(digits,
             std::to_chars(digits, digits + sizeof(digits), value).ptr);
}

// A candidate's description: "<primitive>(s<stage>)", then a space and the
// `extra` parts (strings and ints, concatenated) when there are any.
template <typename... Extra>
std::string Desc(PrimitiveKind kind, int stage, const Extra&... extra) {
  std::string out = PrimitiveName(kind);
  out += "(s";
  AppendPart(out, stage);
  out += ')';
  if constexpr (sizeof...(extra) > 0) {
    out += ' ';
    (AppendPart(out, extra), ...);
  }
  return out;
}

// Generates device-migration candidates: `gain` stage absorbs d devices from
// `lose` stage, with the gain going into tp or dp (`gain_into_tp`) and the
// donor shrinking its tp or dp.
void EmitDeviceMigrations(CandidateBuilder& builder,
                          const PerformanceModel& model,
                          const ParallelConfig& config, int gain, int lose,
                          bool gain_into_tp, PrimitiveKind kind) {
  if (lose < 0 || lose == gain) {
    return;
  }
  const int g_gain = config.stage(gain).num_devices;
  const int g_lose = config.stage(lose).num_devices;
  for (int d = 1; d < g_lose; d *= 2) {
    if (!IsPow2(g_gain + d) || !IsPow2(g_lose - d)) {
      continue;
    }
    const int gain_ratio = (g_gain + d) / g_gain;
    if (gain_ratio * g_gain != g_gain + d) {
      continue;  // only clean multiplicative growth re-derives uniformly
    }
    const int lose_ratio = g_lose / (g_lose - d);
    for (const bool lose_from_tp : {true, false}) {
      ParallelConfig next = config;
      StageConfig& gain_stage = next.MutableStage(gain);
      StageConfig& lose_stage = next.MutableStage(lose);
      const int gain_tp = StageModalTp(gain_stage);
      const int lose_tp = StageModalTp(lose_stage);
      if (lose_from_tp && lose_tp < lose_ratio) {
        continue;  // donor cannot shrink tp below 1
      }
      gain_stage.num_devices = g_gain + d;
      lose_stage.num_devices = g_lose - d;
      RederiveStage(model.graph(), gain_stage,
                    gain_into_tp ? gain_tp * gain_ratio : gain_tp);
      RederiveStage(model.graph(), lose_stage,
                    lose_from_tp ? lose_tp / lose_ratio : lose_tp);
      builder.Emit(std::move(next),
                   Desc(kind, gain, "+", d, "gpu from s", lose, " partner ",
                        lose_from_tp ? "dec-tp" : "dec-dp"),
                   {gain, lose});
    }
  }
}

}  // namespace

std::vector<Candidate> GeneratePrimitiveCandidates(
    const PerformanceModel& model, const ParallelConfig& config,
    const PerfResult& perf, PrimitiveKind kind, int stage,
    bool attach_recompute_fix) {
  CandidateBuilder builder(model, kind, stage, attach_recompute_fix,
                           perf.memory_limit);
  const int p = config.num_stages();
  const StageConfig& target = config.stage(stage);
  const int mbs = config.microbatch_size();
  const OpGraph& graph = model.graph();

  switch (kind) {
    case PrimitiveKind::kDecOpCount: {
      // Push ops toward the idlest stage, relaying across intermediates
      // (§4.3). Also try both adjacent neighbours directly.
      const int idlest = IdlestStage(perf, stage);
      if (idlest < 0) {
        break;
      }
      const bool toward_earlier = idlest < stage;
      const double gap =
          (perf.stages[static_cast<size_t>(stage)].fwd_time +
           perf.stages[static_cast<size_t>(stage)].bwd_time) -
          (perf.stages[static_cast<size_t>(idlest)].fwd_time +
           perf.stages[static_cast<size_t>(idlest)].bwd_time);
      for (int count : ChooseMoveCounts(model, config, perf, stage,
                                        toward_earlier, gap)) {
        // Relay: shift `count` ops one hop at a time until they reach the
        // idlest stage.
        ParallelConfig next = config;
        bool ok = true;
        std::vector<int> touched;
        const int step = toward_earlier ? -1 : 1;
        for (int s = stage; s != idlest && ok; s += step) {
          ok = MoveOps(model, next, s, s + step, count);
          touched.push_back(s);
          touched.push_back(s + step);
        }
        if (ok) {
          builder.Emit(std::move(next),
                       Desc(kind, stage, count, "ops -> s", idlest), touched);
        }
      }
      // Direct single-hop moves to each neighbour.
      for (int neighbor : {stage - 1, stage + 1}) {
        if (neighbor < 0 || neighbor >= p || neighbor == idlest) {
          continue;
        }
        ParallelConfig next = config;
        if (MoveOps(model, next, stage, neighbor, 1)) {
          builder.Emit(std::move(next),
                       Desc(kind, stage, "1op -> s", neighbor),
                       {stage, neighbor});
        }
      }
      break;
    }

    case PrimitiveKind::kIncOpCount: {
      // Pull ops from the busiest adjacent neighbour.
      for (int neighbor : {stage - 1, stage + 1}) {
        if (neighbor < 0 || neighbor >= p) {
          continue;
        }
        const bool from_front = neighbor > stage;  // take dst-adjacent end
        const double gap =
            (perf.stages[static_cast<size_t>(neighbor)].fwd_time +
             perf.stages[static_cast<size_t>(neighbor)].bwd_time) -
            (perf.stages[static_cast<size_t>(stage)].fwd_time +
             perf.stages[static_cast<size_t>(stage)].bwd_time);
        for (int count : ChooseMoveCounts(model, config, perf, neighbor,
                                          from_front, gap)) {
          ParallelConfig next = config;
          if (MoveOps(model, next, neighbor, stage, count)) {
            builder.Emit(std::move(next),
                         Desc(kind, stage, count, "ops <- s", neighbor),
                         {stage, neighbor});
          }
        }
      }
      break;
    }

    case PrimitiveKind::kIncMbs: {
      const int64_t batch = graph.global_batch_size();
      const int next_mbs = mbs * 2;
      if (next_mbs <= batch && batch % next_mbs == 0) {
        ParallelConfig next = config;
        next.set_microbatch_size(next_mbs);
        std::vector<int> touched(static_cast<size_t>(p));
        std::iota(touched.begin(), touched.end(), 0);
        builder.Emit(std::move(next),
                     Desc(kind, stage, "mbs=", next_mbs),
                     touched);
      }
      break;
    }

    case PrimitiveKind::kDecMbs: {
      if (mbs >= 2 && mbs % 2 == 0) {
        ParallelConfig next = config;
        next.set_microbatch_size(mbs / 2);
        std::vector<int> touched(static_cast<size_t>(p));
        std::iota(touched.begin(), touched.end(), 0);
        builder.Emit(std::move(next),
                     Desc(kind, stage, "mbs=", mbs / 2),
                     touched);
      }
      break;
    }

    case PrimitiveKind::kIncTp:
    case PrimitiveKind::kIncDp: {
      const bool into_tp = kind == PrimitiveKind::kIncTp;
      // (a) In-place conversion: grow tp at dp's expense or vice versa.
      {
        ParallelConfig next = config;
        StageConfig& s = next.MutableStage(stage);
        const int tp = StageModalTp(s);
        const int new_tp = into_tp ? tp * 2 : tp / 2;
        if (new_tp >= 1 && new_tp <= s.num_devices) {
          RederiveStage(graph, s, new_tp);
          builder.Emit(std::move(next),
                       Desc(kind, stage,
                            into_tp ? "swap dp->tp" : "swap tp->dp"),
                       {stage});
        }
      }
      // (b) Device migration from partner stages. §3.2.1 prefers the
      // partner with the most available resources; we emit the idlest and
      // roomiest donors first and let the estimator rank the rest.
      const int idle_donor = IdlestStage(perf, stage);
      const int roomy_donor = RoomiestStage(perf, stage);
      EmitDeviceMigrations(builder, model, config, stage, idle_donor, into_tp,
                           kind);
      if (roomy_donor != idle_donor) {
        EmitDeviceMigrations(builder, model, config, stage, roomy_donor,
                             into_tp, kind);
      }
      for (int donor = 0; donor < p; ++donor) {
        if (donor != stage && donor != idle_donor && donor != roomy_donor) {
          EmitDeviceMigrations(builder, model, config, stage, donor, into_tp,
                               kind);
        }
      }
      break;
    }

    case PrimitiveKind::kDecTp:
    case PrimitiveKind::kDecDp: {
      const bool from_tp = kind == PrimitiveKind::kDecTp;
      // (a) In-place conversion.
      {
        ParallelConfig next = config;
        StageConfig& s = next.MutableStage(stage);
        const int tp = StageModalTp(s);
        const int new_tp = from_tp ? tp / 2 : tp * 2;
        if (new_tp >= 1 && new_tp <= s.num_devices) {
          RederiveStage(graph, s, new_tp);
          builder.Emit(std::move(next),
                       Desc(kind, stage,
                            from_tp ? "swap tp->dp" : "swap dp->tp"),
                       {stage});
        }
      }
      // (b) Donate devices to a partner stage (partner inc-dp/inc-tp),
      // slowest receivers first.
      if (target.num_devices >= 2) {
        std::vector<int> receivers;
        for (int s = 0; s < p; ++s) {
          if (s != stage) {
            receivers.push_back(s);
          }
        }
        std::sort(receivers.begin(), receivers.end(), [&](int a, int b) {
          return perf.stages[static_cast<size_t>(a)].stage_time >
                 perf.stages[static_cast<size_t>(b)].stage_time;
        });
        for (const int receiver : receivers) {
          EmitDeviceMigrations(builder, model, config, receiver, stage,
                               /*gain_into_tp=*/true, kind);
          EmitDeviceMigrations(builder, model, config, receiver, stage,
                               /*gain_into_tp=*/false, kind);
        }
      }
      break;
    }

    case PrimitiveKind::kIncRc: {
      // (a) Recompute enough to fit in memory (greedy, largest activation
      // first): FixRecompute's OOM path. Only meaningful when the stage is
      // actually over budget — otherwise the fix would *release*
      // recomputation, which is dec-rc's job.
      if (perf.stages[static_cast<size_t>(stage)].memory_bytes >
          perf.memory_limit) {
        ParallelConfig next = config;
        FixRecompute(model, next, stage, perf.memory_limit);
        builder.Emit(std::move(next), Desc(kind, stage, "fit"), {});
      }
      // (b) Recompute one more op: the largest non-recomputed activation.
      {
        ParallelConfig next = config;
        StageConfig& s = next.MutableStage(stage);
        int best = -1;
        int64_t best_bytes = 0;
        for (int i = 0; i < s.num_ops; ++i) {
          if (s.ops[static_cast<size_t>(i)].recompute) {
            continue;
          }
          const int64_t bytes = ApproxStoredBytes(
              graph.op(s.first_op + i), s.ops[static_cast<size_t>(i)], mbs);
          if (bytes > best_bytes) {
            best_bytes = bytes;
            best = i;
          }
        }
        if (best >= 0) {
          s.ops[static_cast<size_t>(best)].recompute = true;
          builder.Emit(std::move(next), Desc(kind, stage, "+1op"), {});
        }
      }
      break;
    }

    case PrimitiveKind::kIncZero:
    case PrimitiveKind::kDecZero: {
      // Toggle ZeRO optimizer sharding for every data-parallel op of the
      // stage (the extension is stage-granular, like recomputation).
      const bool enable = kind == PrimitiveKind::kIncZero;
      ParallelConfig next = config;
      StageConfig& s = next.MutableStage(stage);
      bool changed = false;
      for (OpParallel& setting : s.ops) {
        if (setting.dp > 1 && setting.zero_opt != enable) {
          setting.zero_opt = enable;
          changed = true;
        }
      }
      if (changed) {
        builder.Emit(std::move(next),
                     Desc(kind, stage, enable ? "shard opt" : "replicate opt"),
                     {});
      }
      break;
    }

    case PrimitiveKind::kDecRc: {
      // (a) Drop as much recomputation as memory allows (only when the
      // stage has memory slack; under OOM the fix would add rc instead).
      if (perf.stages[static_cast<size_t>(stage)].memory_bytes <=
          perf.memory_limit) {
        ParallelConfig next = config;
        FixRecompute(model, next, stage, perf.memory_limit);
        builder.Emit(std::move(next), Desc(kind, stage, "relax"), {});
      }
      // (b) Drop the single most expensive recompute.
      {
        ParallelConfig next = config;
        StageConfig& s = next.MutableStage(stage);
        int best = -1;
        double best_time = 0.0;
        for (int i = 0; i < s.num_ops; ++i) {
          if (!s.ops[static_cast<size_t>(i)].recompute) {
            continue;
          }
          const double t = EstimateOpTime(model, s.first_op + i,
                                          s.ops[static_cast<size_t>(i)], mbs);
          if (t > best_time) {
            best_time = t;
            best = i;
          }
        }
        if (best >= 0) {
          s.ops[static_cast<size_t>(best)].recompute = false;
          builder.Emit(std::move(next), Desc(kind, stage, "-1op"), {});
        }
      }
      break;
    }
  }

  return builder.Take();
}

}  // namespace aceso
