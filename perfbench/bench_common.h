// Shared pieces of the end-to-end benchmark: the result record every
// workload fills, sample statistics, and the in-memory span recorder used by
// traced runs. Everything here is benchmark-owned; the program under test is
// reached only through its public headers.

#ifndef PERFBENCH_BENCH_COMMON_H_
#define PERFBENCH_BENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/config/parallel_config.h"
#include "src/core/search.h"
#include "src/hw/cluster.h"
#include "src/ir/op_graph.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 20240422;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  // traces and scratch files go here
};

// One named number with its unit and how many samples it summarizes
// (0 for counts and single measurements).
struct Metric {
  double value = 0.0;
  std::string unit;
  int64_t samples = 0;
};

struct Result {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;  // first few failure descriptions
  std::map<std::string, Metric> metrics;
  // Run context: string-valued facts recorded beside every result.
  std::map<std::string, std::string> context;

  void Set(const std::string& name, double value, const std::string& unit,
           int64_t samples = 0) {
    metrics[name] = Metric{value, unit, samples};
  }
  // Records one attempted operation; a false `ok` counts it failed.
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (errors.size() < 20) errors.push_back(what);
    }
  }
};

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU time consumed so far by every thread of this process. On a shared
// virtual machine, wall time also counts the time the hypervisor runs other
// guests on our cores (steal); CPU time does not.
double ProcessCpuSeconds();
// CPU time consumed so far by the calling thread.
double ThreadCpuSeconds();

// Quantile q in [0, 1] of `values` by linear interpolation between order
// statistics (numpy's default); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

// A uniform random sample of at most `capacity` values (Algorithm R) in a
// buffer allocated and touched up front, so the process's peak memory does
// not grow with the number of requests a run completes.
class Reservoir {
 public:
  explicit Reservoir(size_t capacity) : buf_(capacity, 0.0) {}
  void Add(double value) {
    if (seen_ < buf_.size()) {
      buf_[seen_] = value;
    } else {
      state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
      const uint64_t j = (state_ >> 11) % (seen_ + 1);
      if (j < buf_.size()) buf_[j] = value;
    }
    ++seen_;
  }
  uint64_t seen() const { return seen_; }
  std::vector<double> Values() const {
    const uint64_t n = std::min<uint64_t>(seen_, buf_.size());
    return std::vector<double>(buf_.begin(),
                               buf_.begin() + static_cast<std::ptrdiff_t>(n));
  }

 private:
  std::vector<double> buf_;
  uint64_t seen_ = 0;
  uint64_t state_ = 1;  // LCG for the replacement index
};

// num / den, or 0 when den is not positive.
inline double Ratio(double num, double den) {
  return den > 0 ? num / den : 0.0;
}

// Peak resident set of this process so far, in MiB (getrusage).
double PeakRssMiB();

// ---- spans (traced runs only) ----

struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t trace = 0;   // shared by every span of one search or request
  double start = 0.0;   // seconds since the recorder's epoch
  double end = 0.0;
};

// Keeps spans in memory; written once at exit. Not thread-safe: each thread
// of a traced run owns its own recorder.
class SpanRecorder {
 public:
  explicit SpanRecorder(int tid = 0, double epoch = NowSeconds())
      : tid_(tid), epoch_(epoch) {}

  // Opens a span under the innermost open span (or as a root).
  uint64_t Begin(const std::string& name);
  void End(uint64_t id);
  // Starts a new trace id for the next root span.
  void NewTrace() { ++trace_; }

  const std::vector<Span>& spans() const { return spans_; }
  int tid() const { return tid_; }

  // Per-name totals: call count, summed duration, summed self time (duration
  // minus the part of it covered by direct children).
  struct Totals {
    int64_t count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Totals> Summarize() const;

 private:
  int tid_;
  double epoch_;
  uint64_t next_id_ = 1;
  uint64_t trace_ = 1;
  std::vector<Span> spans_;
  std::vector<size_t> open_;  // indices into spans_
};

// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const std::string& name)
      : rec_(rec), id_(rec != nullptr ? rec->Begin(name) : 0) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  uint64_t id_;
};

// Writes the recorders' spans as one Chrome trace (src/obs/chrome_trace),
// one trace thread per recorder; span/parent/trace ids ride in the args.
// At most `max_spans` of each recorder's first spans are written.
bool WriteSpans(const std::vector<const SpanRecorder*>& recorders,
                const std::vector<std::string>& thread_names,
                const std::string& path, size_t max_spans = SIZE_MAX);

// Workloads.
Result RunSearchWorkload(const Args& args);
Result RunServeWorkload(const Args& args);

// Per-layer probes shared by the traced runs, so every workload reports
// every layer on its own model.
//
// The search layers: a benchmark-side Algorithm-1 replay of `graph` on
// `cluster` (one stage count, or all when `stages` is 0) on a fresh profile
// database, with spans around each public layer call; writes the spans to
// `trace_path` and sets the config.*, apply.*, cost.evaluate_us,
// cost.stage_walk_us, finetune.ms and search.*_share metrics.
void LayerReplay(const aceso::OpGraph& graph,
                 const aceso::ClusterSpec& cluster, int stages,
                 int64_t max_evals, const std::string& trace_path,
                 Result* result);
// The protocol layer on one request and its search result: parse, cache
// key, payload build (protocol.*).
void ProtocolProbes(const std::string& body, const aceso::OpGraph& graph,
                    const aceso::ClusterSpec& cluster,
                    const aceso::SearchResult& searched, Result* result);
// A fresh daemon answering one request: its miss, in-process hits and a
// budget sweep, HTTP hits, and a save/load of its profile snapshot into
// `snapshot_dir` (service.hit_us, service.sweep_us, service.miss_ms,
// http.hit_overhead_us, profile.load_ms).
void ServiceProbe(const std::string& body, const std::string& snapshot_dir,
                  Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_COMMON_H_
