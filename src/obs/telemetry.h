// Structured search telemetry (the observability layer of DESIGN.md §10).
//
// The search loop is the product: the paper's evaluation (Figures 9–14) is a
// set of questions *about the search* — what bottleneck was attacked, which
// primitive won, how many hops it took, how candidates were spent. This
// module gives those questions a stable substrate:
//
//   * TelemetryEvent — an ordered, typed key→value record serialized as one
//     JSON line (the schema per event type is documented in DESIGN.md §10);
//   * TelemetrySink — a thread-safe sink that appends events to a JSONL file
//     and/or an in-memory ring, plus a counters/timers registry;
//   * the search attaches a sink through SearchOptions::telemetry.
//
// Cost contract: a null sink disables everything. Instrumented code caches
// the sink pointer and guards each instrumentation point with one branch on
// it, so the disabled path stays within noise of the uninstrumented build
// (pinned by micro_search's BM_SearchIterationBudget100ms vs ...Telemetry).

#ifndef SRC_OBS_TELEMETRY_H_
#define SRC_OBS_TELEMETRY_H_

#include <cstdint>
#include <deque>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace aceso {

// One telemetry record: a named type plus ordered typed fields. Built with
// chained setters at the emission site; consumers (trace export, benches,
// tests) read fields back through the typed getters.
class TelemetryEvent {
 public:
  TelemetryEvent() = default;
  explicit TelemetryEvent(std::string type) : type_(std::move(type)) {}

  TelemetryEvent& Str(std::string key, std::string value);
  TelemetryEvent& Int(std::string key, int64_t value);
  TelemetryEvent& Dbl(std::string key, double value);
  TelemetryEvent& Bool(std::string key, bool value);

  const std::string& type() const { return type_; }

  // Typed lookups; nullopt / nullptr when the key is absent or of another
  // type (GetInt additionally accepts bool fields as 0/1).
  std::optional<int64_t> GetInt(std::string_view key) const;
  std::optional<double> GetDbl(std::string_view key) const;
  std::optional<bool> GetBool(std::string_view key) const;
  const std::string* GetStr(std::string_view key) const;

  // One JSON object on a single line: {"type":"...",...}, keys in insertion
  // order, all strings escaped. Always valid JSON (non-finite doubles emit
  // null).
  std::string ToJsonLine() const;

  // ToJsonLine() with the named keys omitted — used to compare event
  // streams while ignoring wall-clock fields ("t", "dur").
  std::string ToJsonLineExcluding(const std::vector<std::string>& keys) const;

 private:
  enum class Kind { kStr, kInt, kDbl, kBool };
  struct Field {
    std::string key;
    Kind kind = Kind::kStr;
    std::string s;
    int64_t i = 0;
    double d = 0.0;
    bool b = false;
  };

  const Field* Find(std::string_view key) const;

  std::string type_;
  std::vector<Field> fields_;
};

struct TelemetryOptions {
  // When non-empty, every event is appended to this file as one JSON line.
  // The file never drops events; write errors latch into status().
  std::string jsonl_path;

  // In-memory ring: the most recent `ring_capacity` events are kept for
  // in-process consumers (trace export, benches). 0 disables the ring.
  // Oldest events are dropped past capacity (counted in events_dropped()).
  size_t ring_capacity = 65536;
};

// Thread-safe event sink + counters/timers registry. Emission takes one
// mutex; instrumented code batches per-candidate facts locally and emits
// once per search iteration, so the lock is not on any per-candidate path.
class TelemetrySink {
 public:
  TelemetrySink() : TelemetrySink(TelemetryOptions{}) {}
  explicit TelemetrySink(TelemetryOptions options);
  ~TelemetrySink();

  TelemetrySink(const TelemetrySink&) = delete;
  TelemetrySink& operator=(const TelemetrySink&) = delete;

  // First file error, if any (open or write failure).
  Status status() const;

  void Emit(TelemetryEvent event);

  // Snapshot of the ring in emission order.
  std::vector<TelemetryEvent> Events() const;

  size_t events_emitted() const;
  size_t events_dropped() const;  // ring overflow only; JSONL never drops

  // Monotonic named counters (e.g. "search.candidates_generated").
  void IncrCounter(std::string_view name, int64_t delta = 1);
  int64_t counter(std::string_view name) const;  // 0 when never incremented
  std::map<std::string, int64_t> Counters() const;

  // Emits one "counter_snapshot" event carrying every counter's current
  // value as an Int field keyed by its name (alphabetical). For *tools* at
  // end of run — cache hit rates etc. are thread-timing dependent, so
  // library code must never emit counter values into the event stream
  // (the stream is pinned bit-identical run to run, DESIGN.md §10).
  void EmitCounterSnapshot();

  // Named duration accumulators (e.g. "search.worker_seconds").
  struct TimerStat {
    int64_t count = 0;
    double total_seconds = 0.0;
    double max_seconds = 0.0;
  };
  void RecordTimer(std::string_view name, double seconds);
  std::map<std::string, TimerStat> Timers() const;

  // Flushes the JSONL stream (a no-op without a file).
  Status Flush();

 private:
  mutable std::mutex mu_;
  TelemetryOptions options_;
  std::ofstream out_;
  bool file_open_ = false;
  Status status_;
  std::deque<TelemetryEvent> ring_;
  size_t emitted_ = 0;
  size_t dropped_ = 0;
  std::map<std::string, int64_t, std::less<>> counters_;
  std::map<std::string, TimerStat, std::less<>> timers_;
};

}  // namespace aceso

#endif  // SRC_OBS_TELEMETRY_H_
