// aceso_perfbench: one workload of the end-to-end benchmark per process.
//
//   aceso_perfbench --workload search-deep|search-wide|serve-mix
//                   --seed N --seconds S --trace 0|1 --out-dir DIR
//
// Prints human-readable progress and, as its last stdout line, one JSON
// object: {"correct", "attempted", "failed", "metrics", "context",
// "errors"}. run.py builds this binary, runs it, and reduces that line to
// the benchmark's result line. Exit code 0 means the run completed; `correct`
// says whether every output check passed.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "perfbench/bench_common.h"
#include "src/common/json.h"
#include "src/obs/chrome_trace.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t SpanRecorder::Begin(const std::string& name) {
  Span span;
  span.name = name;
  span.id = next_id_++;
  span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  span.trace = trace_;
  span.start = NowSeconds() - epoch_;
  open_.push_back(spans_.size());
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanRecorder::End(uint64_t id) {
  const double now = NowSeconds() - epoch_;
  // Spans close in LIFO order (ScopedSpan); tolerate a mismatch by closing
  // everything above the target.
  while (!open_.empty()) {
    Span& span = spans_[open_.back()];
    open_.pop_back();
    span.end = now;
    if (span.id == id) break;
  }
}

std::map<std::string, SpanRecorder::Totals> SpanRecorder::Summarize() const {
  std::map<uint64_t, double> child_time;
  for (const Span& span : spans_) {
    if (span.parent != 0) child_time[span.parent] += span.end - span.start;
  }
  std::map<std::string, Totals> totals;
  for (const Span& span : spans_) {
    Totals& t = totals[span.name];
    const double dur = span.end - span.start;
    ++t.count;
    t.total += dur;
    t.self += dur - child_time[span.id];
  }
  return totals;
}

bool WriteSpans(const std::vector<const SpanRecorder*>& recorders,
                const std::vector<std::string>& thread_names,
                const std::string& path, size_t max_spans) {
  aceso::TraceDocument doc;
  for (size_t r = 0; r < recorders.size(); ++r) {
    const SpanRecorder& rec = *recorders[r];
    doc.threads.emplace_back(rec.tid(), thread_names[r]);
    const size_t n = std::min(max_spans, rec.spans().size());
    for (size_t i = 0; i < n; ++i) {
      const Span& span = rec.spans()[i];
      aceso::TraceSlice slice;
      slice.name = span.name;
      slice.tid = rec.tid();
      slice.ts_seconds = span.start;
      slice.dur_seconds = span.end - span.start;
      slice.args = {{"span", std::to_string(span.id)},
                    {"parent", std::to_string(span.parent)},
                    {"trace", std::to_string(span.trace)}};
      doc.slices.push_back(std::move(slice));
    }
  }
  return aceso::WriteChromeTrace(doc, path).ok();
}

namespace {

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->out_dir.empty() &&
         args->seconds > 0;
}

void PrintResult(const Result& result) {
  std::string out = "{\"correct\":";
  out += result.failed == 0 && result.attempted > 0 ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(result.attempted);
  out += ",\"failed\":" + std::to_string(result.failed);
  out += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    if (!first) out += ",";
    first = false;
    out += "\"" + aceso::JsonEscape(name) + "\":{\"value\":";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", metric.value);
    out += std::isfinite(metric.value) ? buf : "null";
    out += ",\"unit\":\"" + aceso::JsonEscape(metric.unit) + "\"";
    out += ",\"samples\":" + std::to_string(metric.samples) + "}";
  }
  out += "},\"context\":{";
  first = true;
  for (const auto& [key, value] : result.context) {
    if (!first) out += ",";
    first = false;
    out += "\"" + aceso::JsonEscape(key) + "\":\"" +
           aceso::JsonEscape(value) + "\"";
  }
  out += "},\"errors\":[";
  for (size_t i = 0; i < result.errors.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + aceso::JsonEscape(result.errors[i]) + "\"";
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "--out-dir DIR\n",
                 argv[0]);
    return 2;
  }
  perfbench::Result result;
  if (args.workload == "search-deep" || args.workload == "search-wide") {
    result = perfbench::RunSearchWorkload(args);
  } else if (args.workload == "serve-mix") {
    result = perfbench::RunServeWorkload(args);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  result.context["workload"] = args.workload;
  result.context["seed"] = std::to_string(args.seed);
  result.context["trace"] = args.trace ? "1" : "0";
  result.Set("peak_rss_mb", perfbench::PeakRssMiB(), "MiB");
  perfbench::PrintResult(result);
  return 0;
}
