#include "src/core/frontier.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/config/config_io.h"

namespace aceso {

double CostPerStepUsd(double iteration_time, int num_gpus,
                      double price_per_hour_usd) {
  return iteration_time * static_cast<double>(num_gpus) * price_per_hour_usd /
         3600.0;
}

namespace {

// First archived point with peak memory >= `bytes` (points are sorted by
// peak memory strictly ascending).
std::vector<FrontierPoint>::iterator LowerBoundMem(
    std::vector<FrontierPoint>& points, int64_t bytes) {
  return std::lower_bound(points.begin(), points.end(), bytes,
                          [](const FrontierPoint& p, int64_t b) {
                            return p.peak_memory_bytes < b;
                          });
}

}  // namespace

bool FrontierArchive::Offer(const ParallelConfig& config,
                            const PerfResult& perf, uint64_t semantic_hash,
                            double cost_per_step_usd) {
  FrontierPoint point;
  point.iteration_time = perf.iteration_time;
  point.peak_memory_bytes = perf.MaxMemory();
  point.cost_per_step_usd = cost_per_step_usd;
  point.semantic_hash = semantic_hash;
  point.num_stages = config.num_stages();
  point.microbatch_size = config.microbatch_size();
  point.feasible = !perf.oom;
  point.config = config;  // cheap CoW handle copy
  return OfferPoint(point);
}

bool FrontierArchive::OfferPoint(const FrontierPoint& point) {
  ++stats_.offered;
  if (!std::isfinite(point.iteration_time) || point.iteration_time <= 0.0 ||
      point.peak_memory_bytes < 0) {
    ++stats_.rejected;
    return false;
  }
  if (hashes_.count(point.semantic_hash) != 0) {
    ++stats_.duplicates;
    return false;
  }
  // Weak-dominance check: the archived point with the largest peak memory
  // <= point's (its memory-wise predecessor) is the fastest archived point
  // that fits wherever the candidate fits. If even that one is no slower,
  // the candidate adds nothing (equal metrics keep the incumbent — first
  // offer wins, deterministically).
  auto pos = LowerBoundMem(points_, point.peak_memory_bytes + 1);
  if (pos != points_.begin() &&
      std::prev(pos)->iteration_time <= point.iteration_time) {
    ++stats_.dominated;
    return false;
  }
  // Admission: evict archived points the candidate weakly dominates. Those
  // have peak memory >= the candidate's and iteration time >= its time;
  // with times strictly descending they form a contiguous run starting at
  // the first point with memory >= the candidate's.
  auto first = LowerBoundMem(points_, point.peak_memory_bytes);
  auto last = first;
  while (last != points_.end() &&
         last->iteration_time >= point.iteration_time) {
    hashes_.erase(last->semantic_hash);
    ++stats_.evicted;
    ++last;
  }
  auto at = points_.erase(first, last);
  points_.insert(at, point);
  hashes_.insert(point.semantic_hash);
  ++stats_.admitted;
  return true;
}

void FrontierArchive::Merge(const FrontierArchive& other) {
  for (const FrontierPoint& point : other.points_) {
    OfferPoint(point);
  }
}

const FrontierPoint* FrontierArchive::BestUnderBudget(
    int64_t budget_bytes) const {
  auto& points = const_cast<std::vector<FrontierPoint>&>(points_);
  auto pos = LowerBoundMem(points, budget_bytes + 1);
  if (pos == points.begin()) {
    return nullptr;  // even the smallest archived config does not fit
  }
  return &*std::prev(pos);
}

std::string FrontierArchive::ToJson(const std::string& model_name) const {
  std::string out = "{\"points\":[";
  bool first = true;
  for (const FrontierPoint& p : points_) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += "{\"iteration_time\":";
    AppendJsonNumber(out, p.iteration_time);
    out += ",\"peak_memory_bytes\":" + std::to_string(p.peak_memory_bytes);
    out += ",\"cost_per_step_usd\":";
    AppendJsonNumber(out, p.cost_per_step_usd);
    // Hex string: uint64 hashes can exceed the exact-int64 range JSON
    // numbers round-trip safely.
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016" PRIx64, p.semantic_hash);
    out += ",\"semantic_hash\":\"";
    out += hex;
    out += "\",\"num_stages\":" + std::to_string(p.num_stages);
    out += ",\"microbatch_size\":" + std::to_string(p.microbatch_size);
    out += ",\"feasible\":";
    out += p.feasible ? "true" : "false";
    out += ",\"config_text\":\"";
    if (!p.config_text.empty()) {
      AppendJsonEscaped(out, p.config_text);
    } else if (p.config.num_stages() > 0) {
      AppendJsonEscaped(out, SerializeConfig(p.config, model_name));
    }
    out += "\"}";
  }
  out += "],";
  AppendStatsJson(out, stats_);
  out += '}';
  return out;
}

namespace {

Status PointError(size_t index, const std::string& what) {
  return InvalidArgument("frontier point " + std::to_string(index) +
                              ": " + what);
}

StatusOr<int64_t> TakeCounter(const JsonValue& value, const char* key) {
  const JsonValue* member = value.Find(key);
  if (member == nullptr) {
    return int64_t{0};
  }
  if (!member->is_number() || !member->number_is_int() ||
      member->int_value() < 0) {
    return InvalidArgument(std::string("frontier counter '") + key +
                                "' must be a non-negative integer");
  }
  return member->int_value();
}

}  // namespace

StatusOr<FrontierArchive> FrontierArchive::FromJson(const JsonValue& value) {
  if (!value.is_object()) {
    return InvalidArgument("frontier must be a JSON object");
  }
  const JsonValue* points = value.Find("points");
  if (points == nullptr || !points->is_array()) {
    return InvalidArgument("frontier is missing the 'points' array");
  }
  FrontierArchive archive;
  for (size_t i = 0; i < points->size(); ++i) {
    const JsonValue& item = points->item(i);
    if (!item.is_object()) {
      return PointError(i, "must be an object");
    }
    FrontierPoint p;
    const JsonValue* time = item.Find("iteration_time");
    if (time == nullptr || !time->is_number()) {
      return PointError(i, "missing numeric 'iteration_time'");
    }
    p.iteration_time = time->number_value();
    if (!std::isfinite(p.iteration_time) || p.iteration_time <= 0.0) {
      return PointError(i, "'iteration_time' must be finite and positive");
    }
    const JsonValue* mem = item.Find("peak_memory_bytes");
    if (mem == nullptr || !mem->is_number() || !mem->number_is_int() ||
        mem->int_value() < 0) {
      return PointError(i, "missing non-negative integer 'peak_memory_bytes'");
    }
    p.peak_memory_bytes = mem->int_value();
    const JsonValue* cost = item.Find("cost_per_step_usd");
    if (cost == nullptr || !cost->is_number()) {
      return PointError(i, "missing numeric 'cost_per_step_usd'");
    }
    p.cost_per_step_usd = cost->number_value();
    const JsonValue* hash = item.Find("semantic_hash");
    if (hash == nullptr || !hash->is_string() ||
        hash->string_value().empty()) {
      return PointError(i, "missing hex string 'semantic_hash'");
    }
    char* end = nullptr;
    p.semantic_hash =
        std::strtoull(hash->string_value().c_str(), &end, /*base=*/16);
    if (end == nullptr || *end != '\0') {
      return PointError(i, "'semantic_hash' is not a hex string");
    }
    const JsonValue* stages = item.Find("num_stages");
    if (stages == nullptr || !stages->is_number() ||
        !stages->number_is_int()) {
      return PointError(i, "missing integer 'num_stages'");
    }
    p.num_stages = static_cast<int>(stages->int_value());
    const JsonValue* mbs = item.Find("microbatch_size");
    if (mbs == nullptr || !mbs->is_number() || !mbs->number_is_int()) {
      return PointError(i, "missing integer 'microbatch_size'");
    }
    p.microbatch_size = static_cast<int>(mbs->int_value());
    const JsonValue* feasible = item.Find("feasible");
    if (feasible == nullptr || !feasible->is_bool()) {
      return PointError(i, "missing boolean 'feasible'");
    }
    p.feasible = feasible->bool_value();
    const JsonValue* text = item.Find("config_text");
    if (text == nullptr || !text->is_string()) {
      return PointError(i, "missing string 'config_text'");
    }
    p.config_text = text->string_value();
    // Enforce the Pareto invariant against the previous point: a document
    // whose points are unsorted or dominated is corrupt and must not be
    // used to answer budget sweeps.
    if (!archive.points_.empty()) {
      const FrontierPoint& prev = archive.points_.back();
      if (p.peak_memory_bytes <= prev.peak_memory_bytes ||
          p.iteration_time >= prev.iteration_time) {
        return PointError(i, "violates the Pareto ordering invariant");
      }
    }
    if (!archive.hashes_.insert(p.semantic_hash).second) {
      return PointError(i, "duplicate semantic hash");
    }
    archive.points_.push_back(std::move(p));
  }
  for (const StatField<FrontierStats>& field : FrontierStats::kFields) {
    StatusOr<int64_t> parsed = TakeCounter(value, field.name);
    if (!parsed.ok()) {
      return parsed.status();
    }
    archive.stats_.*field.member = *parsed;
  }
  return archive;
}

}  // namespace aceso
