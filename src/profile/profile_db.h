// The profiled performance database (§3.3).
//
// Aceso's performance model is profiling-based: the times of each operator
// under each partition degree and the collective-communication times under
// each group size are measured once and reused across searches. This module
// provides that database.
//
// Because no GPUs exist in this environment, measurements come from a
// *simulated profiler* (see SimulatedProfiler below): it evaluates the
// analytical hardware model (src/hw) and overlays deterministic measurement
// jitter, then averages `runs_per_measurement` simulated runs exactly like
// the paper's methodology (50 runs per op). Entries are memoized on first
// use, and the database can be saved to / loaded from disk so later searches
// skip "profiling" entirely — mirroring the paper's reusable database.
//
// Concurrency: the database sits under every concurrent Evaluate() call — the
// stage-count workers of one search (DESIGN.md §11) and the concurrent searches
// of the planning service. The memo maps are therefore striped into
// power-of-two lock shards selected by key hash, and a miss runs the simulated
// measurement *outside* any lock with a double-checked, first-writer-wins
// insert: concurrent fillers may measure the same key twice, but exactly one
// value is published, so memoized results stay deterministic. (The measurement
// itself is deterministic per key, making the race doubly harmless;
// first-writer-wins keeps the guarantee independent of that.) A warm lookup
// takes one shard lock; the cost model's op memo (src/cost/op_memo.h) sits in
// front of the database and absorbs the stage walk's repeated lookups
// (DESIGN.md §12).
//
// Persistence (DESIGN.md §14): Save() serializes the database to a
// versioned, checksummed binary snapshot file whose header embeds the full
// ClusterSpec and its fingerprint; Load() *replaces* this database's
// contents with the file's, so a process started from a saved file runs zero
// simulated measurements for any key the file covers.
// Load refuses version mismatches, corrupt/truncated files (checksum), and
// snapshots profiled on a different cluster (fingerprint). Measurement
// values round-trip as raw IEEE-754 bits: a loaded database is bit-identical
// to the one that saved it.

#ifndef SRC_PROFILE_PROFILE_DB_H_
#define SRC_PROFILE_PROFILE_DB_H_

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "src/common/status.h"
#include "src/common/stat_fields.h"
#include "src/hw/cluster.h"
#include "src/hw/gpu_spec.h"
#include "src/hw/interconnect.h"
#include "src/ir/operator.h"

namespace aceso {

// Measured execution time of one operator shard.
struct OpMeasurement {
  double fwd_seconds = 0.0;
  double bwd_seconds = 0.0;
};

// Identifies one op-time entry: operator identity, compute-shard degree,
// per-replica microbatch, precision.
struct OpProfileKey {
  uint64_t op_signature = 0;
  int shard_degree = 1;   // how many ways the op's compute is divided
  int local_batch = 1;    // microbatch size seen by one replica
  int precision = 0;      // Precision enum value

  bool operator==(const OpProfileKey& other) const {
    return op_signature == other.op_signature &&
           shard_degree == other.shard_degree &&
           local_batch == other.local_batch && precision == other.precision;
  }
  uint64_t Hash() const;
};

// Identifies one collective-time entry. Byte sizes are bucketed at powers of
// two and interpolated, keeping the database small.
struct CommProfileKey {
  int kind = 0;            // CollectiveKind enum value
  int group_size = 1;
  bool crosses_nodes = false;
  int log2_bytes = 0;      // bucket

  bool operator==(const CommProfileKey& other) const {
    return kind == other.kind && group_size == other.group_size &&
           crosses_nodes == other.crosses_nodes &&
           log2_bytes == other.log2_bytes;
  }
  uint64_t Hash() const;
};

// Produces "measurements" by evaluating the hardware model with
// deterministic per-key jitter. Stateless and thread-safe.
class SimulatedProfiler {
 public:
  SimulatedProfiler(const ClusterSpec& cluster, uint64_t seed,
                    int runs_per_measurement = 50);

  // Simulates `runs_per_measurement` timed runs of one op shard and returns
  // the averaged measurement.
  OpMeasurement MeasureOp(const Operator& op, const OpProfileKey& key) const;

  // Simulated time of one bucketed collective.
  double MeasureCollective(const CommProfileKey& key) const;

  // The wall-clock the paper would have spent obtaining this measurement
  // (runs x simulated op time); lets benches report profiling overhead.
  double SimulatedMeasurementCost(const OpMeasurement& m) const;

 private:
  ClusterSpec cluster_;
  InterconnectModel interconnect_;
  uint64_t seed_;
  int runs_;
};

// Header of a saved profile-snapshot file, readable without constructing a
// ProfileDatabase: the serving daemon uses it to build a database for the
// *file's* cluster before loading (DESIGN.md §14).
struct ProfileSnapshotInfo {
  ClusterSpec cluster;
  uint64_t cluster_fingerprint = 0;
  uint64_t op_entries = 0;
  uint64_t comm_entries = 0;
};

// Lookup/contention counters.
struct ProfileDbStats : StatsSnapshot<ProfileDbStats> {
  int64_t lookups = 0;        // OpTime + bucketed CollectiveTime calls
  int64_t misses = 0;         // lookups that ran a simulated measurement
  int64_t lock_contended = 0; // shard acquisitions that had to block

  static constexpr StatField<ProfileDbStats> kFields[] = {
      {"lookups", &ProfileDbStats::lookups},
      {"misses", &ProfileDbStats::misses},
      {"lock_contended", &ProfileDbStats::lock_contended},
  };
};
static_assert(StatTableCovers<ProfileDbStats>(/*gauges=*/0));

// Thread-safe memoizing database of op and collective measurements.
class ProfileDatabase {
 public:
  ProfileDatabase(const ClusterSpec& cluster, uint64_t seed = 20240422);

  ProfileDatabase(const ProfileDatabase&) = delete;
  ProfileDatabase& operator=(const ProfileDatabase&) = delete;

  // Time of `op` with its compute divided `shard_degree` ways processing a
  // `local_batch`-sample microbatch. Memoized.
  OpMeasurement OpTime(const Operator& op, Precision precision,
                       int shard_degree, int local_batch) {
    return OpTime(op, op.Signature(), precision, shard_degree, local_batch);
  }
  // The same lookup for a caller that holds `signature` == op.Signature()
  // (OpGraph::op_signatures()), so the hot path does not rehash the op.
  OpMeasurement OpTime(const Operator& op, uint64_t signature,
                       Precision precision, int shard_degree,
                       int local_batch);

  // Time of a collective over `bytes` with power-of-two bucketing and linear
  // interpolation between buckets. Memoized per bucket.
  double CollectiveTime(CollectiveKind kind, int64_t bytes,
                        const CommDomain& domain);

  // Number of distinct measured entries (ops + collectives).
  size_t NumEntries() const;

  // Total simulated wall-clock of all measurements performed so far (the
  // paper's "profiling overhead").
  double SimulatedProfilingSeconds() const;

  // Persistence: the on-disk database can be reloaded so future searches
  // reuse measurements (the paper profiles each model family once). The
  // format is the versioned binary snapshot described in the module comment;
  // Save writes entries in sorted key order, so equal databases produce
  // byte-identical files. Load replaces this database's contents and fails
  // (leaving the database untouched) on bad magic, version mismatch,
  // corruption, or a cluster-fingerprint mismatch against `cluster()`.
  Status Save(const std::string& path) const;
  Status Load(const std::string& path);

  // Parses just the header of a saved snapshot file: the embedded
  // ClusterSpec, its fingerprint, and the entry counts. Validates the magic,
  // version, and whole-file checksum (so a truncated file is rejected here,
  // not at Load time).
  static StatusOr<ProfileSnapshotInfo> ReadSnapshotHeader(
      const std::string& path);

  const ClusterSpec& cluster() const { return cluster_; }

  ProfileDbStats stats() const;

 private:
  // Shard count: enough that 8 concurrent evaluators on disjoint keys
  // rarely collide (birthday bound ~1 - exp(-8*7/2/32) ≈ 58% of *any*
  // collision per instant, but per-pair just 3%), small enough that the
  // iteration paths (NumEntries/Save) stay trivial.
  static constexpr size_t kNumShards = 32;

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, OpMeasurement> op_entries;
    std::unordered_map<uint64_t, double> comm_entries;
    double simulated_profiling_seconds = 0.0;
  };

  // Keys are Hasher digests (already well mixed); take high bits so shard
  // choice is independent of the unordered_map bucket index (low bits).
  Shard& ShardFor(uint64_t hash) const {
    return shards_[static_cast<size_t>(hash >> 56) % kNumShards];
  }

  // Locks `shard.mu`, counting the acquisition as contended when it had to
  // block.
  std::unique_lock<std::mutex> LockShard(const Shard& shard) const;

  double CollectiveBucketTime(const CommProfileKey& key);

  ClusterSpec cluster_;
  SimulatedProfiler profiler_;

  mutable std::array<Shard, kNumShards> shards_;
  // Bumped by every lookup, each thread in its own stripe.
  StripedStats<ProfileDbStats> counters_;
};

}  // namespace aceso

#endif  // SRC_PROFILE_PROFILE_DB_H_
