#include "src/profile/profile_db.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/common/rng.h"

namespace aceso {
namespace {

// Relative standard deviation of simulated per-run timing noise.
constexpr double kRunJitter = 0.02;

// A stable per-key systematic bias (kernel selection, clock effects): the
// database "measures" this consistently, and the runtime simulator sees the
// same bias, so prediction error comes from modelling differences rather
// than raw noise.
double SystematicBias(uint64_t key_hash, double relative_magnitude) {
  // Map hash to [-1, 1] deterministically.
  const double unit =
      static_cast<double>(MixU64(key_hash) >> 11) * 0x1.0p-53 * 2.0 - 1.0;
  return 1.0 + relative_magnitude * unit;
}

int Log2Floor(int64_t v) {
  int l = 0;
  while (v > 1) {
    v >>= 1;
    ++l;
  }
  return l;
}

}  // namespace

uint64_t OpProfileKey::Hash() const {
  Hasher h;
  h.Add(op_signature);
  h.Add(shard_degree);
  h.Add(local_batch);
  h.Add(precision);
  return h.Digest();
}

uint64_t CommProfileKey::Hash() const {
  Hasher h;
  h.Add(kind);
  h.Add(group_size);
  h.Add(crosses_nodes);
  h.Add(log2_bytes);
  // Offset the domain so comm keys never collide with op keys.
  h.Add(uint64_t{0xC0111EC7});
  return h.Digest();
}

SimulatedProfiler::SimulatedProfiler(const ClusterSpec& cluster, uint64_t seed,
                                     int runs_per_measurement)
    : cluster_(cluster), interconnect_(cluster), seed_(seed),
      runs_(runs_per_measurement) {}

OpMeasurement SimulatedProfiler::MeasureOp(const Operator& op,
                                           const OpProfileKey& key) const {
  const double batch = static_cast<double>(key.local_batch);
  const double shards = static_cast<double>(key.shard_degree);
  const double flops = op.fwd_flops * batch / shards;
  // Forward traffic: read input + params shard, write output.
  const int64_t fwd_bytes = static_cast<int64_t>(
      (static_cast<double>(op.in_bytes + op.out_bytes) * batch +
       static_cast<double>(op.param_bytes)) /
      shards);
  const auto precision = static_cast<Precision>(key.precision);
  const double fwd_ideal = cluster_.gpu.ComputeTime(flops, fwd_bytes, precision);
  // Backward: ~2x FLOPs (grad wrt input and wrt weights) and ~2x traffic.
  const double bwd_ideal =
      cluster_.gpu.ComputeTime(2.0 * flops, 2 * fwd_bytes, precision);

  const uint64_t key_hash = key.Hash();
  const double bias = SystematicBias(key_hash ^ seed_, 0.05);

  // Average `runs_` jittered runs, like the paper's 50-run averaging.
  Rng rng(key_hash ^ MixU64(seed_));
  double fwd_sum = 0.0;
  double bwd_sum = 0.0;
  for (int r = 0; r < runs_; ++r) {
    fwd_sum += fwd_ideal * bias * (1.0 + rng.NextGaussian(0.0, kRunJitter));
    bwd_sum += bwd_ideal * bias * (1.0 + rng.NextGaussian(0.0, kRunJitter));
  }
  OpMeasurement m;
  m.fwd_seconds = std::max(fwd_sum / runs_, 1e-9);
  m.bwd_seconds = std::max(bwd_sum / runs_, 1e-9);
  return m;
}

double SimulatedProfiler::MeasureCollective(const CommProfileKey& key) const {
  CommDomain domain;
  domain.size = key.group_size;
  domain.crosses_nodes = key.crosses_nodes;
  const int64_t bytes = int64_t{1} << key.log2_bytes;
  const double ideal = interconnect_.CollectiveTime(
      static_cast<CollectiveKind>(key.kind), bytes, domain);
  const uint64_t key_hash = key.Hash();
  const double bias = SystematicBias(key_hash ^ seed_, 0.08);
  Rng rng(key_hash ^ MixU64(seed_));
  double sum = 0.0;
  for (int r = 0; r < runs_; ++r) {
    sum += ideal * bias * (1.0 + rng.NextGaussian(0.0, kRunJitter));
  }
  return std::max(sum / runs_, 0.0);
}

double SimulatedProfiler::SimulatedMeasurementCost(
    const OpMeasurement& m) const {
  return runs_ * (m.fwd_seconds + m.bwd_seconds);
}

ProfileDatabase::ProfileDatabase(const ClusterSpec& cluster, uint64_t seed)
    : cluster_(cluster), profiler_(cluster, seed) {}

std::unique_lock<std::mutex> ProfileDatabase::LockShard(
    const Shard& shard) const {
  std::unique_lock<std::mutex> lock(shard.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    counters_.Add<&ProfileDbStats::lock_contended>();
    lock.lock();
  }
  return lock;
}

OpMeasurement ProfileDatabase::OpTime(const Operator& op, uint64_t signature,
                                      Precision precision, int shard_degree,
                                      int local_batch) {
  OpProfileKey key;
  key.op_signature = signature;
  key.shard_degree = shard_degree;
  key.local_batch = local_batch;
  key.precision = static_cast<int>(precision);
  const uint64_t hash = key.Hash();
  counters_.Add<&ProfileDbStats::lookups>();

  Shard& shard = ShardFor(hash);
  {
    auto lock = LockShard(shard);
    auto it = shard.op_entries.find(hash);
    if (it != shard.op_entries.end()) {
      return it->second;
    }
  }
  // Miss: measure with the shard unlocked (the measurement averages
  // `runs_` simulated runs and is the expensive part — holding the lock
  // here would convoy every concurrent lookup of this shard behind it),
  // then double-check: emplace ignores our value if another filler beat us.
  counters_.Add<&ProfileDbStats::misses>();
  const OpMeasurement m = profiler_.MeasureOp(op, key);
  auto lock = LockShard(shard);
  auto [it, inserted] = shard.op_entries.emplace(hash, m);
  if (inserted) {
    shard.simulated_profiling_seconds += profiler_.SimulatedMeasurementCost(m);
  }
  return it->second;
}

double ProfileDatabase::CollectiveBucketTime(const CommProfileKey& key) {
  const uint64_t hash = key.Hash();
  counters_.Add<&ProfileDbStats::lookups>();

  Shard& shard = ShardFor(hash);
  {
    auto lock = LockShard(shard);
    auto it = shard.comm_entries.find(hash);
    if (it != shard.comm_entries.end()) {
      return it->second;
    }
  }
  // Same unlocked-measure + first-writer-wins insert as OpTime.
  counters_.Add<&ProfileDbStats::misses>();
  const double t = profiler_.MeasureCollective(key);
  auto lock = LockShard(shard);
  auto [it, inserted] = shard.comm_entries.emplace(hash, t);
  if (inserted) {
    shard.simulated_profiling_seconds += 50 * t;
  }
  return it->second;
}

double ProfileDatabase::CollectiveTime(CollectiveKind kind, int64_t bytes,
                                       const CommDomain& domain) {
  if (domain.size <= 1 || bytes <= 0) {
    return 0.0;
  }
  CommProfileKey key;
  key.kind = static_cast<int>(kind);
  key.group_size = domain.size;
  key.crosses_nodes = domain.crosses_nodes;
  key.log2_bytes = Log2Floor(bytes);
  const double low = CollectiveBucketTime(key);
  const int64_t low_bytes = int64_t{1} << key.log2_bytes;
  if (bytes == low_bytes) {
    return low;
  }
  CommProfileKey high_key = key;
  ++high_key.log2_bytes;
  const double high = CollectiveBucketTime(high_key);
  const double frac = static_cast<double>(bytes - low_bytes) /
                      static_cast<double>(low_bytes);
  return low + (high - low) * frac;
}

size_t ProfileDatabase::NumEntries() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    auto lock = LockShard(shard);
    total += shard.op_entries.size() + shard.comm_entries.size();
  }
  return total;
}

double ProfileDatabase::SimulatedProfilingSeconds() const {
  double total = 0.0;
  for (const Shard& shard : shards_) {
    auto lock = LockShard(shard);
    total += shard.simulated_profiling_seconds;
  }
  return total;
}

ProfileDbStats ProfileDatabase::stats() const { return counters_.Snapshot(); }

// ---- Versioned binary snapshot files (DESIGN.md §14) ----
//
// Layout (all integers host-endian, doubles as raw IEEE-754 bit patterns so
// values round-trip bit-exactly):
//
//   magic   "ACESOPDB"                                  8 bytes
//   u32     format version (kSnapshotFormatVersion)
//   u32     reserved (0)
//   ClusterSpec: gpu name (u32 length + bytes), gpu doubles (peak_fp16,
//     peak_fp32, hbm_bandwidth, kernel_launch, max_efficiency,
//     half_saturation), i64 memory_bytes, i32 num_nodes, i32 gpus_per_node,
//     doubles nvlink_bw, nvlink_lat, ib_bw, ib_lat
//   u64     ClusterSpec fingerprint (redundant with the spec; lets readers
//           validate without re-deriving)
//   u64     op entry count, u64 comm entry count
//   op entries   (u64 key, f64 fwd, f64 bwd) sorted by key
//   comm entries (u64 key, f64 time) sorted by key
//   u64     FNV-1a checksum of every preceding byte
//
// Entries are sorted, so two databases with equal contents produce
// byte-identical files regardless of insertion order or shard layout.

namespace {

constexpr char kSnapshotMagic[8] = {'A', 'C', 'E', 'S', 'O', 'P', 'D', 'B'};
constexpr uint32_t kSnapshotFormatVersion = 2;

class ByteWriter {
 public:
  void Raw(const void* data, size_t size) {
    buf_.append(static_cast<const char*>(data), size);
  }
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void I32(int32_t v) { Raw(&v, sizeof(v)); }
  void I64(int64_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }
  const std::string& bytes() const { return buf_; }

 private:
  std::string buf_;
};

// Bounds-checked cursor over a loaded file; every read reports whether the
// bytes were there, so truncated or lying-count files fail cleanly.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  bool Raw(void* out, size_t size) {
    if (data_.size() - pos_ < size) {
      return false;
    }
    std::memcpy(out, data_.data() + pos_, size);
    pos_ += size;
    return true;
  }
  bool U32(uint32_t* v) { return Raw(v, sizeof(*v)); }
  bool U64(uint64_t* v) { return Raw(v, sizeof(*v)); }
  bool I32(int32_t* v) { return Raw(v, sizeof(*v)); }
  bool I64(int64_t* v) { return Raw(v, sizeof(*v)); }
  bool F64(double* v) {
    uint64_t bits;
    if (!U64(&bits)) {
      return false;
    }
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }
  bool Str(std::string* s) {
    uint32_t size = 0;
    if (!U32(&size) || data_.size() - pos_ < size) {
      return false;
    }
    s->assign(data_.data() + pos_, size);
    pos_ += size;
    return true;
  }
  size_t pos() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

void WriteClusterSpec(ByteWriter& w, const ClusterSpec& c) {
  w.Str(c.gpu.name);
  w.F64(c.gpu.peak_fp16_flops);
  w.F64(c.gpu.peak_fp32_flops);
  w.F64(c.gpu.hbm_bandwidth);
  w.F64(c.gpu.kernel_launch_seconds);
  w.F64(c.gpu.max_efficiency);
  w.F64(c.gpu.half_saturation_flops);
  w.I64(c.gpu.memory_bytes);
  w.I32(c.num_nodes);
  w.I32(c.gpus_per_node);
  w.F64(c.nvlink_bandwidth);
  w.F64(c.nvlink_latency);
  w.F64(c.ib_bandwidth);
  w.F64(c.ib_latency);
}

bool ReadClusterSpec(ByteReader& r, ClusterSpec* c) {
  return r.Str(&c->gpu.name) && r.F64(&c->gpu.peak_fp16_flops) &&
         r.F64(&c->gpu.peak_fp32_flops) && r.F64(&c->gpu.hbm_bandwidth) &&
         r.F64(&c->gpu.kernel_launch_seconds) &&
         r.F64(&c->gpu.max_efficiency) &&
         r.F64(&c->gpu.half_saturation_flops) && r.I64(&c->gpu.memory_bytes) &&
         r.I32(&c->num_nodes) && r.I32(&c->gpus_per_node) &&
         r.F64(&c->nvlink_bandwidth) && r.F64(&c->nvlink_latency) &&
         r.F64(&c->ib_bandwidth) && r.F64(&c->ib_latency);
}

// A fully parsed and validated snapshot file.
struct ParsedSnapshot {
  ProfileSnapshotInfo info;
  std::vector<std::pair<uint64_t, OpMeasurement>> ops;
  std::vector<std::pair<uint64_t, double>> comms;
};

Status CorruptSnapshot(const std::string& path, const std::string& what) {
  return InvalidArgument("corrupt profile snapshot " + path + ": " + what);
}

// Reads and validates a snapshot file end to end. Validation order: magic,
// then version (before the checksum, so an old/new-format file reports a
// version mismatch rather than "corrupt"), then the whole-file checksum,
// then structure. Only a file that passes all four yields entries.
StatusOr<ParsedSnapshot> ParseSnapshotFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return NotFound("cannot open profile snapshot: " + path);
  }
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (in.bad()) {
    return Internal("read error on profile snapshot: " + path);
  }

  constexpr size_t kMinSize = sizeof(kSnapshotMagic) + 2 * sizeof(uint32_t) +
                              sizeof(uint64_t);  // header + checksum
  if (data.size() < sizeof(kSnapshotMagic) ||
      std::memcmp(data.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return InvalidArgument("not an Aceso profile snapshot (bad magic): " +
                           path);
  }
  if (data.size() < kMinSize) {
    return CorruptSnapshot(path, "truncated header");
  }

  ByteReader reader(std::string_view(data).substr(0, data.size() - 8));
  char magic[8];
  uint32_t version = 0;
  uint32_t reserved = 0;
  reader.Raw(magic, sizeof(magic));
  if (!reader.U32(&version) || !reader.U32(&reserved)) {
    return CorruptSnapshot(path, "truncated header");
  }
  if (version != kSnapshotFormatVersion) {
    return FailedPrecondition(
        "profile snapshot " + path + " has format version " +
        std::to_string(version) + "; this build reads version " +
        std::to_string(kSnapshotFormatVersion));
  }

  uint64_t stored_checksum = 0;
  std::memcpy(&stored_checksum, data.data() + data.size() - 8, 8);
  const uint64_t computed =
      FnvHashBytes(data.data(), data.size() - 8);
  if (stored_checksum != computed) {
    return CorruptSnapshot(path, "checksum mismatch (truncated or damaged)");
  }

  ParsedSnapshot parsed;
  if (!ReadClusterSpec(reader, &parsed.info.cluster) ||
      !reader.U64(&parsed.info.cluster_fingerprint) ||
      !reader.U64(&parsed.info.op_entries) ||
      !reader.U64(&parsed.info.comm_entries)) {
    return CorruptSnapshot(path, "truncated cluster header");
  }
  // Guard the counts against overflow before trusting them: each op entry is
  // 24 bytes, each comm entry 16.
  const uint64_t need = parsed.info.op_entries * 24 +
                        parsed.info.comm_entries * 16;
  if (parsed.info.op_entries > (uint64_t{1} << 32) ||
      parsed.info.comm_entries > (uint64_t{1} << 32) ||
      reader.remaining() != need) {
    return CorruptSnapshot(path, "entry counts disagree with file size");
  }
  parsed.ops.reserve(static_cast<size_t>(parsed.info.op_entries));
  for (uint64_t i = 0; i < parsed.info.op_entries; ++i) {
    uint64_t key = 0;
    OpMeasurement m;
    if (!reader.U64(&key) || !reader.F64(&m.fwd_seconds) ||
        !reader.F64(&m.bwd_seconds)) {
      return CorruptSnapshot(path, "truncated op entries");
    }
    parsed.ops.emplace_back(key, m);
  }
  parsed.comms.reserve(static_cast<size_t>(parsed.info.comm_entries));
  for (uint64_t i = 0; i < parsed.info.comm_entries; ++i) {
    uint64_t key = 0;
    double t = 0.0;
    if (!reader.U64(&key) || !reader.F64(&t)) {
      return CorruptSnapshot(path, "truncated comm entries");
    }
    parsed.comms.emplace_back(key, t);
  }
  return parsed;
}

}  // namespace

Status ProfileDatabase::Save(const std::string& path) const {
  std::vector<std::pair<uint64_t, OpMeasurement>> ops;
  std::vector<std::pair<uint64_t, double>> comms;
  for (const Shard& shard : shards_) {
    auto lock = LockShard(shard);
    ops.insert(ops.end(), shard.op_entries.begin(), shard.op_entries.end());
    comms.insert(comms.end(), shard.comm_entries.begin(),
                 shard.comm_entries.end());
  }
  // Sorted order makes the file a pure function of the contents (keys are
  // unique across shards, so the sort is a total order).
  std::sort(ops.begin(), ops.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::sort(comms.begin(), comms.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  ByteWriter w;
  w.Raw(kSnapshotMagic, sizeof(kSnapshotMagic));
  w.U32(kSnapshotFormatVersion);
  w.U32(0);  // reserved
  WriteClusterSpec(w, cluster_);
  w.U64(cluster_.Fingerprint());
  w.U64(ops.size());
  w.U64(comms.size());
  for (const auto& [key, m] : ops) {
    w.U64(key);
    w.F64(m.fwd_seconds);
    w.F64(m.bwd_seconds);
  }
  for (const auto& [key, t] : comms) {
    w.U64(key);
    w.F64(t);
  }
  const uint64_t checksum = FnvHashBytes(w.bytes().data(), w.bytes().size());

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Internal("cannot open for writing: " + path);
  }
  out.write(w.bytes().data(), static_cast<std::streamsize>(w.bytes().size()));
  out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  out.flush();
  if (!out) {
    return Internal("write error on profile snapshot: " + path);
  }
  return OkStatus();
}

StatusOr<ProfileSnapshotInfo> ProfileDatabase::ReadSnapshotHeader(
    const std::string& path) {
  auto parsed = ParseSnapshotFile(path);
  if (!parsed.ok()) {
    return parsed.status();
  }
  return parsed->info;
}

Status ProfileDatabase::Load(const std::string& path) {
  auto parsed = ParseSnapshotFile(path);
  if (!parsed.ok()) {
    return parsed.status();
  }
  const uint64_t expected = cluster_.Fingerprint();
  if (parsed->info.cluster_fingerprint != expected) {
    return FailedPrecondition(
        "profile snapshot " + path + " was profiled on cluster " +
        parsed->info.cluster.ToString() + "; this database models " +
        cluster_.ToString() + " (fingerprint mismatch)");
  }

  // Replace the shard contents with the file's. Loaded entries charge no
  // simulated profiling time: reusing a saved database is exactly how the
  // paper's workflow skips re-profiling.
  for (Shard& shard : shards_) {
    auto lock = LockShard(shard);
    shard.op_entries.clear();
    shard.comm_entries.clear();
    shard.simulated_profiling_seconds = 0.0;
  }
  for (const auto& [key, m] : parsed->ops) {
    Shard& shard = ShardFor(key);
    auto lock = LockShard(shard);
    shard.op_entries[key] = m;
  }
  for (const auto& [key, t] : parsed->comms) {
    Shard& shard = ShardFor(key);
    auto lock = LockShard(shard);
    shard.comm_entries[key] = t;
  }
  return OkStatus();
}

}  // namespace aceso
