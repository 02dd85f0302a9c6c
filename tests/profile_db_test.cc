#include "src/profile/profile_db.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "src/common/units.h"

namespace aceso {
namespace {

Operator MakeMatmul() {
  Operator op;
  op.name = "fc";
  op.kind = OpKind::kMlpFc1;
  op.fwd_flops = 2.0 * 2048 * 1024 * 4096;
  op.param_bytes = int64_t{1024} * 4096 * 2;
  op.in_bytes = int64_t{2048} * 1024 * 2;
  op.out_bytes = int64_t{2048} * 4096 * 2;
  op.max_tp = 16;
  op.tp_class = TpClass::kPartitioned;
  return op;
}

class ProfileDbTest : public ::testing::Test {
 protected:
  ClusterSpec cluster_ = ClusterSpec::WithGpuCount(8);
  ProfileDatabase db_{cluster_, /*seed=*/42};
};

TEST_F(ProfileDbTest, MeasurementsArePositive) {
  const OpMeasurement m = db_.OpTime(MakeMatmul(), Precision::kFp16, 1, 1);
  EXPECT_GT(m.fwd_seconds, 0.0);
  EXPECT_GT(m.bwd_seconds, 0.0);
}

TEST_F(ProfileDbTest, BackwardCostsMoreThanForward) {
  const OpMeasurement m = db_.OpTime(MakeMatmul(), Precision::kFp16, 1, 4);
  EXPECT_GT(m.bwd_seconds, m.fwd_seconds);
}

TEST_F(ProfileDbTest, MemoizationReturnsIdenticalValues) {
  const Operator op = MakeMatmul();
  const OpMeasurement a = db_.OpTime(op, Precision::kFp16, 2, 4);
  const OpMeasurement b = db_.OpTime(op, Precision::kFp16, 2, 4);
  EXPECT_DOUBLE_EQ(a.fwd_seconds, b.fwd_seconds);
  EXPECT_EQ(db_.NumEntries(), 1u);
}

TEST_F(ProfileDbTest, ShardingReducesTimeSublinearly) {
  const Operator op = MakeMatmul();
  const double whole = db_.OpTime(op, Precision::kFp16, 1, 8).fwd_seconds;
  const double shard8 = db_.OpTime(op, Precision::kFp16, 8, 8).fwd_seconds;
  EXPECT_LT(shard8, whole);
  EXPECT_GT(shard8, whole / 8.0);  // efficiency loss, the tp trade-off
}

TEST_F(ProfileDbTest, LargerBatchImprovesEfficiency) {
  const Operator op = MakeMatmul();
  const double b1 = db_.OpTime(op, Precision::kFp16, 1, 1).fwd_seconds;
  const double b8 = db_.OpTime(op, Precision::kFp16, 1, 8).fwd_seconds;
  EXPECT_LT(b8, 8.0 * b1);  // sublinear growth
  EXPECT_GT(b8, b1);
}

TEST_F(ProfileDbTest, DeterministicAcrossInstancesWithSameSeed) {
  ProfileDatabase other(cluster_, /*seed=*/42);
  const Operator op = MakeMatmul();
  EXPECT_DOUBLE_EQ(db_.OpTime(op, Precision::kFp16, 4, 2).fwd_seconds,
                   other.OpTime(op, Precision::kFp16, 4, 2).fwd_seconds);
}

TEST_F(ProfileDbTest, SeedChangesMeasurements) {
  ProfileDatabase other(cluster_, /*seed=*/43);
  const Operator op = MakeMatmul();
  EXPECT_NE(db_.OpTime(op, Precision::kFp16, 4, 2).fwd_seconds,
            other.OpTime(op, Precision::kFp16, 4, 2).fwd_seconds);
}

TEST_F(ProfileDbTest, MeasurementNearAnalyticTime) {
  // Averaged jittered runs stay within the systematic-bias envelope (±5%)
  // of the analytic hardware model.
  const Operator op = MakeMatmul();
  const OpMeasurement m = db_.OpTime(op, Precision::kFp16, 1, 1);
  const double ideal = cluster_.gpu.ComputeTime(
      op.fwd_flops, op.in_bytes + op.out_bytes + op.param_bytes,
      Precision::kFp16);
  EXPECT_NEAR(m.fwd_seconds, ideal, ideal * 0.08);
}

TEST_F(ProfileDbTest, CollectiveTimeInterpolatesBetweenBuckets) {
  const CommDomain domain{4, false};
  const int64_t low = 1 << 20;
  const int64_t high = 1 << 21;
  const double t_low =
      db_.CollectiveTime(CollectiveKind::kAllReduce, low, domain);
  const double t_mid = db_.CollectiveTime(CollectiveKind::kAllReduce,
                                          low + low / 2, domain);
  const double t_high =
      db_.CollectiveTime(CollectiveKind::kAllReduce, high, domain);
  EXPECT_GT(t_mid, t_low);
  EXPECT_LT(t_mid, t_high);
}

TEST_F(ProfileDbTest, CollectiveSingletonFree) {
  EXPECT_EQ(db_.CollectiveTime(CollectiveKind::kAllReduce, kMiB,
                               CommDomain{1, false}),
            0.0);
}

TEST_F(ProfileDbTest, ProfilingOverheadAccumulates) {
  EXPECT_EQ(db_.SimulatedProfilingSeconds(), 0.0);
  db_.OpTime(MakeMatmul(), Precision::kFp16, 1, 1);
  const double after_one = db_.SimulatedProfilingSeconds();
  EXPECT_GT(after_one, 0.0);
  // A cache hit adds nothing.
  db_.OpTime(MakeMatmul(), Precision::kFp16, 1, 1);
  EXPECT_DOUBLE_EQ(db_.SimulatedProfilingSeconds(), after_one);
}

TEST_F(ProfileDbTest, SaveLoadRoundTrip) {
  const Operator op = MakeMatmul();
  const OpMeasurement m = db_.OpTime(op, Precision::kFp16, 2, 4);
  db_.CollectiveTime(CollectiveKind::kAllReduce, kMiB, CommDomain{4, false});
  const std::string path = ::testing::TempDir() + "/profile_db_test.txt";
  ASSERT_TRUE(db_.Save(path).ok());

  ProfileDatabase loaded(cluster_, /*seed=*/999);  // different seed
  ASSERT_TRUE(loaded.Load(path).ok());
  // The loaded database returns the *stored* measurement, not a fresh
  // (different-seed) one.
  EXPECT_DOUBLE_EQ(loaded.OpTime(op, Precision::kFp16, 2, 4).fwd_seconds,
                   m.fwd_seconds);
  std::remove(path.c_str());
}

TEST_F(ProfileDbTest, ConcurrentAccessIsSafe) {
  const Operator op = MakeMatmul();
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([this, &op, t] {
      for (int i = 0; i < 200; ++i) {
        db_.OpTime(op, Precision::kFp16, 1 << (i % 4), 1 + t % 3);
        db_.CollectiveTime(CollectiveKind::kAllGather, (i + 1) * 1000,
                           CommDomain{2 + t % 4, false});
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_GT(db_.NumEntries(), 0u);
}

TEST_F(ProfileDbTest, ConcurrentFillersPublishOneDeterministicValue) {
  // Many threads racing to fill the *same* cold keys: the double-checked
  // first-writer-wins insert may measure a key several times, but exactly
  // one value is published, and (measurements being deterministic per key)
  // it equals what a serial fill produces.
  const Operator op = MakeMatmul();
  ProfileDatabase serial{cluster_, /*seed=*/42};
  std::vector<OpMeasurement> expected;
  for (int d = 0; d < 4; ++d) {
    expected.push_back(serial.OpTime(op, Precision::kFp16, 1 << d, 2));
  }

  std::vector<std::thread> threads;
  std::vector<std::vector<OpMeasurement>> seen(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([this, &op, &seen, t] {
      for (int rep = 0; rep < 50; ++rep) {
        for (int d = 0; d < 4; ++d) {
          seen[static_cast<size_t>(t)].push_back(
              db_.OpTime(op, Precision::kFp16, 1 << d, 2));
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (const auto& per_thread : seen) {
    ASSERT_EQ(per_thread.size(), 200u);
    for (size_t i = 0; i < per_thread.size(); ++i) {
      EXPECT_EQ(per_thread[i].fwd_seconds, expected[i % 4].fwd_seconds);
      EXPECT_EQ(per_thread[i].bwd_seconds, expected[i % 4].bwd_seconds);
    }
  }
  // First-writer-wins: redundant measurements were discarded, so the
  // entry count (and the profiling-overhead ledger, which only the winning
  // inserter updates) matches the serial fill.
  EXPECT_EQ(db_.NumEntries(), serial.NumEntries());
  EXPECT_EQ(db_.SimulatedProfilingSeconds(),
            serial.SimulatedProfilingSeconds());
}

TEST_F(ProfileDbTest, StatsCountLookupsAndMisses) {
  const Operator op = MakeMatmul();
  const ProfileDbStats before = db_.stats();
  db_.OpTime(op, Precision::kFp16, 1, 2);  // cold: lookup + miss
  db_.OpTime(op, Precision::kFp16, 1, 2);  // warm: lookup only
  const ProfileDbStats delta = db_.stats() - before;
  EXPECT_EQ(delta.lookups, 2);
  EXPECT_EQ(delta.misses, 1);
  EXPECT_GE(delta.lock_contended, 0);
}

TEST_F(ProfileDbTest, LoadReplacesMeasuredEntries) {
  const Operator op = MakeMatmul();
  // A different-seed database measures the same key and saves it.
  ProfileDatabase other(cluster_, /*seed=*/999);
  const OpMeasurement theirs = other.OpTime(op, Precision::kFp16, 2, 4);
  const std::string path = ::testing::TempDir() + "/profile_db_load_test.txt";
  ASSERT_TRUE(other.Save(path).ok());

  // Measure the key here first, then overwrite the entry via Load: the
  // earlier value must not survive the reload.
  const OpMeasurement ours = db_.OpTime(op, Precision::kFp16, 2, 4);
  ASSERT_NE(ours.fwd_seconds, theirs.fwd_seconds);
  ASSERT_TRUE(db_.Load(path).ok());
  EXPECT_DOUBLE_EQ(db_.OpTime(op, Precision::kFp16, 2, 4).fwd_seconds,
                   theirs.fwd_seconds);
  std::remove(path.c_str());
}

TEST_F(ProfileDbTest, ConcurrentLookupsMatchSerialReference) {
  // Eight threads fill and re-read the same entry population while other
  // threads are mid-lookup. Every observed value must equal a reference
  // database filled on one thread, and the shared database must end with
  // the same entries.
  const Operator op = MakeMatmul();
  ProfileDatabase serial{cluster_, /*seed=*/42};
  std::vector<OpMeasurement> expected;
  for (int b = 1; b <= 80; ++b) {
    expected.push_back(serial.OpTime(op, Precision::kFp16, 1 + b % 4, b));
  }

  std::vector<std::thread> threads;
  std::vector<int> mismatches(8, 0);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([this, &op, &expected, &mismatches, t] {
      for (int rep = 0; rep < 25; ++rep) {
        for (int b = 1; b <= 80; ++b) {
          const OpMeasurement m =
              db_.OpTime(op, Precision::kFp16, 1 + b % 4, b);
          const OpMeasurement& want = expected[static_cast<size_t>(b - 1)];
          if (m.fwd_seconds != want.fwd_seconds ||
              m.bwd_seconds != want.bwd_seconds) {
            ++mismatches[static_cast<size_t>(t)];
          }
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < 8; ++t) {
    EXPECT_EQ(mismatches[static_cast<size_t>(t)], 0) << "thread " << t;
  }
  EXPECT_EQ(db_.NumEntries(), serial.NumEntries());
}

// ---- versioned binary snapshot files (DESIGN.md §14) ----

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// Fills a database with a representative mix of op and collective entries.
void FillDb(ProfileDatabase& db) {
  const Operator op = MakeMatmul();
  for (int tp = 1; tp <= 4; tp *= 2) {
    for (int batch = 1; batch <= 8; batch *= 2) {
      db.OpTime(op, Precision::kFp16, tp, batch);
      db.OpTime(op, Precision::kFp32, tp, batch);
    }
  }
  db.CollectiveTime(CollectiveKind::kAllReduce, kMiB, CommDomain{4, false});
  db.CollectiveTime(CollectiveKind::kAllGather, 3 * kMiB, CommDomain{2, true});
}

TEST_F(ProfileDbTest, SnapshotFileRoundTripIsBitIdentical) {
  FillDb(db_);
  const std::string path = ::testing::TempDir() + "/snap_roundtrip.apdb";
  ASSERT_TRUE(db_.Save(path).ok());

  ProfileDatabase loaded(cluster_, /*seed=*/999);
  ASSERT_TRUE(loaded.Load(path).ok());
  EXPECT_EQ(loaded.NumEntries(), db_.NumEntries());
  // Loaded entries charge no simulated profiling time: the warm-start story
  // is that a snapshot-started service skips profiling entirely.
  EXPECT_EQ(loaded.SimulatedProfilingSeconds(), 0.0);

  // Every stored measurement reads back bit-exactly (operator== on doubles
  // is the bit check here — the values are IEEE-754 round trips).
  const Operator op = MakeMatmul();
  for (int tp = 1; tp <= 4; tp *= 2) {
    for (int batch = 1; batch <= 8; batch *= 2) {
      const OpMeasurement ours = db_.OpTime(op, Precision::kFp16, tp, batch);
      const OpMeasurement theirs =
          loaded.OpTime(op, Precision::kFp16, tp, batch);
      EXPECT_EQ(ours.fwd_seconds, theirs.fwd_seconds);
      EXPECT_EQ(ours.bwd_seconds, theirs.bwd_seconds);
    }
  }

  // Saving the loaded database reproduces the file byte for byte (entries
  // are sorted before writing, so equal contents mean equal files).
  const std::string path2 = ::testing::TempDir() + "/snap_roundtrip2.apdb";
  ASSERT_TRUE(loaded.Save(path2).ok());
  EXPECT_EQ(ReadFileBytes(path), ReadFileBytes(path2));
  std::remove(path.c_str());
  std::remove(path2.c_str());
}

TEST_F(ProfileDbTest, ReadSnapshotHeaderReportsContents) {
  FillDb(db_);
  const std::string path = ::testing::TempDir() + "/snap_header.apdb";
  ASSERT_TRUE(db_.Save(path).ok());

  auto info = ProfileDatabase::ReadSnapshotHeader(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->cluster_fingerprint, cluster_.Fingerprint());
  EXPECT_EQ(info->op_entries + info->comm_entries, db_.NumEntries());
  // Two collective lookups, but the off-bucket one interpolates between two
  // bucket entries.
  EXPECT_GE(info->comm_entries, 2u);
  EXPECT_GT(info->op_entries, info->comm_entries);
  std::remove(path.c_str());
}

TEST_F(ProfileDbTest, LoadMissingFileIsNotFound) {
  const Status s =
      db_.Load(::testing::TempDir() + "/no_such_snapshot.apdb");
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST_F(ProfileDbTest, LoadRejectsBadMagic) {
  const std::string path = ::testing::TempDir() + "/snap_magic.apdb";
  WriteFileBytes(path, "definitely not an aceso snapshot file contents");
  const Status s = db_.Load(path);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("bad magic"), std::string::npos)
      << s.ToString();
  std::remove(path.c_str());
}

TEST_F(ProfileDbTest, LoadRejectsTruncatedFile) {
  FillDb(db_);
  const std::string path = ::testing::TempDir() + "/snap_trunc.apdb";
  ASSERT_TRUE(db_.Save(path).ok());
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 40u);
  WriteFileBytes(path, bytes.substr(0, bytes.size() - 21));

  const size_t before = db_.NumEntries();
  const Status s = db_.Load(path);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  // A refused load leaves the database untouched.
  EXPECT_EQ(db_.NumEntries(), before);
  std::remove(path.c_str());
}

TEST_F(ProfileDbTest, LoadRejectsCorruptedByte) {
  FillDb(db_);
  const std::string path = ::testing::TempDir() + "/snap_corrupt.apdb";
  ASSERT_TRUE(db_.Save(path).ok());
  std::string bytes = ReadFileBytes(path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  WriteFileBytes(path, bytes);

  const Status s = db_.Load(path);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("checksum"), std::string::npos) << s.ToString();
  std::remove(path.c_str());
}

TEST_F(ProfileDbTest, LoadRejectsVersionMismatch) {
  FillDb(db_);
  const std::string path = ::testing::TempDir() + "/snap_version.apdb";
  ASSERT_TRUE(db_.Save(path).ok());
  std::string bytes = ReadFileBytes(path);
  // The u32 version follows the 8-byte magic (little-endian); bump it. The
  // version check runs before the checksum check, so this reports a version
  // mismatch, not corruption.
  bytes[8] = static_cast<char>(bytes[8] + 1);
  WriteFileBytes(path, bytes);

  const Status s = db_.Load(path);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(s.message().find("version"), std::string::npos) << s.ToString();
  std::remove(path.c_str());
}

TEST_F(ProfileDbTest, LoadRejectsClusterMismatch) {
  FillDb(db_);
  const std::string path = ::testing::TempDir() + "/snap_cluster.apdb";
  ASSERT_TRUE(db_.Save(path).ok());

  const ClusterSpec other_cluster = ClusterSpec::WithGpuCount(4);
  ProfileDatabase other(other_cluster, /*seed=*/42);
  const Status s = other.Load(path);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  // ReadSnapshotHeader still works from the mismatched side: the caller can
  // say which cluster the file was profiled on.
  auto info = ProfileDatabase::ReadSnapshotHeader(path);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->cluster_fingerprint, cluster_.Fingerprint());
  EXPECT_NE(info->cluster_fingerprint, other_cluster.Fingerprint());
  std::remove(path.c_str());
}

TEST_F(ProfileDbTest, LoadedDatabaseMeasuresNothing) {
  FillDb(db_);
  const std::string path = ::testing::TempDir() + "/snap_reads.apdb";
  ASSERT_TRUE(db_.Save(path).ok());

  ProfileDatabase loaded(cluster_, /*seed=*/999);
  ASSERT_TRUE(loaded.Load(path).ok());
  // Repeating the saved lookups takes zero misses (no re-measurement) on
  // the loaded database.
  const ProfileDbStats before = loaded.stats();
  FillDb(loaded);
  const ProfileDbStats delta = loaded.stats() - before;
  EXPECT_EQ(delta.misses, 0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace aceso
