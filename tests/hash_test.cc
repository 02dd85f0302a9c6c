#include "src/common/hash.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/config/parallel_config.h"
#include "src/ir/models/model_zoo.h"

namespace aceso {
namespace {

TEST(FnvHashTest, EmptyStringIsOffsetBasis) {
  EXPECT_EQ(FnvHashString(""), kFnvOffsetBasis);
}

TEST(FnvHashTest, KnownVector) {
  // FNV-1a 64-bit of "a" is a published constant.
  EXPECT_EQ(FnvHashString("a"), 0xAF63DC4C8601EC8CULL);
}

TEST(FnvHashTest, DifferentStringsDiffer) {
  EXPECT_NE(FnvHashString("abc"), FnvHashString("abd"));
  EXPECT_NE(FnvHashString("abc"), FnvHashString("acb"));
}

TEST(FnvHashTest, SeedChaining) {
  const uint64_t h1 = FnvHashString("ab");
  const uint64_t h2 = FnvHashString("b", FnvHashString("a"));
  EXPECT_EQ(h1, h2);
}

TEST(HashCombineTest, OrderDependent) {
  EXPECT_NE(HashCombine(HashCombine(0, 1), 2),
            HashCombine(HashCombine(0, 2), 1));
}

TEST(HasherTest, FieldOrderMatters) {
  Hasher a;
  a.Add(1).Add(2);
  Hasher b;
  b.Add(2).Add(1);
  EXPECT_NE(a.Digest(), b.Digest());
}

TEST(HasherTest, MixedTypes) {
  Hasher h;
  h.Add(uint64_t{7}).Add(-3).Add(true).Add(2.5).Add(std::string_view("x"));
  Hasher same;
  same.Add(uint64_t{7}).Add(-3).Add(true).Add(2.5).Add(std::string_view("x"));
  EXPECT_EQ(h.Digest(), same.Digest());
}

TEST(HasherTest, DoubleBitPatternDistinguished) {
  Hasher a;
  a.Add(0.0);
  Hasher b;
  b.Add(1.0);
  EXPECT_NE(a.Digest(), b.Digest());
}

TEST(HasherTest, ManyInputsFewCollisions) {
  std::set<uint64_t> digests;
  for (int i = 0; i < 10000; ++i) {
    Hasher h;
    h.Add(i).Add(i * 3);
    digests.insert(h.Digest());
  }
  EXPECT_EQ(digests.size(), 10000u);
}

// ----- Configuration-hash golden values -----
//
// These constants were captured from the pre-copy-on-write implementation
// (which re-walked every op on every hash). The incremental representation
// must keep producing the exact same values: semantic hashes are persisted
// implicitly through dedup behavior and stage-cost cache keys, and any
// drift would silently invalidate cross-version comparisons of search
// trajectories. If a hash-layout change is ever intentional, recapture
// these and say so loudly in the commit.
//
// The stage-cache key constants (StageSemanticHash) were recaptured once,
// when the key moved to the placement header plus Mix64 of the stage's
// cached op-word digest (O(1) per stage instead of an O(#ops) fold). Every
// SemanticHash constant is unchanged from the pre-copy-on-write capture.

TEST(ConfigHashGoldenTest, Gpt3EvenConfigMatchesPreCowValues) {
  const OpGraph graph = *models::BuildByName("gpt3-0.35b");
  const ClusterSpec cluster = ClusterSpec::WithGpuCount(16);
  const ParallelConfig config = *MakeEvenConfig(graph, cluster, 4, 1);

  EXPECT_EQ(config.SemanticHash(graph), 518114822866887510ULL);
  const uint64_t kStageKeys[4] = {4487255086251631212ULL,
                                  7204888823148746775ULL,
                                  18144691407482645134ULL,
                                  8397309475900495169ULL};
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(config.StageSemanticHash(graph, cluster, s), kStageKeys[s])
        << "stage " << s;
  }

  // A localized mutation (recompute on stage 2's first op) changes the
  // whole-config hash and stage 2's key exactly as before, and leaves the
  // other stages' keys untouched.
  ParallelConfig mutated = config;
  mutated.MutableOpSettings(mutated.stage(2).first_op).recompute = true;
  EXPECT_EQ(mutated.SemanticHash(graph), 1490011249254862671ULL);
  EXPECT_EQ(mutated.StageSemanticHash(graph, cluster, 2),
            9718856455110733956ULL);
  for (int s : {0, 1, 3}) {
    EXPECT_EQ(mutated.StageSemanticHash(graph, cluster, s), kStageKeys[s]);
  }

  ParallelConfig bigger = config;
  bigger.set_microbatch_size(4);
  EXPECT_EQ(bigger.SemanticHash(graph), 16049058280529372890ULL);

  // The parent config is unaffected by either derived mutation (CoW).
  EXPECT_EQ(config.SemanticHash(graph), 518114822866887510ULL);
}

TEST(ConfigHashGoldenTest, WresnetConfigMatchesPreCowValues) {
  const OpGraph graph = *models::BuildByName("wresnet-0.5b");
  const ClusterSpec cluster = ClusterSpec::WithGpuCount(8);
  const ParallelConfig config = *MakeEvenConfig(graph, cluster, 2, 2);
  EXPECT_EQ(config.SemanticHash(graph), 14021843154385322606ULL);
  EXPECT_EQ(config.StageSemanticHash(graph, cluster, 1),
            10520648739288700403ULL);
}

TEST(ConfigHashGoldenTest, CachedAndUncachedPathsAgree) {
  const OpGraph graph = *models::BuildByName("gpt3-0.35b");
  const ClusterSpec cluster = ClusterSpec::WithGpuCount(16);
  const ParallelConfig config = *MakeEvenConfig(graph, cluster, 4, 1);
  EXPECT_EQ(config.SemanticHash(graph), config.SemanticHashUncached(graph));
  for (int s = 0; s < config.num_stages(); ++s) {
    EXPECT_EQ(config.StageSemanticHash(graph, cluster, s),
              config.StageSemanticHashUncached(graph, cluster, s));
  }
}

}  // namespace
}  // namespace aceso
