// OpGraph's cached identity: the per-op signature vector filled as ops are
// added, and the lazily cached SemanticFingerprint, which must always equal
// a fresh O(#ops) recomputation however the graph was built, copied, moved
// or mutated.

#include "src/ir/op_graph.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/hash.h"
#include "src/ir/models/model_zoo.h"

namespace aceso {
namespace {

// The fingerprint formula, re-derived from the operators on every call.
uint64_t RecomputedFingerprint(const OpGraph& graph) {
  Hasher h;
  h.Add(static_cast<int>(graph.precision()));
  h.Add(graph.global_batch_size());
  h.Add(graph.num_ops());
  for (const Operator& op : graph.ops()) {
    Hasher per_op;
    per_op.Add(op.Signature());
    per_op.Add(static_cast<int>(op.default_tp_dim));
    h.Add(Mix64(per_op.Digest()));
  }
  return h.Digest();
}

Operator MakeOp(double flops, TpDim dim = TpDim::kColumn) {
  Operator op;
  op.name = "fc";
  op.kind = OpKind::kMlpFc1;
  op.fwd_flops = flops;
  op.param_bytes = 1024;
  op.in_bytes = 64;
  op.out_bytes = 128;
  op.max_tp = 8;
  op.tp_class = TpClass::kPartitioned;
  op.default_tp_dim = dim;
  return op;
}

OpGraph SmallGraph() {
  OpGraph graph("small", Precision::kFp16, 64);
  graph.AddOp(MakeOp(1e9));
  graph.AddOp(MakeOp(2e9, TpDim::kRow));
  return graph;
}

std::vector<std::string> ZooAndDeepNames() {
  std::vector<std::string> names = models::ZooNames();
  names.push_back("deepnet-16");
  names.push_back("deepnet-256");
  return names;
}

TEST(OpGraphIdentityTest, FingerprintTracksEveryMutation) {
  OpGraph graph("g", Precision::kFp16, 32);
  EXPECT_EQ(graph.SemanticFingerprint(), RecomputedFingerprint(graph));
  for (int i = 0; i < 5; ++i) {
    const uint64_t before = graph.SemanticFingerprint();
    graph.AddOp(MakeOp(1e9 * (i + 1)));
    EXPECT_NE(graph.SemanticFingerprint(), before) << "after AddOp " << i;
    EXPECT_EQ(graph.SemanticFingerprint(), RecomputedFingerprint(graph));
  }
  const uint64_t before = graph.SemanticFingerprint();
  graph.set_global_batch_size(128);
  EXPECT_NE(graph.SemanticFingerprint(), before);
  EXPECT_EQ(graph.SemanticFingerprint(), RecomputedFingerprint(graph));
}

TEST(OpGraphIdentityTest, CopiesAndMovesCarryTheFingerprint) {
  OpGraph original = SmallGraph();
  const uint64_t fp = original.SemanticFingerprint();  // now cached

  const OpGraph copy(original);
  EXPECT_EQ(copy.SemanticFingerprint(), fp);
  OpGraph assigned;
  assigned = original;
  EXPECT_EQ(assigned.SemanticFingerprint(), fp);

  OpGraph moved(std::move(assigned));
  EXPECT_EQ(moved.SemanticFingerprint(), fp);
  EXPECT_EQ(moved.SemanticFingerprint(), RecomputedFingerprint(moved));
  // The moved-from graph lost its ops; its fingerprint must follow.
  EXPECT_EQ(assigned.SemanticFingerprint(), RecomputedFingerprint(assigned));
  OpGraph move_assigned;
  move_assigned = std::move(moved);
  EXPECT_EQ(move_assigned.SemanticFingerprint(), fp);
  EXPECT_EQ(move_assigned.op_signatures().size(), 2u);
}

TEST(OpGraphIdentityTest, MutatingACopyLeavesTheOriginalAlone) {
  OpGraph original = SmallGraph();
  const uint64_t fp = original.SemanticFingerprint();

  OpGraph grown = original;
  grown.AddOp(MakeOp(3e9));
  EXPECT_EQ(grown.SemanticFingerprint(), RecomputedFingerprint(grown));
  EXPECT_NE(grown.SemanticFingerprint(), fp);

  OpGraph rebatched = original;
  rebatched.set_global_batch_size(256);
  EXPECT_EQ(rebatched.SemanticFingerprint(),
            RecomputedFingerprint(rebatched));
  EXPECT_NE(rebatched.SemanticFingerprint(), fp);

  EXPECT_EQ(original.SemanticFingerprint(), fp);
  EXPECT_EQ(original.SemanticFingerprint(), RecomputedFingerprint(original));
  EXPECT_EQ(original.num_ops(), 2);
}

TEST(OpGraphIdentityTest, ConcurrentFirstReadsAgree) {
  // One fresh graph shared as const: every thread races to fill the cache
  // and all must read the same value (the TSan lane checks the race).
  const OpGraph graph = *models::BuildByName("gpt3-0.35b");
  const uint64_t expected = RecomputedFingerprint(graph);
  constexpr int kThreads = 8;
  std::vector<uint64_t> seen(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&graph, &seen, t] {
      for (int rep = 0; rep < 100; ++rep) {
        seen[static_cast<size_t>(t)] = graph.SemanticFingerprint();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<size_t>(t)], expected) << "thread " << t;
  }
}

TEST(OpGraphIdentityTest, OpSignaturesMatchEveryZooOp) {
  for (const std::string& name : ZooAndDeepNames()) {
    auto graph = models::BuildByName(name);
    ASSERT_TRUE(graph.ok()) << name;
    ASSERT_EQ(graph->op_signatures().size(),
              static_cast<size_t>(graph->num_ops()))
        << name;
    for (int i = 0; i < graph->num_ops(); ++i) {
      ASSERT_EQ(graph->op_signatures()[static_cast<size_t>(i)],
                graph->op(i).Signature())
          << name << " op " << i;
    }
    EXPECT_EQ(graph->SemanticFingerprint(), RecomputedFingerprint(*graph))
        << name;
  }
}

}  // namespace
}  // namespace aceso
