#include "core/pruning_trace.h"

#include <gtest/gtest.h>

#include "benchlib/datagen.h"
#include "core/any_searcher.h"

namespace pdx {
namespace {

TEST(PruningTraceTest, EmptyTraceIsNeutral) {
  PruningTrace trace(8);
  EXPECT_EQ(trace.warmup_vectors(), 0u);
  EXPECT_DOUBLE_EQ(trace.AliveFraction(4), 1.0);
  EXPECT_DOUBLE_EQ(trace.ValuesAvoided(), 0.0);
}

TEST(PruningTraceTest, SingleBlockFullPruningCurve) {
  PruningTrace trace(4);
  trace.Observe(0, 100, 100);  // Block enters WARMUP with 100 vectors.
  trace.Observe(1, 50, 100);
  trace.Observe(2, 25, 100);
  trace.Observe(3, 10, 100);
  trace.Observe(4, 5, 100);

  EXPECT_EQ(trace.warmup_vectors(), 100u);
  EXPECT_DOUBLE_EQ(trace.AliveFraction(1), 0.5);
  EXPECT_DOUBLE_EQ(trace.AliveFraction(2), 0.25);
  EXPECT_DOUBLE_EQ(trace.AliveFraction(4), 0.05);

  const auto curve = trace.Curve();
  ASSERT_EQ(curve.size(), 4u);
  EXPECT_DOUBLE_EQ(curve[0], 0.5);
  EXPECT_DOUBLE_EQ(curve[3], 0.05);

  // Values needed: d1:100, d2:50, d3:25, d4:10 => scanned=185 of 400.
  EXPECT_NEAR(trace.ValuesAvoided(), 1.0 - 185.0 / 400.0, 1e-12);
}

TEST(PruningTraceTest, MultipleBlocksAccumulate) {
  PruningTrace trace(2);
  trace.Observe(0, 10, 10);
  trace.Observe(1, 4, 10);
  trace.Observe(2, 2, 10);
  trace.Observe(0, 20, 20);
  trace.Observe(1, 10, 20);
  trace.Observe(2, 5, 20);
  EXPECT_EQ(trace.warmup_vectors(), 30u);
  EXPECT_NEAR(trace.AliveFraction(1), 14.0 / 30.0, 1e-12);
  EXPECT_NEAR(trace.AliveFraction(2), 7.0 / 30.0, 1e-12);
}

TEST(PruningTraceTest, CarriesForwardUnobservedDepths) {
  PruningTrace trace(8);
  trace.Observe(0, 100, 100);
  trace.Observe(2, 40, 100);
  trace.Observe(6, 10, 100);
  EXPECT_DOUBLE_EQ(trace.AliveFraction(1), 1.0);   // Before first test.
  EXPECT_DOUBLE_EQ(trace.AliveFraction(3), 0.4);   // Carried from d=2.
  EXPECT_DOUBLE_EQ(trace.AliveFraction(7), 0.1);   // Carried from d=6.
}

TEST(PruningTraceTest, ClearResets) {
  PruningTrace trace(4);
  trace.Observe(0, 10, 10);
  trace.Observe(2, 5, 10);
  trace.Clear();
  EXPECT_EQ(trace.warmup_vectors(), 0u);
  EXPECT_DOUBLE_EQ(trace.AliveFraction(2), 1.0);
}

TEST(PruningTraceTest, IntegratesWithEngine) {
  SyntheticSpec spec;
  spec.name = "trace";
  spec.dim = 16;
  spec.count = 1500;
  spec.num_queries = 3;
  spec.seed = 5;
  spec.distribution = ValueDistribution::kSkewed;
  Dataset dataset = GenerateDataset(spec);

  PruningTrace trace(16);
  SearcherConfig config;
  config.bond_order = DimensionOrder::kDimensionZones;
  config.block_capacity = kPdxBlockSize;
  config.search.adaptive_steps = false;
  config.search.fixed_step = 1;  // Test at every dimension (Tables 2/6).
  config.search.step_observer = [&trace](size_t dims, size_t alive,
                                         size_t n) {
    trace.Observe(dims, alive, n);
  };
  auto searcher = MakeSearcher(dataset.data, config);
  ASSERT_TRUE(searcher.ok()) << searcher.status().ToString();
  searcher.value()->SearchWith(0, {10, 0}, dataset.queries.Vector(0));

  EXPECT_GT(trace.warmup_vectors(), 0u);
  const auto curve = trace.Curve();
  ASSERT_EQ(curve.size(), 16u);
  // Monotone non-increasing curve.
  for (size_t d = 1; d < curve.size(); ++d) {
    ASSERT_LE(curve[d], curve[d - 1] + 1e-12);
  }
  EXPECT_GE(trace.ValuesAvoided(), 0.0);
  EXPECT_LE(trace.ValuesAvoided(), 1.0);
}

}  // namespace
}  // namespace pdx
