#include "core/sharded_searcher.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "benchlib/datagen.h"
#include "common/parallel.h"
#include "core/mutable_searcher.h"

namespace pdx {
namespace {

Dataset MakeData(size_t dim = 24, size_t count = 2000, size_t num_queries = 8,
                 uint64_t seed = 7) {
  SyntheticSpec spec;
  spec.name = "sharded-test";
  spec.dim = dim;
  spec.count = count;
  spec.num_queries = num_queries;
  spec.num_clusters = 8;
  spec.seed = seed;
  spec.distribution = ValueDistribution::kNormal;
  return GenerateDataset(spec);
}

SearcherConfig Config(SearcherLayout layout, PrunerKind pruner,
                      size_t nprobe = 16) {
  SearcherConfig config;
  config.layout = layout;
  config.pruner = pruner;
  config.k = 10;
  config.nprobe = nprobe;
  return config;
}

void ExpectSameNeighbors(const std::vector<Neighbor>& actual,
                         const std::vector<Neighbor>& expected,
                         const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual[i].id, expected[i].id) << label << " rank " << i;
    ASSERT_FLOAT_EQ(actual[i].distance, expected[i].distance)
        << label << " rank " << i;
  }
}

/// `data` with every coordinate rounded to an integer, its first 300 rows
/// stored again after the last, and two queries that repeat rows 5 and 17.
/// Distances are then exact integer sums in any dimension order (each
/// shard's PDX-BOND means pick its own order), and candidates tie at the
/// k-th distance across shards.
Dataset WithDuplicates(const Dataset& data) {
  Dataset out;
  out.data = VectorSet(data.dim(), data.data.count() + 300);
  out.queries = VectorSet(data.dim(), data.queries.count() + 2);
  std::vector<float> row(data.dim());
  auto rounded = [&row](const float* v) {
    for (size_t d = 0; d < row.size(); ++d) row[d] = std::round(v[d]);
    return row.data();
  };
  for (VectorId i = 0; i < data.data.count(); ++i) {
    out.data.Append(rounded(data.data.Vector(i)));
  }
  for (VectorId i = 0; i < 300; ++i) out.data.Append(out.data.Vector(i));
  for (VectorId q = 0; q < data.queries.count(); ++q) {
    out.queries.Append(rounded(data.queries.Vector(q)));
  }
  out.queries.Append(out.data.Vector(5));
  out.queries.Append(out.data.Vector(17));
  return out;
}

// --- Acceptance: sharded == unsharded, flat and IVF, two exact pruners ----

TEST(ShardedSearcherTest, MatchesUnshardedExactPruners) {
  // IVF candidate generation is itself approximate and each shard builds
  // its own bucket structure, so IVF parity is asserted where both sides
  // are exhaustive: nprobe covering every bucket. Flat parity holds at the
  // paper-default knobs, and on duplicated rows: a flat search keeps the
  // lowest ids among candidates tied at the k-th distance, as the merge
  // does. Linear and PDX-BOND are the exact pruners — pruning changes work
  // done, never the accepted set.
  const Dataset plain = MakeData();
  const Dataset duplicated = WithDuplicates(plain);
  const size_t all_buckets = 1u << 20;
  for (SearcherLayout layout : {SearcherLayout::kFlat, SearcherLayout::kIvf}) {
    const Dataset& data =
        layout == SearcherLayout::kFlat ? duplicated : plain;
    for (PrunerKind pruner : {PrunerKind::kLinear, PrunerKind::kBond}) {
      SearcherConfig config = Config(layout, pruner, all_buckets);
      auto reference = MakeSearcher(data.data, config);
      ASSERT_TRUE(reference.ok());
      for (ShardAssignment assignment :
           {ShardAssignment::kContiguous, ShardAssignment::kRoundRobin}) {
        for (size_t shards : {2u, 5u}) {
          ShardingOptions sharding;
          sharding.num_shards = shards;
          sharding.assignment = assignment;
          auto sharded = MakeShardedSearcher(data.data, config, sharding);
          ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
          const std::string label =
              std::string(SearcherLayoutName(layout)) + "/" +
              PrunerKindName(pruner) + "/" + ShardAssignmentName(assignment) +
              "/" + std::to_string(shards);
          EXPECT_EQ(sharded.value()->shape().num_shards, shards) << label;
          EXPECT_EQ(sharded.value()->shape().count, data.data.count())
              << label;
          for (size_t q = 0; q < data.queries.count(); ++q) {
            ExpectSameNeighbors(
                sharded.value()->Search(data.queries.Vector(q)),
                reference.value()->Search(data.queries.Vector(q)),
                label + " query " + std::to_string(q));
          }
        }
      }
    }
  }
}

// --- SearchBatch: sequential, own pool, and caller pool all agree --------

TEST(ShardedSearcherTest, BatchMatchesSearchAcrossThreadModes) {
  Dataset data = MakeData(16, 1500, 12, 11);
  ShardingOptions sharding;
  sharding.num_shards = 3;

  SearcherConfig sequential = Config(SearcherLayout::kFlat, PrunerKind::kBond);
  auto seq = MakeShardedSearcher(data.data, sequential, sharding);
  ASSERT_TRUE(seq.ok());

  SearcherConfig own_pool = sequential;
  own_pool.threads = 4;
  auto own = MakeShardedSearcher(data.data, own_pool, sharding);
  ASSERT_TRUE(own.ok());

  ThreadPool pool(4);
  auto shared = MakeShardedSearcher(data.data, own_pool, sharding);
  ASSERT_TRUE(shared.ok());

  const size_t nq = data.queries.count();
  const uint64_t pools_before = ThreadPool::num_created();
  auto seq_batch = seq.value()->SearchBatch(data.queries.data(), nq);
  auto own_batch = own.value()->SearchBatch(data.queries.data(), nq);
  std::vector<PdxearchProfile> work(nq);
  auto shared_batch = shared.value()->SearchBatchWith(
      0, QueryKnobs{}, data.queries.data(), nq, &pool, work.data());
  // A batch on a caller pool must not build a pool of its own (the
  // sequential one spawns nothing; the own-pool one builds exactly one).
  EXPECT_EQ(ThreadPool::num_created(), pools_before + 1);

  for (size_t q = 0; q < nq; ++q) {
    const std::vector<Neighbor> expected =
        seq.value()->Search(data.queries.Vector(q));
    ExpectSameNeighbors(seq_batch[q], expected,
                        "seq batch q" + std::to_string(q));
    ExpectSameNeighbors(own_batch[q], expected,
                        "own-pool batch q" + std::to_string(q));
    ExpectSameNeighbors(shared_batch[q], expected,
                        "caller-pool batch q" + std::to_string(q));
    EXPECT_GT(work[q].values_scanned, 0u) << "caller-pool batch q" << q;
  }
}

// --- Knob-explicit batches: the serving dispatch path ---------------------

TEST(ShardedSearcherTest, SearchBatchWithMatchesBuildTimeKnobs) {
  // The replicated-dispatcher entry point: SearchBatchWith(slot, knobs)
  // must equal a searcher built with those knobs, and mutate nothing.
  Dataset data = MakeData(16, 1500, 10, 17);
  ShardingOptions sharding;
  sharding.num_shards = 3;
  ThreadPool pool(3);

  for (SearcherLayout layout : {SearcherLayout::kFlat, SearcherLayout::kIvf}) {
    SearcherConfig config = Config(layout, PrunerKind::kBond, 8);
    auto knob_explicit = MakeShardedSearcher(data.data, config, sharding);
    SearcherConfig built_config = config;
    built_config.k = 4;
    built_config.nprobe = 3;
    auto built = MakeShardedSearcher(data.data, built_config, sharding);
    ASSERT_TRUE(knob_explicit.ok());
    ASSERT_TRUE(built.ok());
    const std::string label = SearcherLayoutName(layout);

    const size_t nq = data.queries.count();
    const auto expected = built.value()->SearchBatch(data.queries.data(), nq);
    // Band base 2 * pool size: any valid band works, not just 0.
    const size_t slot = 2 * pool.num_threads();
    knob_explicit.value()->ReserveScratch(slot + pool.num_threads());
    std::vector<PdxearchProfile> work(nq);
    const auto actual = knob_explicit.value()->SearchBatchWith(
        slot, QueryKnobs{4, 3}, data.queries.data(), nq, &pool, work.data());
    for (size_t q = 0; q < nq; ++q) {
      ExpectSameNeighbors(actual[q], expected[q],
                          label + " knob-explicit q" + std::to_string(q));
      EXPECT_GT(work[q].values_scanned, 0u) << label << " q" << q;
    }
    // No mutation: the facade's configured defaults are intact.
    EXPECT_EQ(knob_explicit.value()->options().k, 10u);
    EXPECT_EQ(knob_explicit.value()->Search(data.queries.Vector(0)).size(),
              10u);
    // Every shard runs every query: at full probe (every block of a flat
    // shard, every bucket of an IVF one) each query's work record covers
    // every block of every shard.
    const SearcherShape shape = knob_explicit.value()->shape();
    (void)knob_explicit.value()->SearchBatchWith(
        slot, QueryKnobs{4, shape.max_nprobe}, data.queries.data(), nq, &pool,
        work.data());
    for (size_t q = 0; q < nq; ++q) {
      EXPECT_EQ(work[q].blocks_visited, shape.num_blocks)
          << label << " q" << q;
    }
  }
}

TEST(ShardedSearcherTest, SlotSearchKnobReachesEveryShard) {
  // Regression: a per-call k must reach every shard, not just the merge —
  // otherwise a k=25 slot search over shards built with k=10 returns 3x10
  // merged-then-truncated candidates instead of the true top-25.
  Dataset data = MakeData(16, 1500, 4, 19);
  ShardingOptions sharding;
  sharding.num_shards = 3;
  SearcherConfig config = Config(SearcherLayout::kFlat, PrunerKind::kBond);
  auto sharded = MakeShardedSearcher(data.data, config, sharding);
  auto reference = MakeSearcher(data.data, config);
  ASSERT_TRUE(sharded.ok());
  ASSERT_TRUE(reference.ok());

  sharded.value()->ReserveScratch(1);
  for (size_t q = 0; q < data.queries.count(); ++q) {
    const auto got = sharded.value()->SearchWith(0, QueryKnobs{25, 0},
                                                 data.queries.Vector(q));
    ASSERT_EQ(got.size(), 25u) << "query " << q;
    ExpectSameNeighbors(got,
                        reference.value()->SearchWith(0, QueryKnobs{25, 0},
                                                      data.queries.Vector(q)),
                        "slot k=25 q" + std::to_string(q));
  }
}

// --- Approximate pruners: the scatter-gather merge itself is exact -------

TEST(ShardedSearcherTest, ApproximatePrunerEqualsManualScatterGather) {
  Dataset data = MakeData(24, 1800, 6, 13);
  SearcherConfig config = Config(SearcherLayout::kFlat, PrunerKind::kAdsampling);
  constexpr size_t kShards = 3;
  ShardingOptions sharding;
  sharding.num_shards = kShards;
  auto sharded = MakeShardedSearcher(data.data, config, sharding);
  ASSERT_TRUE(sharded.ok());

  // Rebuild the same contiguous slices by hand and run the same per-shard
  // searchers directly: the sharded result must be exactly the (distance,
  // id)-merged union of the per-shard top-k lists, ids remapped to global.
  const size_t count = data.data.count();
  std::vector<std::vector<VectorId>> shard_ids(kShards);
  size_t begin = 0;
  for (size_t s = 0; s < kShards; ++s) {
    const size_t len = count / kShards + (s < count % kShards ? 1 : 0);
    for (size_t i = 0; i < len; ++i) {
      shard_ids[s].push_back(static_cast<VectorId>(begin + i));
    }
    begin += len;
  }
  std::vector<std::unique_ptr<Searcher>> manual;
  for (size_t s = 0; s < kShards; ++s) {
    VectorSet slice = data.data.Select(shard_ids[s]);
    auto made = MakeSearcher(slice, config);
    ASSERT_TRUE(made.ok());
    manual.push_back(std::move(made).value());
  }

  for (size_t q = 0; q < data.queries.count(); ++q) {
    std::vector<Neighbor> merged;
    for (size_t s = 0; s < kShards; ++s) {
      for (const Neighbor& n : manual[s]->Search(data.queries.Vector(q))) {
        merged.push_back({shard_ids[s][n.id], n.distance});
      }
    }
    std::sort(merged.begin(), merged.end(),
              [](const Neighbor& a, const Neighbor& b) {
                if (a.distance != b.distance) return a.distance < b.distance;
                return a.id < b.id;
              });
    if (merged.size() > config.k) merged.resize(config.k);
    ExpectSameNeighbors(sharded.value()->Search(data.queries.Vector(q)),
                        merged, "ads query " + std::to_string(q));
  }
}

// --- Per-call knobs, shape, and per-query work -----------------------------

TEST(ShardedSearcherTest, KnobsShapeAndWorkRecords) {
  Dataset data = MakeData(16, 900, 4, 17);
  ShardingOptions sharding;
  sharding.num_shards = 4;
  auto sharded = MakeShardedSearcher(
      data.data, Config(SearcherLayout::kIvf, PrunerKind::kBond), sharding);
  ASSERT_TRUE(sharded.ok());
  Searcher& s = *sharded.value();

  const SearcherShape shape = s.shape();
  EXPECT_EQ(shape.num_shards, 4u);
  EXPECT_EQ(shape.count, data.data.count());
  EXPECT_EQ(shape.quantized_bytes, 0u);
  EXPECT_EQ(shape.mapped_bytes, 0u);
  // Each shard routes through its own IVF index; the nprobe ceiling is the
  // largest shard's bucket count, well above the flat sentinel of 1.
  EXPECT_GT(shape.max_nprobe, 1u);

  // A per-call k applies through the merge truncation and the per-shard
  // searchers alike.
  EXPECT_EQ(s.SearchWith(0, QueryKnobs{3, 0}, data.queries.Vector(0)).size(),
            3u);
  EXPECT_EQ(s.SearchWith(0, QueryKnobs{25, 0}, data.queries.Vector(0)).size(),
            25u);

  // Every shard runs every query, sequentially and on the (shard x query)
  // tiling: at full probe each query's work record covers every block of
  // every shard.
  const size_t nq = data.queries.count();
  const QueryKnobs full_probe{0, shape.max_nprobe};
  ThreadPool pool(4);
  for (ThreadPool* on : {static_cast<ThreadPool*>(nullptr), &pool}) {
    std::vector<PdxearchProfile> work(nq);
    (void)s.SearchBatchWith(0, full_probe, data.queries.data(), nq, on,
                            work.data());
    for (size_t q = 0; q < nq; ++q) {
      EXPECT_EQ(work[q].blocks_visited, shape.num_blocks)
          << (on != nullptr ? "pooled" : "sequential") << " q" << q;
    }
  }

  // An unsharded facade reports the degenerate values.
  auto plain =
      MakeSearcher(data.data, Config(SearcherLayout::kFlat, PrunerKind::kBond));
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain.value()->shape().num_shards, 1u);
  EXPECT_EQ(plain.value()->shape().max_nprobe, 1u);
  EXPECT_EQ(plain.value()->shape().count, data.data.count());
}

TEST(ShardedSearcherTest, ValidatesAndClamps) {
  Dataset data = MakeData(8, 30, 2, 19);
  SearcherConfig config = Config(SearcherLayout::kFlat, PrunerKind::kLinear);

  ShardingOptions zero;
  zero.num_shards = 0;
  EXPECT_TRUE(
      MakeShardedSearcher(data.data, config, zero).status().IsInvalidArgument());
  // A live collection builds its base through the same factory, so it
  // rejects zero shards too instead of quietly building one.
  EXPECT_TRUE(MutableSearcher::Make(data.data, config, {}, zero)
                  .status()
                  .IsInvalidArgument());

  ShardingOptions bad_assignment;
  bad_assignment.num_shards = 2;
  bad_assignment.assignment = static_cast<ShardAssignment>(99);
  EXPECT_TRUE(MakeShardedSearcher(data.data, config, bad_assignment)
                  .status()
                  .IsInvalidArgument());

  SearcherConfig bad_config = config;
  bad_config.k = 0;
  ShardingOptions two;
  two.num_shards = 2;
  EXPECT_TRUE(MakeShardedSearcher(data.data, bad_config, two)
                  .status()
                  .IsInvalidArgument());

  // More shards than vectors clamps to one vector per shard.
  ShardingOptions excessive;
  excessive.num_shards = 64;
  auto clamped = MakeShardedSearcher(data.data, config, excessive);
  ASSERT_TRUE(clamped.ok());
  EXPECT_EQ(clamped.value()->shape().num_shards, data.data.count());

  // num_shards == 1 degrades to a plain searcher.
  ShardingOptions one;
  one.num_shards = 1;
  auto plain = MakeShardedSearcher(data.data, config, one);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain.value()->shape().num_shards, 1u);

  // k larger than any single shard still returns the global top-k: shards
  // contribute fewer than k candidates each and the merge fills from all.
  auto reference = MakeSearcher(data.data, config);
  ASSERT_TRUE(reference.ok());
  const QueryKnobs k20{20, 0};
  ExpectSameNeighbors(
      clamped.value()->SearchWith(0, k20, data.queries.Vector(0)),
      reference.value()->SearchWith(0, k20, data.queries.Vector(0)),
      "k beyond shard size");
}

}  // namespace
}  // namespace pdx
