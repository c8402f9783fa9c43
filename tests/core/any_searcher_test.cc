#include "core/any_searcher.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "benchlib/datagen.h"
#include "benchlib/recall.h"
#include "pruning/adsampling.h"
#include "pruning/bsa.h"
#include "pruning/pdx_bond.h"
#include "storage/block_stats.h"

namespace pdx {
namespace {

struct Fixture {
  Dataset dataset;
  IvfIndex index;
};

Fixture MakeFixture(size_t dim = 24, uint64_t seed = 71) {
  SyntheticSpec spec;
  spec.name = "any-searcher-test";
  spec.dim = dim;
  spec.count = 2000;
  spec.num_queries = 10;
  spec.num_clusters = 8;
  spec.seed = seed;
  spec.distribution = ValueDistribution::kNormal;
  Fixture fx{GenerateDataset(spec), {}};
  fx.index = IvfIndex::Build(fx.dataset.data, {});
  return fx;
}

void ExpectSameNeighbors(const std::vector<Neighbor>& actual,
                         const std::vector<Neighbor>& expected,
                         const char* label, size_t query) {
  ASSERT_EQ(actual.size(), expected.size()) << label << " query " << query;
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual[i].id, expected[i].id)
        << label << " query " << query << " rank " << i;
    ASSERT_FLOAT_EQ(actual[i].distance, expected[i].distance)
        << label << " query " << query << " rank " << i;
  }
}

SearcherConfig IvfConfig(PrunerKind pruner, size_t nprobe) {
  SearcherConfig config;
  config.layout = SearcherLayout::kIvf;
  config.pruner = pruner;
  config.k = 10;
  config.nprobe = nprobe;
  return config;
}

// The facade must be byte-for-byte the PDXearch engine it wraps: the
// reference below packs the store and builds the pruner by hand, the way
// the paper describes each competitor, and drives a PdxearchEngine over
// them without going through MakeSearcher — so ids AND distances must
// match exactly for every layout x pruner combination.

using DirectSearch = std::function<std::vector<Neighbor>(const float*)>;

template <typename P>
struct DirectEngine {
  DirectEngine(PdxStore s, P p) : store(std::move(s)), pruner(std::move(p)) {
    pruner.BuildAux(store);
  }
  PdxStore store;
  P pruner;
  PdxearchEngine<P> engine{&store, &pruner};
};

/// k = 10 through a hand-built engine: IVF over `index` when non-null.
template <typename P>
DirectSearch Direct(PdxStore store, P pruner, const IvfIndex* index,
                    size_t nprobe) {
  auto direct =
      std::make_shared<DirectEngine<P>>(std::move(store), std::move(pruner));
  return [direct, index, nprobe](const float* query) {
    return index != nullptr
               ? direct->engine.SearchIvf(*index, query, 10, nprobe)
               : direct->engine.SearchFlat(query, 10);
  };
}

/// The four references with the paper's defaults (ADSampling epsilon0 2.1
/// and seed 42, exact BSA with 4096 fit samples, PDX-BOND dimension zones
/// of 16 on IVF's 64-vector blocks and distance-to-means on flat's 10K
/// partitions, register-sized blocks elsewhere).
std::vector<std::pair<PrunerKind, DirectSearch>> DirectRoster(
    const VectorSet& data, const IvfIndex* index, size_t nprobe) {
  auto pack = [&](const VectorSet& rows, size_t capacity) {
    return index != nullptr
               ? PdxStore::FromGroups(rows, index->buckets(), capacity)
               : PdxStore::FromVectorSet(rows, capacity);
  };
  std::vector<std::pair<PrunerKind, DirectSearch>> roster;
  AdSamplingPruner ads(data.dim(), 2.1f, 42);
  PdxStore ads_store = pack(ads.TransformCollection(data), kPdxBlockSize);
  roster.emplace_back(PrunerKind::kAdsampling,
                      Direct(std::move(ads_store), std::move(ads), index,
                             nprobe));
  BsaPruner bsa(data, 1.0f, 4096);
  PdxStore bsa_store = pack(bsa.TransformCollection(data), kPdxBlockSize);
  roster.emplace_back(PrunerKind::kBsa, Direct(std::move(bsa_store),
                                               std::move(bsa), index, nprobe));
  PdxStore bond_store = pack(
      data, index != nullptr ? kPdxBlockSize : kExactSearchBlockCapacity);
  PdxBondPruner bond(ComputeStats(data.data(), data.count(), data.dim()).means,
                     index != nullptr ? DimensionOrder::kDimensionZones
                                      : DimensionOrder::kDistanceToMeans,
                     16);
  roster.emplace_back(PrunerKind::kBond, Direct(std::move(bond_store),
                                                std::move(bond), index,
                                                nprobe));
  roster.emplace_back(PrunerKind::kLinear,
                      Direct(pack(data, kPdxBlockSize), NoPruner{}, index,
                             nprobe));
  return roster;
}

TEST(AnySearcherTest, IvfParityWithDirectFactories) {
  Fixture fx = MakeFixture();
  const size_t nprobe = 4;

  for (const auto& [pruner, direct] :
       DirectRoster(fx.dataset.data, &fx.index, nprobe)) {
    auto made = MakeSearcher(fx.dataset.data, fx.index,
                             IvfConfig(pruner, nprobe));
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    auto& facade = *made.value();
    // Routed through the caller's index: its buckets are the nprobe
    // ceiling, and the answers match the direct search over that index.
    EXPECT_EQ(facade.shape().max_nprobe, fx.index.num_buckets());
    EXPECT_EQ(facade.dim(), fx.dataset.dim());
    for (size_t q = 0; q < fx.dataset.queries.count(); ++q) {
      const float* query = fx.dataset.queries.Vector(q);
      ExpectSameNeighbors(facade.Search(query), direct(query),
                          PrunerKindName(pruner), q);
    }
  }
}

TEST(AnySearcherTest, FlatParityWithDirectFactories) {
  Fixture fx = MakeFixture(20, 72);

  for (const auto& [pruner, direct] :
       DirectRoster(fx.dataset.data, nullptr, 0)) {
    SearcherConfig config;
    config.layout = SearcherLayout::kFlat;
    config.pruner = pruner;
    config.k = 10;
    auto made = MakeSearcher(fx.dataset.data, config);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    auto& facade = *made.value();
    EXPECT_EQ(facade.shape().max_nprobe, 1u);
    for (size_t q = 0; q < fx.dataset.queries.count(); ++q) {
      const float* query = fx.dataset.queries.Vector(q);
      ExpectSameNeighbors(facade.Search(query), direct(query),
                          PrunerKindName(pruner), q);
    }
  }
}

TEST(AnySearcherTest, FlatDefaultsMatchPaperBondSetup) {
  Fixture fx = MakeFixture(16, 73);
  auto made = MakeSearcher(fx.dataset.data, {});
  ASSERT_TRUE(made.ok());
  // Flat PDX-BOND resolves to the paper's 10K-vector exact-search
  // partitions: 2000 vectors -> one block.
  EXPECT_EQ(made.value()->options().block_capacity,
            kExactSearchBlockCapacity);
  EXPECT_EQ(made.value()->shape().num_blocks, 1u);
}

TEST(AnySearcherTest, OwnedIndexPathReachesFullRecall) {
  Fixture fx = MakeFixture(24, 74);
  SearcherConfig config = IvfConfig(PrunerKind::kBond, 64);
  // No external index: the factory builds and owns one.
  auto made = MakeSearcher(fx.dataset.data, config);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  auto& searcher = *made.value();
  ASSERT_GT(searcher.shape().max_nprobe, 1u);
  const QueryKnobs full_probe{0, searcher.shape().max_nprobe};

  const auto truth =
      ComputeGroundTruth(fx.dataset.data, fx.dataset.queries, 10, Metric::kL2);
  double sum = 0.0;
  for (size_t q = 0; q < fx.dataset.queries.count(); ++q) {
    sum += RecallAtK(
        searcher.SearchWith(0, full_probe, fx.dataset.queries.Vector(q)),
        truth[q], 10);
  }
  // Full probe + exact pruner == exact search.
  EXPECT_DOUBLE_EQ(sum / fx.dataset.queries.count(), 1.0);
}

TEST(AnySearcherTest, BatchMatchesSequentialAcrossThreadCounts) {
  Fixture fx = MakeFixture(24, 75);
  for (PrunerKind pruner :
       {PrunerKind::kAdsampling, PrunerKind::kBsa, PrunerKind::kBond,
        PrunerKind::kLinear}) {
    auto made =
        MakeSearcher(fx.dataset.data, fx.index, IvfConfig(pruner, 4));
    ASSERT_TRUE(made.ok());
    auto& searcher = *made.value();

    std::vector<std::vector<Neighbor>> expected;
    for (size_t q = 0; q < fx.dataset.queries.count(); ++q) {
      expected.push_back(searcher.Search(fx.dataset.queries.Vector(q)));
    }
    for (size_t threads : {1u, 2u, 4u, 7u}) {
      searcher.set_threads(threads);
      const auto batch = searcher.SearchBatch(fx.dataset.queries.data(),
                                              fx.dataset.queries.count());
      ASSERT_EQ(batch.size(), expected.size());
      for (size_t q = 0; q < batch.size(); ++q) {
        ExpectSameNeighbors(batch[q], expected[q], PrunerKindName(pruner), q);
      }
    }
  }
}

TEST(AnySearcherTest, FlatBatchMatchesSequential) {
  Fixture fx = MakeFixture(20, 76);
  SearcherConfig config;
  config.pruner = PrunerKind::kBond;
  config.threads = 3;
  auto made = MakeSearcher(fx.dataset.data, config);
  ASSERT_TRUE(made.ok());
  auto& searcher = *made.value();
  const auto batch = searcher.SearchBatch(fx.dataset.queries.data(),
                                          fx.dataset.queries.count());
  for (size_t q = 0; q < fx.dataset.queries.count(); ++q) {
    ExpectSameNeighbors(batch[q],
                        searcher.Search(fx.dataset.queries.Vector(q)), "bond",
                        q);
  }
}

TEST(AnySearcherTest, CallerPoolIsSharedAcrossSearchers) {
  Fixture fx = MakeFixture(24, 86);
  ThreadPool pool(3);

  SearcherConfig config = IvfConfig(PrunerKind::kBond, 4);
  auto a = MakeSearcher(fx.dataset.data, fx.index, config);
  config.pruner = PrunerKind::kLinear;
  auto b = MakeSearcher(fx.dataset.data, fx.index, config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  std::vector<std::vector<Neighbor>> expected_a, expected_b;
  for (size_t q = 0; q < fx.dataset.queries.count(); ++q) {
    expected_a.push_back(a.value()->Search(fx.dataset.queries.Vector(q)));
    expected_b.push_back(b.value()->Search(fx.dataset.queries.Vector(q)));
  }

  // Batches on both searchers must run on `pool` — no private pool may be
  // constructed on the query path — and still return the sequential
  // results exactly.
  const size_t nq = fx.dataset.queries.count();
  const uint64_t pools_before = ThreadPool::num_created();
  const auto batch_a = a.value()->SearchBatchWith(
      0, QueryKnobs{}, fx.dataset.queries.data(), nq, &pool);
  const auto batch_b = b.value()->SearchBatchWith(
      0, QueryKnobs{}, fx.dataset.queries.data(), nq, &pool);
  EXPECT_EQ(ThreadPool::num_created(), pools_before);
  for (size_t q = 0; q < nq; ++q) {
    ExpectSameNeighbors(batch_a[q], expected_a[q], "caller-pool bond", q);
    ExpectSameNeighbors(batch_b[q], expected_b[q], "caller-pool linear", q);
  }
}

TEST(AnySearcherTest, SequentialBatchesBuildNoPool) {
  // Paper methodology: threads = 1 keeps SearchBatch sequential, and a
  // SearchBatchWith without a pool runs on its slot alone.
  Fixture fx = MakeFixture(16, 87);
  SearcherConfig config = IvfConfig(PrunerKind::kBond, 4);
  config.threads = 1;
  auto made = MakeSearcher(fx.dataset.data, fx.index, config);
  ASSERT_TRUE(made.ok());
  const size_t nq = fx.dataset.queries.count();
  const uint64_t pools_before = ThreadPool::num_created();
  const auto batch = made.value()->SearchBatch(fx.dataset.queries.data(), nq);
  const auto with = made.value()->SearchBatchWith(
      0, QueryKnobs{}, fx.dataset.queries.data(), nq);
  EXPECT_EQ(ThreadPool::num_created(), pools_before);
  for (size_t q = 0; q < nq; ++q) {
    const auto single = made.value()->Search(fx.dataset.queries.Vector(q));
    ExpectSameNeighbors(batch[q], single, "sequential SearchBatch", q);
    ExpectSameNeighbors(with[q], single, "sequential SearchBatchWith", q);
  }
}

TEST(AnySearcherTest, RejectsAbsurdThreadCounts) {
  Fixture fx = MakeFixture(16, 89);
  SearcherConfig config;
  config.threads = kMaxPoolThreads + 1;
  const auto made = MakeSearcher(fx.dataset.data, config);
  ASSERT_FALSE(made.ok());
  EXPECT_TRUE(made.status().IsInvalidArgument());
  // The ceiling itself (and 0 = hardware) stay legal.
  config.threads = kMaxPoolThreads;
  EXPECT_TRUE(ValidateSearcherConfig(config).ok());
  config.threads = 0;
  EXPECT_TRUE(ValidateSearcherConfig(config).ok());
}

TEST(AnySearcherTest, PerQueryWorkRecordsAggregate) {
  Fixture fx = MakeFixture(16, 77);
  ThreadPool pool(2);
  auto made =
      MakeSearcher(fx.dataset.data, fx.index, IvfConfig(PrunerKind::kBond, 4));
  ASSERT_TRUE(made.ok());
  auto& searcher = *made.value();
  const size_t nq = fx.dataset.queries.count();
  std::vector<PdxearchProfile> work(nq);
  searcher.SearchBatchWith(0, QueryKnobs{}, fx.dataset.queries.data(), nq,
                           &pool, work.data());
  PdxearchProfile sum;
  for (const PdxearchProfile& w : work) {
    EXPECT_GT(w.values_total, 0u);
    sum += w;
  }
  EXPECT_GT(sum.values_total, 0u);
  EXPECT_LE(sum.values_scanned, sum.values_total);
  EXPECT_EQ(sum.values_avoided(), sum.values_total - sum.values_scanned);
  EXPECT_GE(sum.pruning_power(), 0.0);
}

// --- Knob-explicit concurrent entry points --------------------------------

TEST(AnySearcherTest, SearchBatchWithMatchesBuildTimeKnobs) {
  // Per-call knobs must reproduce a searcher built with those knobs
  // exactly, for every pruner on both layouts.
  Fixture fx = MakeFixture();
  const size_t nq = fx.dataset.queries.count();
  ThreadPool pool(2);
  for (SearcherLayout layout : {SearcherLayout::kFlat, SearcherLayout::kIvf}) {
    for (PrunerKind pruner :
         {PrunerKind::kLinear, PrunerKind::kAdsampling, PrunerKind::kBsa,
          PrunerKind::kBond}) {
      SearcherConfig config = IvfConfig(pruner, 4);
      config.layout = layout;
      config.threads = 2;
      auto knob_explicit =
          layout == SearcherLayout::kIvf
              ? MakeSearcher(fx.dataset.data, fx.index, config)
              : MakeSearcher(fx.dataset.data, config);
      SearcherConfig built_config = config;
      built_config.k = 5;
      built_config.nprobe = 7;
      auto built = layout == SearcherLayout::kIvf
                       ? MakeSearcher(fx.dataset.data, fx.index, built_config)
                       : MakeSearcher(fx.dataset.data, built_config);
      ASSERT_TRUE(knob_explicit.ok());
      ASSERT_TRUE(built.ok());
      const char* label = PrunerKindName(pruner);

      const auto expected =
          built.value()->SearchBatch(fx.dataset.queries.data(), nq);
      std::vector<PdxearchProfile> work(nq);
      const auto actual = knob_explicit.value()->SearchBatchWith(
          /*slot=*/0, QueryKnobs{5, 7}, fx.dataset.queries.data(), nq, &pool,
          work.data());
      for (size_t q = 0; q < nq; ++q) {
        ExpectSameNeighbors(actual[q], expected[q], label, q);
        EXPECT_GT(work[q].values_total, 0u) << label << " q" << q;
      }
      // ...and the knob-explicit call mutated nothing: the configured
      // defaults still apply afterwards.
      EXPECT_EQ(knob_explicit.value()->options().k, 10u);
      EXPECT_EQ(
          knob_explicit.value()->Search(fx.dataset.queries.Vector(0)).size(),
          10u);
    }
  }
}

TEST(AnySearcherTest, ConcurrentBatchesOnDisjointBandsKeepParity) {
  // Two threads run knob-explicit batches with DIFFERENT k on one searcher
  // over one shared pool, each on its own reserved slot band — the
  // replicated-dispatcher topology. Results must match the sequential
  // reference per k, and TSan must stay silent.
  Fixture fx = MakeFixture(24, 72);
  ThreadPool pool(3);
  auto made =
      MakeSearcher(fx.dataset.data, fx.index, IvfConfig(PrunerKind::kBond, 4));
  ASSERT_TRUE(made.ok());
  Searcher& searcher = *made.value();
  const size_t band = pool.num_threads();
  searcher.ReserveScratch(2 * band);

  const size_t nq = fx.dataset.queries.count();
  auto reference =
      MakeSearcher(fx.dataset.data, fx.index, IvfConfig(PrunerKind::kBond, 4));
  ASSERT_TRUE(reference.ok());
  std::vector<std::vector<Neighbor>> expected_k10(nq), expected_k3(nq);
  for (size_t q = 0; q < nq; ++q) {
    expected_k10[q] = reference.value()->Search(fx.dataset.queries.Vector(q));
  }
  for (size_t q = 0; q < nq; ++q) {
    expected_k3[q] = reference.value()->SearchWith(
        0, QueryKnobs{3, 0}, fx.dataset.queries.Vector(q));
  }

  std::atomic<size_t> mismatches{0};
  auto run = [&](size_t slot, size_t k,
                 const std::vector<std::vector<Neighbor>>& expected) {
    for (int round = 0; round < 10; ++round) {
      const auto results = searcher.SearchBatchWith(
          slot, QueryKnobs{k, 0}, fx.dataset.queries.data(), nq, &pool);
      for (size_t q = 0; q < nq; ++q) {
        if (results[q].size() != expected[q].size()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (size_t i = 0; i < results[q].size(); ++i) {
          if (results[q][i].id != expected[q][i].id ||
              results[q][i].distance != expected[q][i].distance) {
            mismatches.fetch_add(1);
            break;
          }
        }
      }
    }
  };
  std::thread other([&] { run(band, 3, expected_k3); });
  run(0, 10, expected_k10);
  other.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

// --- Config validation ----------------------------------------------------

TEST(AnySearcherTest, RejectsZeroK) {
  Fixture fx = MakeFixture(16, 79);
  SearcherConfig config;
  config.k = 0;
  const auto made = MakeSearcher(fx.dataset.data, config);
  ASSERT_FALSE(made.ok());
  EXPECT_TRUE(made.status().IsInvalidArgument());
}

TEST(AnySearcherTest, RejectsZeroNprobeOnIvfOnly) {
  Fixture fx = MakeFixture(16, 80);
  SearcherConfig config = IvfConfig(PrunerKind::kBond, 0);
  ASSERT_FALSE(MakeSearcher(fx.dataset.data, config).ok());
  // The same nprobe is irrelevant (and legal) on the flat layout.
  config.layout = SearcherLayout::kFlat;
  EXPECT_TRUE(MakeSearcher(fx.dataset.data, config).ok());
}

TEST(AnySearcherTest, RejectsMetricsThePrunerCannotBound) {
  Fixture fx = MakeFixture(16, 81);
  SearcherConfig config;
  config.pruner = PrunerKind::kAdsampling;
  config.metric = Metric::kIp;
  EXPECT_TRUE(MakeSearcher(fx.dataset.data, config).status().IsUnsupported());
  config.pruner = PrunerKind::kBsa;
  config.metric = Metric::kL1;
  EXPECT_TRUE(MakeSearcher(fx.dataset.data, config).status().IsUnsupported());
  config.pruner = PrunerKind::kBond;
  config.metric = Metric::kIp;
  EXPECT_TRUE(MakeSearcher(fx.dataset.data, config).status().IsUnsupported());
  // The linear scan has no bound to invalidate.
  config.pruner = PrunerKind::kLinear;
  config.metric = Metric::kIp;
  EXPECT_TRUE(MakeSearcher(fx.dataset.data, config).ok());
}

TEST(AnySearcherTest, RejectsZeroBondZoneSize) {
  Fixture fx = MakeFixture(16, 85);
  SearcherConfig config;
  config.pruner = PrunerKind::kBond;
  config.bond_zone_size = 0;
  EXPECT_TRUE(
      MakeSearcher(fx.dataset.data, config).status().IsInvalidArgument());
}

TEST(AnySearcherTest, RejectsAZeroFetchStep) {
  // A zero step never advances a block's scan: the search would spin.
  Fixture fx = MakeFixture(16, 86);
  SearcherConfig config;
  config.search.initial_step = 0;
  EXPECT_TRUE(
      MakeSearcher(fx.dataset.data, config).status().IsInvalidArgument());
  config.search.adaptive_steps = false;
  EXPECT_TRUE(MakeSearcher(fx.dataset.data, config).ok());
  config.search.fixed_step = 0;
  EXPECT_TRUE(
      MakeSearcher(fx.dataset.data, config).status().IsInvalidArgument());
}

TEST(AnySearcherTest, RejectsOutOfRangeEnumValues) {
  Fixture fx = MakeFixture(16, 84);
  SearcherConfig config;
  config.pruner = static_cast<PrunerKind>(7);
  EXPECT_TRUE(
      MakeSearcher(fx.dataset.data, config).status().IsInvalidArgument());
  config = SearcherConfig{};
  config.layout = static_cast<SearcherLayout>(9);
  EXPECT_TRUE(
      MakeSearcher(fx.dataset.data, config).status().IsInvalidArgument());
}

TEST(AnySearcherTest, RejectsEmptyCollection) {
  VectorSet empty(8);
  EXPECT_TRUE(
      MakeSearcher(empty, SearcherConfig{}).status().IsInvalidArgument());
}

TEST(AnySearcherTest, RejectsMismatchedExternalIndex) {
  Fixture fx = MakeFixture(16, 82);
  // Flat layout with an external IVF index makes no sense.
  SearcherConfig config;
  config.layout = SearcherLayout::kFlat;
  EXPECT_TRUE(MakeSearcher(fx.dataset.data, fx.index, config)
                  .status()
                  .IsInvalidArgument());
  // Index built over a different collection shape.
  Fixture other = MakeFixture(32, 83);
  EXPECT_TRUE(MakeSearcher(other.dataset.data, fx.index,
                           IvfConfig(PrunerKind::kBond, 4))
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace pdx
