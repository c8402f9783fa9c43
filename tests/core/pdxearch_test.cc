#include "core/pdxearch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <type_traits>
#include <vector>

#include "benchlib/datagen.h"
#include "core/any_searcher.h"
#include "index/flat.h"
#include "index/ivf.h"
#include "kernels/pdx_kernels.h"
#include "pruning/adsampling.h"
#include "pruning/bsa.h"
#include "pruning/pdx_bond.h"
#include "storage/block_stats.h"

namespace pdx {
namespace {

Dataset MakeDataset(size_t dim = 24, uint64_t seed = 9,
                    size_t count = 2000) {
  SyntheticSpec spec;
  spec.name = "pdxearch-test";
  spec.dim = dim;
  spec.count = count;
  spec.num_queries = 10;
  spec.num_clusters = 8;
  spec.seed = seed;
  spec.distribution = ValueDistribution::kSkewed;
  return GenerateDataset(spec);
}

/// Flat PDX-BOND through the facade, with dimension zones on register-sized
/// blocks instead of the exact-search defaults (distance-to-means on 10K
/// partitions), so the collection spans several blocks.
SearcherConfig ZonedBondConfig() {
  SearcherConfig config;
  config.bond_order = DimensionOrder::kDimensionZones;
  config.block_capacity = kPdxBlockSize;
  return config;
}

std::unique_ptr<Searcher> MakeBond(const VectorSet& data,
                                   const SearcherConfig& config = {}) {
  auto made = MakeSearcher(data, config);
  EXPECT_TRUE(made.ok()) << made.status().ToString();
  return made.ok() ? std::move(made).value() : nullptr;
}

TEST(PdxearchTest, NoPrunerEqualsLinearScan) {
  Dataset dataset = MakeDataset();
  PdxStore store = PdxStore::FromVectorSet(dataset.data);
  NoPruner pruner;
  PdxearchEngine<NoPruner> engine(&store, &pruner);

  for (size_t q = 0; q < dataset.queries.count(); ++q) {
    const float* query = dataset.queries.Vector(q);
    const auto expected = FlatSearchPdx(store, query, 10, Metric::kL2);
    const auto actual = engine.SearchFlat(query, 10);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(actual[i].id, expected[i].id) << "query " << q;
      ASSERT_FLOAT_EQ(actual[i].distance, expected[i].distance);
    }
  }
}

TEST(PdxearchTest, NoPrunerScansEverything) {
  Dataset dataset = MakeDataset();
  PdxStore store = PdxStore::FromVectorSet(dataset.data);
  NoPruner pruner;
  PdxearchEngine<NoPruner> engine(&store, &pruner);
  engine.SearchFlat(dataset.queries.Vector(0), 10);
  const PdxearchProfile& profile = engine.last_profile();
  EXPECT_EQ(profile.values_scanned, profile.values_total);
  EXPECT_DOUBLE_EQ(profile.pruning_power(), 0.0);
}

TEST(PdxearchTest, AdaptiveAndFixedStepsSameResultsForExactPruner) {
  Dataset dataset = MakeDataset(32, 10);
  SearcherConfig adaptive = ZonedBondConfig();
  adaptive.search.adaptive_steps = true;
  auto adaptive_searcher = MakeBond(dataset.data, adaptive);
  SearcherConfig fixed = ZonedBondConfig();
  fixed.search.adaptive_steps = false;
  fixed.search.fixed_step = 32;
  auto fixed_searcher = MakeBond(dataset.data, fixed);
  ASSERT_NE(adaptive_searcher, nullptr);
  ASSERT_NE(fixed_searcher, nullptr);

  for (size_t q = 0; q < dataset.queries.count(); ++q) {
    const float* query = dataset.queries.Vector(q);
    const auto a = adaptive_searcher->SearchWith(0, {10, 0}, query);
    const auto b = fixed_searcher->SearchWith(0, {10, 0}, query);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].id, b[i].id) << "query " << q << " rank " << i;
    }
  }
}

TEST(PdxearchTest, SelectionFractionDoesNotChangeExactResults) {
  Dataset dataset = MakeDataset(20, 11);
  for (float fraction : {0.02f, 0.2f, 0.8f}) {
    SearcherConfig config = ZonedBondConfig();
    config.search.selection_fraction = fraction;
    auto searcher = MakeBond(dataset.data, config);
    ASSERT_NE(searcher, nullptr);
    const float* query = dataset.queries.Vector(0);
    const auto expected = FlatSearchNary(dataset.data, query, 10, Metric::kL2);
    const auto actual = searcher->SearchWith(0, {10, 0}, query);
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(actual[i].id, expected[i].id) << "fraction " << fraction;
    }
  }
}

TEST(PdxearchTest, SelectionFractionOneStaysExact) {
  // selection_fraction >= 1.0 used to drop every post-START block straight
  // into PRUNE; the clamped prune_entry must keep results exact and keep
  // the all-lanes WARMUP kernels in use until something is pruned.
  Dataset dataset = MakeDataset(20, 19);
  for (float fraction : {1.0f, 1.5f}) {
    SearcherConfig config = ZonedBondConfig();
    config.search.selection_fraction = fraction;
    config.block_capacity = 256;
    auto searcher = MakeBond(dataset.data, config);
    ASSERT_NE(searcher, nullptr);
    const float* query = dataset.queries.Vector(0);
    const auto expected = FlatSearchNary(dataset.data, query, 10, Metric::kL2);
    const auto actual = searcher->SearchWith(0, {10, 0}, query);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(actual[i].id, expected[i].id) << "fraction " << fraction;
    }
  }
}

TEST(PdxearchTest, SingleVectorBlocksNeverEnterPrune) {
  // n == 1 blocks: prune_entry clamps to 0, so the lone lane finishes in
  // WARMUP (alive can only drop to 0, which ends the loop anyway).
  Dataset dataset = MakeDataset(16, 20, /*count=*/120);
  PdxStore store = PdxStore::FromVectorSet(dataset.data, /*block_capacity=*/1);
  ASSERT_EQ(store.num_blocks(), dataset.data.count());
  PdxBondPruner pruner(ComputeStats(dataset.data.data(), dataset.data.count(),
                                    dataset.data.dim())
                           .means,
                       DimensionOrder::kSequential);
  PdxearchEngine<PdxBondPruner> engine(&store, &pruner);
  for (size_t q = 0; q < dataset.queries.count(); ++q) {
    const float* query = dataset.queries.Vector(q);
    const auto expected = FlatSearchNary(dataset.data, query, 10, Metric::kL2);
    const auto actual = engine.SearchFlat(query, 10);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(actual[i].id, expected[i].id) << "query " << q;
      ASSERT_FLOAT_EQ(actual[i].distance, expected[i].distance);
    }
  }
}

TEST(PdxearchTest, ProfileValuesAreConsistent) {
  Dataset dataset = MakeDataset(28, 12);
  // Small blocks so the 2000-vector collection spans many blocks and the
  // post-START blocks actually evaluate the pruning predicate.
  SearcherConfig config = ZonedBondConfig();
  config.block_capacity = 256;
  auto searcher = MakeBond(dataset.data, config);
  ASSERT_NE(searcher, nullptr);
  PdxearchProfile profile;
  searcher->SearchWith(0, {10, 0}, dataset.queries.Vector(0), &profile);
  EXPECT_LE(profile.values_scanned, profile.values_total);
  EXPECT_EQ(profile.values_total, 28u * dataset.data.count());
  EXPECT_GE(profile.pruning_power(), 0.0);
  EXPECT_LE(profile.pruning_power(), 1.0);
  EXPECT_GT(profile.predicate_evaluations, 0u);
}

TEST(PdxearchTest, PhaseTimesCollectedWhenEnabled) {
  Dataset dataset = MakeDataset(16, 13);
  IvfIndex index = IvfIndex::Build(dataset.data, {});
  SearcherConfig config;
  config.layout = SearcherLayout::kIvf;
  config.search.collect_phase_times = true;
  auto made = MakeSearcher(dataset.data, index, config);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  PdxearchProfile profile;
  made.value()->SearchWith(0, {10, 8}, dataset.queries.Vector(0), &profile);
  EXPECT_GT(profile.find_buckets_ms, 0.0);
  EXPECT_GT(profile.distance_ms, 0.0);
  EXPECT_GT(profile.total_ms(), 0.0);
}

TEST(PdxearchTest, PhaseTimesZeroWhenDisabled) {
  Dataset dataset = MakeDataset(16, 14);
  auto searcher = MakeBond(dataset.data);
  ASSERT_NE(searcher, nullptr);
  PdxearchProfile profile;
  searcher->SearchWith(0, {10, 0}, dataset.queries.Vector(0), &profile);
  EXPECT_EQ(profile.distance_ms, 0.0);
}

TEST(PdxearchTest, StepObserverSeesBlockLifecycle) {
  Dataset dataset = MakeDataset(16, 15, /*count=*/600);
  PdxStore store = PdxStore::FromVectorSet(dataset.data, 128);
  PdxBondPruner pruner(ComputeStats(dataset.data.data(), dataset.data.count(),
                                    dataset.data.dim())
                           .means,
                       DimensionOrder::kSequential);
  PdxearchOptions options;
  std::vector<std::tuple<size_t, size_t, size_t>> events;
  options.step_observer = [&](size_t dims, size_t alive, size_t n) {
    events.emplace_back(dims, alive, n);
  };
  PdxearchEngine<PdxBondPruner> engine(&store, &pruner, Metric::kL2, options);
  engine.SearchFlat(dataset.queries.Vector(0), 10);

  ASSERT_FALSE(events.empty());
  // First observed event is a block entering WARMUP (dims == 0).
  EXPECT_EQ(std::get<0>(events.front()), 0u);
  // Survivors never exceed the block size and never grow within a block.
  size_t last_alive = SIZE_MAX;
  for (const auto& [dims, alive, n] : events) {
    ASSERT_LE(alive, n);
    if (dims == 0) {
      last_alive = n;
    } else {
      ASSERT_LE(alive, last_alive) << "survivors grew at depth " << dims;
      last_alive = alive;
    }
  }
}

TEST(PdxearchTest, KLargerThanBlock) {
  Dataset dataset = MakeDataset(8, 16, /*count=*/100);
  auto searcher = MakeBond(dataset.data);
  ASSERT_NE(searcher, nullptr);
  const auto result =
      searcher->SearchWith(0, {50, 0}, dataset.queries.Vector(0));
  EXPECT_EQ(result.size(), 50u);
  // Sorted ascending.
  for (size_t i = 1; i < result.size(); ++i) {
    ASSERT_LE(result[i - 1].distance, result[i].distance);
  }
}

TEST(PdxearchTest, KLargerThanCollection) {
  Dataset dataset = MakeDataset(8, 17, /*count=*/30);
  auto searcher = MakeBond(dataset.data);
  ASSERT_NE(searcher, nullptr);
  const auto result =
      searcher->SearchWith(0, {100, 0}, dataset.queries.Vector(0));
  EXPECT_EQ(result.size(), 30u);
}

TEST(PdxearchTest, SingleVectorCollection) {
  VectorSet single(4);
  const float row[4] = {1, 2, 3, 4};
  single.Append(row);
  auto searcher = MakeBond(single);
  ASSERT_NE(searcher, nullptr);
  const float query[4] = {1, 2, 3, 5};
  const auto result = searcher->SearchWith(0, {1, 0}, query);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].id, 0u);
  EXPECT_FLOAT_EQ(result[0].distance, 1.0f);
}

TEST(PdxearchTest, InitialStepRespected) {
  Dataset dataset = MakeDataset(64, 18, /*count=*/500);
  PdxStore store = PdxStore::FromVectorSet(dataset.data);
  PdxBondPruner pruner(ComputeStats(dataset.data.data(), dataset.data.count(),
                                    dataset.data.dim())
                           .means,
                       DimensionOrder::kSequential);
  PdxearchOptions options;
  options.initial_step = 4;
  std::vector<size_t> depths;
  options.step_observer = [&](size_t dims, size_t, size_t) {
    depths.push_back(dims);
  };
  PdxearchEngine<PdxBondPruner> engine(&store, &pruner, Metric::kL2, options);
  engine.SearchFlat(dataset.queries.Vector(0), 10);
  // Depth sequence per block: 0, 4, 12, 28, 60, 64 (doubling steps).
  ASSERT_GE(depths.size(), 3u);
  size_t i = 0;
  ASSERT_EQ(depths[i++], 0u);
  EXPECT_EQ(depths[i++], 4u);
  EXPECT_EQ(depths[i++], 12u);
}

// ---------------------------------------------------------------------------
// PRUNE against the block loop as it was before PRUNE kept its distances
// beside the survivors: every partial distance lane-indexed, and the
// survivors filtered by each pruner's predicate, written out below. The
// reference accumulates every lane at every step with the lane-indexed
// kernels (a survivor's sum is the same), so it shares no PRUNE code with
// the engine.
// ---------------------------------------------------------------------------

// Each predicate keeps lane `lane` of block `b` after `dims` dimensions at
// partial distance `partial` under the k-th distance `threshold`.
struct KeepAll {
  template <typename QueryState>
  bool operator()(const QueryState&, size_t, uint32_t, size_t, float,
                  float) const {
    return true;
  }
};

struct KeepBelowThreshold {  // PDX-BOND.
  bool operator()(const PdxBondPruner::QueryState&, size_t, uint32_t, size_t,
                  float partial, float threshold) const {
    return partial < threshold;
  }
};

struct KeepAdsHypothesis {
  const AdSamplingPruner* pruner;
  bool operator()(const AdSamplingPruner::QueryState&, size_t, uint32_t,
                  size_t dims, float partial, float threshold) const {
    return partial < threshold * pruner->Ratio(dims);
  }
};

struct KeepBsaEstimate {
  float multiplier;
  // Per block: (dim + 1) x n lane-major sqrt suffix energies.
  std::vector<std::vector<float>> suffix;
  std::vector<size_t> lanes;

  KeepBsaEstimate(const PdxStore& store, float m) : multiplier(m) {
    const size_t dim = store.dim();
    std::vector<float> row(dim), norms(dim + 1);
    for (size_t b = 0; b < store.num_blocks(); ++b) {
      const PdxBlock& block = store.block(b);
      const size_t n = block.count();
      suffix.emplace_back((dim + 1) * n);
      lanes.push_back(n);
      for (size_t i = 0; i < n; ++i) {
        block.ExtractLane(i, row.data());
        BsaPruner::SuffixNorms(row.data(), dim, norms.data());
        for (size_t d = 0; d <= dim; ++d) suffix[b][d * n + i] = norms[d];
      }
    }
  }

  bool operator()(const BsaPruner::QueryState& qs, size_t b, uint32_t lane,
                  size_t dims, float partial, float threshold) const {
    const float sv = suffix[b][dims * lanes[b] + lane];
    const float sq = qs.suffix_norms[dims];
    const float sq2 = sq * sq;
    const float two_m_sq = 2.0f * multiplier * sq;
    const float estimate = partial + sv * sv + sq2 - two_m_sq * sv;
    return estimate < threshold;
  }
};

template <typename Pruner, typename Keep>
class ReferenceEngine {
 public:
  ReferenceEngine(const PdxStore& store, const Pruner& pruner,
                  const PdxearchOptions& options, const Keep& keep)
      : store_(store), pruner_(pruner), options_(options), keep_(keep) {}

  std::vector<Neighbor> SearchFlat(const float* raw_query, size_t k) {
    profile = PdxearchProfile{};
    const typename Pruner::QueryState qs = pruner_.PrepareQuery(raw_query);
    TopK heap(std::min(k, store_.count()));
    for (size_t b = 0; b < store_.num_blocks(); ++b) Block(qs, b, heap);
    return heap.SortedResults();
  }

  std::vector<Neighbor> SearchIvf(const IvfIndex& index,
                                  const float* raw_query, size_t k,
                                  size_t nprobe) {
    profile = PdxearchProfile{};
    const typename Pruner::QueryState qs = pruner_.PrepareQuery(raw_query);
    const std::vector<uint32_t> ranked = index.RankBuckets(raw_query);
    TopK heap(std::min(k, store_.count()));
    for (size_t r = 0; r < std::min(nprobe, ranked.size()); ++r) {
      const auto [first, last] = store_.GroupBlockRange(ranked[r]);
      for (size_t b = first; b < last; ++b) Block(qs, b, heap);
    }
    return heap.SortedResults();
  }

  PdxearchProfile profile;

 private:
  void Block(const typename Pruner::QueryState& qs, size_t b, TopK& heap) {
    const PdxBlock& block = store_.block(b);
    const size_t n = block.count();
    const size_t dim = block.dim();
    if (n == 0) return;
    const float* query = pruner_.KernelQuery(qs);
    const std::vector<uint32_t>* order = pruner_.VisitOrder(qs);
    std::vector<float> distances(n, 0.0f);
    // Adds visit-order dimensions [from, to) to every lane.
    auto accumulate = [&](size_t from, size_t to) {
      if (order != nullptr) {
        PdxAccumulateDims(Metric::kL2, query, block.data(), n,
                          order->data() + from, to - from, distances.data());
      } else {
        PdxAccumulate(Metric::kL2, query, block.data(), n, from, to,
                      distances.data());
      }
    };
    profile.values_total += uint64_t(n) * dim;
    ++profile.blocks_visited;
    if (!heap.full()) {  // START.
      accumulate(0, dim);
      profile.values_scanned += uint64_t(n) * dim;
      profile.dims_scanned += dim;
      for (size_t i = 0; i < n; ++i) heap.Push(block.id(i), distances[i]);
      return;
    }
    std::vector<uint32_t> alive(n);
    std::iota(alive.begin(), alive.end(), 0u);
    const size_t prune_entry = std::min<size_t>(
        n - 1, std::max<size_t>(
                   1, static_cast<size_t>(options_.selection_fraction *
                                          static_cast<float>(n))));
    bool pruning = false;
    size_t dims_done = 0;
    size_t step = options_.adaptive_steps ? options_.initial_step
                                          : options_.fixed_step;
    while (dims_done < dim && !alive.empty()) {
      const size_t now = std::min(step, dim - dims_done);
      accumulate(dims_done, dims_done + now);
      profile.values_scanned += uint64_t(pruning ? alive.size() : n) * now;
      dims_done += now;
      if (options_.adaptive_steps) step *= 2;
      if (dims_done >= dim) break;
      const float threshold = heap.threshold();
      std::vector<uint32_t> kept;
      for (const uint32_t lane : alive) {
        if (keep_(qs, b, lane, dims_done, distances[lane], threshold)) {
          kept.push_back(lane);
        }
      }
      alive.swap(kept);
      ++profile.predicate_evaluations;
      if (!pruning && alive.size() <= prune_entry) pruning = true;
    }
    profile.dims_scanned += dims_done;
    profile.vectors_pruned += n - alive.size();
    for (const uint32_t lane : alive) {
      heap.Push(block.id(lane), distances[lane]);
    }
  }

  const PdxStore& store_;
  const Pruner& pruner_;
  const PdxearchOptions& options_;
  const Keep& keep_;
};

// 5127 rows: three 2,048-lane partitions (2048, 2048, 1031) or 81 blocks of
// 64 lanes (the last 7), so each flat store ends in a block whose lane
// count is not a multiple of 16; IVF's 72 buckets have uneven sizes.
constexpr size_t kReferenceCount = 5127;
constexpr size_t kReferenceDim = 40;
constexpr size_t kReferenceNprobe = 12;

struct ReferenceFixture {
  Dataset dataset = MakeDataset(kReferenceDim, 31, kReferenceCount);
  IvfIndex index = IvfIndex::Build(dataset.data, IvfOptions{});
};

const ReferenceFixture& Reference() {
  static const ReferenceFixture* fixture = new ReferenceFixture;
  return *fixture;
}

// Searches every query of the fixture through the engine and the reference
// on three stores of `rows` (flat at kExactSearchBlockCapacity and at 64
// lanes, and IVF), at selection_fraction 0.2 and 1.0 (where a block enters
// PRUNE at the first test that prunes a lane) and k = 10 and 100: the ids,
// the distance bits and every work-record field must match. `make_keep`
// builds the pruner's predicate for a store.
template <typename Pruner, typename MakeKeep>
void ExpectEngineMatchesReference(const std::string& label,
                                  const VectorSet& rows, Pruner& pruner,
                                  MakeKeep make_keep) {
  const ReferenceFixture& fixture = Reference();
  const VectorSet& queries = fixture.dataset.queries;
  const char* kStoreNames[] = {"flat-2048", "flat-64", "ivf"};
  for (size_t layout = 0; layout < 3; ++layout) {
    const PdxStore store =
        layout == 2 ? PdxStore::FromGroups(rows, fixture.index.buckets(),
                                           kPdxBlockSize)
                    : PdxStore::FromVectorSet(
                          rows, layout == 0 ? kExactSearchBlockCapacity
                                            : kPdxBlockSize);
    if (layout != 2) {
      ASSERT_NE(store.block(store.num_blocks() - 1).count() % 16, 0u);
    }
    pruner.BuildAux(store);
    const auto keep = make_keep(store);
    for (const float fraction : {0.2f, 1.0f}) {
      PdxearchOptions options;
      options.selection_fraction = fraction;
      ReferenceEngine<Pruner, decltype(keep)> reference(store, pruner,
                                                        options, keep);
      // Tests after which a block is in PRUNE with dimensions left.
      size_t prune_tests = 0;
      PdxearchOptions observed = options;
      observed.step_observer = [&](size_t dims, size_t alive, size_t n) {
        const size_t entry = std::min<size_t>(
            n - 1, std::max<size_t>(1, static_cast<size_t>(
                                           fraction * static_cast<float>(n))));
        if (dims > 0 && dims < kReferenceDim && alive > 0 && alive <= entry) {
          ++prune_tests;
        }
      };
      PdxearchEngine<Pruner> engine(&store, &pruner, Metric::kL2, observed);
      for (const size_t k : {size_t{10}, size_t{100}}) {
        for (size_t q = 0; q < queries.count(); ++q) {
          SCOPED_TRACE(label + " " + kStoreNames[layout] + " fraction " +
                       std::to_string(fraction) + " k " + std::to_string(k) +
                       " query " + std::to_string(q));
          const float* query = queries.Vector(q);
          const std::vector<Neighbor> actual =
              layout == 2 ? engine.SearchIvf(fixture.index, query, k,
                                             kReferenceNprobe)
                          : engine.SearchFlat(query, k);
          const std::vector<Neighbor> expected =
              layout == 2 ? reference.SearchIvf(fixture.index, query, k,
                                                kReferenceNprobe)
                          : reference.SearchFlat(query, k);
          ASSERT_EQ(actual.size(), expected.size());
          for (size_t i = 0; i < expected.size(); ++i) {
            ASSERT_EQ(actual[i].id, expected[i].id) << "rank " << i;
            ASSERT_EQ(std::bit_cast<uint32_t>(actual[i].distance),
                      std::bit_cast<uint32_t>(expected[i].distance))
                << "rank " << i;
          }
          const PdxearchProfile& got = engine.last_profile();
          const PdxearchProfile& want = reference.profile;
          EXPECT_EQ(got.values_scanned, want.values_scanned);
          EXPECT_EQ(got.values_total, want.values_total);
          EXPECT_EQ(got.predicate_evaluations, want.predicate_evaluations);
          EXPECT_EQ(got.blocks_visited, want.blocks_visited);
          EXPECT_EQ(got.vectors_pruned, want.vectors_pruned);
          EXPECT_EQ(got.dims_scanned, want.dims_scanned);
          EXPECT_EQ(got.rerank_candidates, want.rerank_candidates);
          EXPECT_EQ(got.total_ms(), 0.0);
        }
      }
      // Every pruner but linear must have run PRUNE here, or the check
      // above covered WARMUP alone.
      if constexpr (!std::is_same_v<Pruner, NoPruner>) {
        EXPECT_GT(prune_tests, 0u)
            << label << " " << kStoreNames[layout] << " " << fraction;
      }
    }
  }
}

TEST(PdxearchPruneTest, LinearMatchesTheLaneIndexedReference) {
  NoPruner pruner;
  ExpectEngineMatchesReference("linear", Reference().dataset.data, pruner,
                               [](const PdxStore&) { return KeepAll{}; });
}

TEST(PdxearchPruneTest, BondMatchesTheLaneIndexedReferenceInEveryOrder) {
  const VectorSet& data = Reference().dataset.data;
  const std::vector<float> means =
      ComputeStats(data.data(), data.count(), data.dim()).means;
  for (const DimensionOrder order :
       {DimensionOrder::kSequential, DimensionOrder::kDistanceToMeans,
        DimensionOrder::kDimensionZones}) {
    PdxBondPruner pruner(means, order);
    ExpectEngineMatchesReference(
        "bond/" + std::to_string(static_cast<int>(order)), data, pruner,
        [](const PdxStore&) { return KeepBelowThreshold{}; });
  }
}

TEST(PdxearchPruneTest, AdsamplingMatchesTheLaneIndexedReference) {
  const VectorSet& data = Reference().dataset.data;
  AdSamplingPruner pruner(data.dim());
  const VectorSet rotated = pruner.TransformCollection(data);
  ExpectEngineMatchesReference(
      "adsampling", rotated, pruner,
      [&pruner](const PdxStore&) { return KeepAdsHypothesis{&pruner}; });
}

TEST(PdxearchPruneTest, BsaMatchesTheLaneIndexedReference) {
  const VectorSet& data = Reference().dataset.data;
  BsaPruner pruner(data);
  const VectorSet projected = pruner.TransformCollection(data);
  ExpectEngineMatchesReference("bsa", projected, pruner,
                               [&pruner](const PdxStore& store) {
                                 return KeepBsaEstimate(store,
                                                        pruner.multiplier());
                               });
}

}  // namespace
}  // namespace pdx
