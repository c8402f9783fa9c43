#include "kernels/pdx_kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "kernels/scalar_kernels.h"
#include "storage/pdx_block.h"
#include "storage/pdx_store.h"
#include "storage/vector_set.h"

namespace pdx {
namespace {

struct BlockFixture {
  VectorSet vectors;
  PdxStore store;
  std::vector<float> query;
};

BlockFixture MakeFixture(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  BlockFixture fx;
  fx.vectors = VectorSet(dim, n);
  std::vector<float> row(dim);
  for (size_t i = 0; i < n; ++i) {
    for (float& v : row) v = static_cast<float>(rng.Gaussian());
    fx.vectors.Append(row.data());
  }
  fx.store = PdxStore::FromVectorSet(fx.vectors, n);  // One block.
  fx.query.resize(dim);
  for (float& v : fx.query) v = static_cast<float>(rng.Gaussian());
  return fx;
}

using PdxKernelParam = std::tuple<Metric, size_t, size_t>;  // metric, n, dim

class PdxKernelTest : public ::testing::TestWithParam<PdxKernelParam> {};

TEST_P(PdxKernelTest, LinearScanMatchesScalarOracle) {
  const auto [metric, n, dim] = GetParam();
  BlockFixture fx = MakeFixture(n, dim, n * 7 + dim);
  const PdxBlock& block = fx.store.block(0);

  std::vector<float> distances(n, -1.0f);
  PdxLinearScan(metric, fx.query.data(), block.data(), n, dim,
                distances.data());
  for (size_t i = 0; i < n; ++i) {
    const float expected =
        ScalarDistance(metric, fx.query.data(), fx.vectors.Vector(i), dim);
    ASSERT_NEAR(distances[i], expected,
                1e-4f + 1e-5f * std::fabs(expected) * std::sqrt(float(dim)))
        << "lane " << i;
  }
}

TEST_P(PdxKernelTest, NovecMatchesVectorized) {
  const auto [metric, n, dim] = GetParam();
  BlockFixture fx = MakeFixture(n, dim, n * 13 + dim);
  const PdxBlock& block = fx.store.block(0);

  std::vector<float> vec(n, 0.0f);
  std::vector<float> novec(n, 0.0f);
  PdxLinearScan(metric, fx.query.data(), block.data(), n, dim, vec.data());
  PdxLinearScanNovec(metric, fx.query.data(), block.data(), n, dim,
                     novec.data());
  for (size_t i = 0; i < n; ++i) {
    // Identical source, identical math: results can differ only through
    // reassociation; keep a tight bound.
    ASSERT_NEAR(vec[i], novec[i], 1e-3f + 1e-4f * std::fabs(vec[i]));
  }
}

TEST_P(PdxKernelTest, IncrementalStepsEqualSingleScan) {
  const auto [metric, n, dim] = GetParam();
  BlockFixture fx = MakeFixture(n, dim, n * 17 + dim);
  const PdxBlock& block = fx.store.block(0);

  std::vector<float> whole(n, 0.0f);
  PdxLinearScan(metric, fx.query.data(), block.data(), n, dim, whole.data());

  // Accumulate in exponentially growing chunks (the PDXearch pattern).
  std::vector<float> chunked(n, 0.0f);
  size_t done = 0;
  size_t step = 2;
  while (done < dim) {
    const size_t take = std::min(step, dim - done);
    PdxAccumulate(metric, fx.query.data(), block.data(), n, done, done + take,
                  chunked.data());
    done += take;
    step *= 2;
  }
  for (size_t i = 0; i < n; ++i) {
    ASSERT_NEAR(chunked[i], whole[i], 1e-4f + 1e-5f * std::fabs(whole[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PdxKernelTest,
    ::testing::Combine(
        ::testing::Values(Metric::kL2, Metric::kIp, Metric::kL1),
        ::testing::Values(1, 3, 63, 64, 65, 200),  // Lane counts incl. tails.
        ::testing::Values(1, 2, 7, 16, 33, 128)),
    [](const ::testing::TestParamInfo<PdxKernelParam>& info) {
      return std::string(MetricName(std::get<0>(info.param))) + "_n" +
             std::to_string(std::get<1>(info.param)) + "_d" +
             std::to_string(std::get<2>(info.param));
    });

TEST(PdxKernelDimsTest, ReorderedDimsEqualSequential) {
  const size_t n = 64;
  const size_t dim = 24;
  BlockFixture fx = MakeFixture(n, dim, 5);
  const PdxBlock& block = fx.store.block(0);

  // Reverse visit order must produce identical totals.
  std::vector<uint32_t> order(dim);
  std::iota(order.begin(), order.end(), 0);
  std::reverse(order.begin(), order.end());

  std::vector<float> sequential(n, 0.0f);
  std::vector<float> reordered(n, 0.0f);
  PdxLinearScan(Metric::kL2, fx.query.data(), block.data(), n, dim,
                sequential.data());
  PdxAccumulateDims(Metric::kL2, fx.query.data(), block.data(), n,
                    order.data(), dim, reordered.data());
  for (size_t i = 0; i < n; ++i) {
    ASSERT_NEAR(reordered[i], sequential[i],
                1e-4f + 1e-5f * std::fabs(sequential[i]));
  }
}

TEST(PdxKernelDimsTest, PartialDimListOnlyTouchesListedDims) {
  const size_t n = 8;
  const size_t dim = 6;
  BlockFixture fx = MakeFixture(n, dim, 6);
  const PdxBlock& block = fx.store.block(0);

  const std::vector<uint32_t> dims = {1, 4};
  std::vector<float> out(n, 0.0f);
  PdxAccumulateDims(Metric::kL2, fx.query.data(), block.data(), n,
                    dims.data(), dims.size(), out.data());
  for (size_t i = 0; i < n; ++i) {
    float expected = 0.0f;
    for (uint32_t d : dims) {
      const float diff = fx.query[d] - fx.vectors.Vector(i)[d];
      expected += diff * diff;
    }
    ASSERT_NEAR(out[i], expected, 1e-5f);
  }
}

// The PRUNE kernels' distances are indexed by survivor: out[p] belongs to
// lane positions[p], and nothing past the survivors is written.
TEST(PdxKernelPositionsTest, SurvivorIndexedDistances) {
  const size_t n = 16;
  const size_t dim = 10;
  BlockFixture fx = MakeFixture(n, dim, 7);
  const PdxBlock& block = fx.store.block(0);

  const std::vector<uint32_t> positions = {0, 5, 15};
  std::vector<float> out(n, -1.0f);
  std::fill(out.begin(), out.begin() + positions.size(), 0.0f);
  PdxAccumulatePositions(Metric::kL2, fx.query.data(), block.data(), n, 0,
                         dim, positions.data(), positions.size(), out.data());
  for (size_t p = 0; p < positions.size(); ++p) {
    const float expected =
        ScalarL2(fx.query.data(), fx.vectors.Vector(positions[p]), dim);
    ASSERT_NEAR(out[p], expected, 1e-4f) << "survivor " << p;
  }
  for (size_t i = positions.size(); i < n; ++i) {
    ASSERT_EQ(out[i], -1.0f) << "entry " << i << " must stay untouched";
  }
}

// Each survivor's sum is the lane-indexed kernel's, bit for bit: the same
// dimensions are added to the same partial in the same order.
TEST(PdxKernelPositionsTest, SurvivorSumsEqualLaneSums) {
  const size_t n = 37;
  const size_t dim = 20;
  BlockFixture fx = MakeFixture(n, dim, 11);
  const PdxBlock& block = fx.store.block(0);
  const std::vector<uint32_t> positions = {2, 3, 17, 18, 30, 36};
  const std::vector<uint32_t> dims = {19, 0, 7, 4, 12};
  for (const Metric metric : {Metric::kL2, Metric::kIp, Metric::kL1}) {
    std::vector<float> lanes(n, 0.25f);
    PdxAccumulate(metric, fx.query.data(), block.data(), n, 3, 14,
                  lanes.data());
    PdxAccumulateDims(metric, fx.query.data(), block.data(), n, dims.data(),
                      dims.size(), lanes.data());
    std::vector<float> survivors(positions.size(), 0.25f);
    PdxAccumulatePositions(metric, fx.query.data(), block.data(), n, 3, 14,
                           positions.data(), positions.size(),
                           survivors.data());
    PdxAccumulateDimsPositions(metric, fx.query.data(), block.data(), n,
                               dims.data(), dims.size(), positions.data(),
                               positions.size(), survivors.data());
    for (size_t p = 0; p < positions.size(); ++p) {
      ASSERT_EQ(survivors[p], lanes[positions[p]])
          << MetricName(metric) << " survivor " << p;
    }
  }
}

TEST(PdxKernelPositionsTest, DimsPositionsCombination) {
  const size_t n = 12;
  const size_t dim = 8;
  BlockFixture fx = MakeFixture(n, dim, 8);
  const PdxBlock& block = fx.store.block(0);

  const std::vector<uint32_t> dims = {7, 2, 3};
  const std::vector<uint32_t> positions = {1, 11};
  std::vector<float> out(positions.size(), 0.0f);
  PdxAccumulateDimsPositions(Metric::kL1, fx.query.data(), block.data(), n,
                             dims.data(), dims.size(), positions.data(),
                             positions.size(), out.data());
  for (size_t p = 0; p < positions.size(); ++p) {
    float expected = 0.0f;
    for (uint32_t d : dims) {
      expected += std::fabs(fx.query[d] - fx.vectors.Vector(positions[p])[d]);
    }
    ASSERT_NEAR(out[p], expected, 1e-5f);
  }
}

TEST(PdxKernelTest, EmptyDimRangeIsNoop) {
  const size_t n = 4;
  BlockFixture fx = MakeFixture(n, 5, 9);
  std::vector<float> out(n, 3.0f);
  PdxAccumulate(Metric::kL2, fx.query.data(), fx.store.block(0).data(), n, 2,
                2, out.data());
  for (float v : out) ASSERT_EQ(v, 3.0f);
}

}  // namespace
}  // namespace pdx
