#include "index/kmeans.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <set>
#include <vector>

#include "common/random.h"
#include "kernels/nary_kernels.h"
#include "kernels/scalar_kernels.h"

namespace pdx {
namespace {

// Three well-separated blobs in 2D.
VectorSet ThreeBlobs(size_t per_blob, uint64_t seed) {
  Rng rng(seed);
  VectorSet set(2, per_blob * 3);
  const float centers[3][2] = {{0, 0}, {50, 0}, {0, 50}};
  for (int blob = 0; blob < 3; ++blob) {
    for (size_t i = 0; i < per_blob; ++i) {
      const float row[2] = {
          centers[blob][0] + static_cast<float>(rng.Gaussian()),
          centers[blob][1] + static_cast<float>(rng.Gaussian())};
      set.Append(row);
    }
  }
  return set;
}

// RunKMeans written out as one serial loop, step for step: subsample,
// k-means++ seeding, Lloyd iterations with empty-cluster re-seeding, final
// assignment. The build spreads its loops over the shared pool and must
// reproduce these bytes.
struct SerialKMeans {
  std::vector<uint32_t> seeds;
  VectorSet centroids;
  std::vector<uint32_t> assignment;
  double objective = 0.0;
  int iterations = 0;
  size_t reseeds = 0;  ///< Empty clusters re-seeded over all iterations.
};

uint32_t SerialNearest(const VectorSet& centroids, const float* row,
                       float* best_d2) {
  uint32_t best = 0;
  *best_d2 = std::numeric_limits<float>::infinity();
  for (size_t c = 0; c < centroids.count(); ++c) {
    const float d2 = NaryL2(row, centroids.Vector(static_cast<VectorId>(c)),
                            centroids.dim());
    if (d2 < *best_d2) {
      *best_d2 = d2;
      best = static_cast<uint32_t>(c);
    }
  }
  return best;
}

SerialKMeans SerialRunKMeans(const VectorSet& vectors,
                             const KMeansOptions& options) {
  const size_t n = vectors.count();
  const size_t dim = vectors.dim();
  const size_t k = options.num_clusters;
  Rng rng(options.seed);
  const size_t train_cap = options.max_points_per_centroid > 0
                               ? options.max_points_per_centroid * k
                               : n;
  VectorSet sampled;
  const VectorSet* train = &vectors;
  if (n > train_cap) {
    std::vector<VectorId> pick(n);
    std::iota(pick.begin(), pick.end(), 0);
    rng.Shuffle(pick);
    pick.resize(train_cap);
    sampled = vectors.Select(pick);
    train = &sampled;
  }
  const size_t tn = train->count();

  SerialKMeans out;
  out.seeds.push_back(static_cast<uint32_t>(rng.UniformInt(tn)));
  std::vector<float> best_d2(tn, std::numeric_limits<float>::infinity());
  while (out.seeds.size() < k) {
    const float* last_seed = train->Vector(out.seeds.back());
    double total = 0.0;
    for (size_t i = 0; i < tn; ++i) {
      best_d2[i] = std::min(
          best_d2[i],
          NaryL2(train->Vector(static_cast<VectorId>(i)), last_seed, dim));
      total += best_d2[i];
    }
    if (total <= 0.0) {
      out.seeds.push_back(static_cast<uint32_t>(rng.UniformInt(tn)));
      continue;
    }
    double pick = rng.UniformDouble() * total;
    uint32_t chosen = static_cast<uint32_t>(tn - 1);
    for (size_t i = 0; i < tn; ++i) {
      pick -= best_d2[i];
      if (pick <= 0.0) {
        chosen = static_cast<uint32_t>(i);
        break;
      }
    }
    out.seeds.push_back(chosen);
  }
  VectorSet centroids(dim, k);
  for (const uint32_t seed : out.seeds) centroids.Append(train->Vector(seed));

  std::vector<uint32_t> assign(tn);
  std::vector<float> d2(tn);
  double objective = 0.0;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    ++out.iterations;
    for (size_t i = 0; i < tn; ++i) {
      assign[i] = SerialNearest(
          centroids, train->Vector(static_cast<VectorId>(i)), &d2[i]);
    }
    double new_objective = 0.0;
    for (size_t i = 0; i < tn; ++i) new_objective += d2[i];
    std::vector<double> sums(k * dim, 0.0);
    std::vector<uint32_t> counts(k, 0);
    for (size_t i = 0; i < tn; ++i) {
      const float* row = train->Vector(static_cast<VectorId>(i));
      for (size_t d = 0; d < dim; ++d) sums[assign[i] * dim + d] += row[d];
      ++counts[assign[i]];
    }
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        ++out.reseeds;
        centroids.Update(static_cast<VectorId>(c),
                         train->Vector(static_cast<VectorId>(
                             rng.UniformInt(tn))));
        continue;
      }
      float* centroid = centroids.MutableVector(static_cast<VectorId>(c));
      const double inv = 1.0 / double(counts[c]);
      for (size_t d = 0; d < dim; ++d) {
        centroid[d] = static_cast<float>(sums[c * dim + d] * inv);
      }
    }
    const bool converged =
        iter > 0 && std::fabs(objective - new_objective) <=
                        1e-6 * std::max(1.0, objective);
    objective = new_objective;
    if (converged) break;
  }

  out.assignment.resize(n);
  std::vector<float> final_d2(n);
  for (size_t i = 0; i < n; ++i) {
    out.assignment[i] = SerialNearest(
        centroids, vectors.Vector(static_cast<VectorId>(i)), &final_d2[i]);
  }
  for (size_t i = 0; i < n; ++i) out.objective += final_d2[i];
  out.centroids = std::move(centroids);
  return out;
}

void ExpectSameBytes(const VectorSet& a, const VectorSet& b) {
  ASSERT_EQ(a.count(), b.count());
  ASSERT_EQ(a.dim(), b.dim());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.count() * a.dim() * 4), 0);
}

// Checks RunKMeans against the serial reference byte for byte: the seeds
// (a run with no Lloyd iteration returns them as its centroids), then the
// full run's centroids, assignment, objective and iteration count.
// Returns the reference's empty-cluster re-seed count.
size_t ExpectMatchesSerial(const VectorSet& data, KMeansOptions options) {
  const SerialKMeans serial = SerialRunKMeans(data, options);
  const KMeansResult result = RunKMeans(data, options);
  ExpectSameBytes(result.centroids, serial.centroids);
  EXPECT_EQ(result.assignment, serial.assignment);
  EXPECT_EQ(std::bit_cast<uint64_t>(result.objective),
            std::bit_cast<uint64_t>(serial.objective));
  EXPECT_EQ(result.iterations_run, serial.iterations);

  options.max_iterations = 0;
  const KMeansResult seeded = RunKMeans(data, options);
  const SerialKMeans serial_seeded = SerialRunKMeans(data, options);
  EXPECT_EQ(serial_seeded.seeds, serial.seeds);
  ExpectSameBytes(seeded.centroids, serial_seeded.centroids);
  EXPECT_EQ(seeded.assignment, serial_seeded.assignment);
  return serial.reseeds;
}

TEST(KMeansTest, RecoversSeparatedBlobs) {
  VectorSet data = ThreeBlobs(100, 1);
  KMeansOptions options;
  options.num_clusters = 3;
  KMeansResult result = RunKMeans(data, options);

  // Each blob must map to a single distinct cluster.
  std::set<uint32_t> blob_clusters;
  for (int blob = 0; blob < 3; ++blob) {
    const uint32_t first = result.assignment[blob * 100];
    for (size_t i = 0; i < 100; ++i) {
      ASSERT_EQ(result.assignment[blob * 100 + i], first)
          << "blob " << blob << " item " << i;
    }
    blob_clusters.insert(first);
  }
  EXPECT_EQ(blob_clusters.size(), 3u);
}

TEST(KMeansTest, AssignmentIsNearestCentroid) {
  VectorSet data = ThreeBlobs(50, 2);
  KMeansOptions options;
  options.num_clusters = 5;
  KMeansResult result = RunKMeans(data, options);
  for (size_t i = 0; i < data.count(); ++i) {
    const uint32_t assigned = result.assignment[i];
    const float assigned_d2 =
        ScalarL2(data.Vector(i), result.centroids.Vector(assigned), 2);
    for (size_t c = 0; c < 5; ++c) {
      const float d2 = ScalarL2(data.Vector(i), result.centroids.Vector(c), 2);
      ASSERT_GE(d2 + 1e-4f, assigned_d2)
          << "vector " << i << " closer to centroid " << c;
    }
  }
}

TEST(KMeansTest, ObjectiveMatchesAssignments) {
  VectorSet data = ThreeBlobs(30, 3);
  KMeansOptions options;
  options.num_clusters = 3;
  KMeansResult result = RunKMeans(data, options);
  double expected = 0.0;
  for (size_t i = 0; i < data.count(); ++i) {
    expected += ScalarL2(data.Vector(i),
                         result.centroids.Vector(result.assignment[i]), 2);
  }
  EXPECT_NEAR(result.objective, expected, 1e-2 * (1.0 + expected));
}

TEST(KMeansTest, DeterministicForSeed) {
  VectorSet data = ThreeBlobs(40, 4);
  KMeansOptions options;
  options.num_clusters = 4;
  options.seed = 99;
  KMeansResult a = RunKMeans(data, options);
  KMeansResult b = RunKMeans(data, options);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_DOUBLE_EQ(a.objective, b.objective);
}

TEST(KMeansTest, SingleCluster) {
  VectorSet data = ThreeBlobs(20, 5);
  KMeansOptions options;
  options.num_clusters = 1;
  KMeansResult result = RunKMeans(data, options);
  EXPECT_EQ(result.centroids.count(), 1u);
  for (uint32_t a : result.assignment) ASSERT_EQ(a, 0u);
  // Single centroid converges to the global mean.
  const auto means = data.DimensionMeans();
  EXPECT_NEAR(result.centroids.Vector(0)[0], means[0], 0.5f);
  EXPECT_NEAR(result.centroids.Vector(0)[1], means[1], 0.5f);
}

TEST(KMeansTest, KEqualsN) {
  VectorSet data(1);
  for (float v : {1.0f, 5.0f, 9.0f}) data.Append(&v);
  KMeansOptions options;
  options.num_clusters = 3;
  options.max_points_per_centroid = 0;  // Train on everything.
  KMeansResult result = RunKMeans(data, options);
  // Every point gets its own cluster; objective ~0.
  EXPECT_NEAR(result.objective, 0.0, 1e-6);
}

TEST(KMeansTest, KMeansPlusPlusBeatsOrMatchesRandomSeeding) {
  VectorSet data = ThreeBlobs(60, 6);
  KMeansOptions pp;
  pp.num_clusters = 3;
  pp.use_kmeans_pp = true;
  KMeansOptions random_seed = pp;
  random_seed.use_kmeans_pp = false;
  const double pp_objective = RunKMeans(data, pp).objective;
  const double random_objective = RunKMeans(data, random_seed).objective;
  // k-means++ should never be drastically worse on separated blobs.
  EXPECT_LE(pp_objective, random_objective * 1.5 + 1e-3);
}

TEST(KMeansTest, NearestCentroidHelper) {
  VectorSet centroids(2);
  const float c0[2] = {0, 0};
  const float c1[2] = {10, 10};
  centroids.Append(c0);
  centroids.Append(c1);
  const float q[2] = {9, 9};
  EXPECT_EQ(NearestCentroid(centroids, q), 1u);
}

TEST(KMeansTest, TrainingSampleCapStillCoversSpace) {
  VectorSet data = ThreeBlobs(200, 7);
  KMeansOptions options;
  options.num_clusters = 3;
  options.max_points_per_centroid = 20;  // Heavy subsampling.
  KMeansResult result = RunKMeans(data, options);
  // All three blobs still discovered.
  std::set<uint32_t> clusters(result.assignment.begin(),
                              result.assignment.end());
  EXPECT_EQ(clusters.size(), 3u);
}

TEST(KMeansTest, MatchesSerialReferenceAboveTheTrainingCap) {
  // 20,000 rows against a cap of 256 x 12 = 3,072 training rows: the
  // subsample, the seeding and Lloyd's loops all run long pool loops. The
  // first half is a tight cluster far from the rest: its squared distances
  // (about 1e-9) lie below the rounding step of the objective's final sum
  // (about 3e-8), so they count when summed first, in row order, and
  // vanish when summed last. A sum that leaves row order changes the
  // objective's bits.
  Rng rng(5);
  constexpr size_t kDim = 24;
  VectorSet data(kDim, 20000);
  std::vector<float> row(kDim);
  for (size_t i = 0; i < 20000; ++i) {
    const bool tight = i < 10000;
    for (float& v : row) {
      v = static_cast<float>(rng.Gaussian()) * (tight ? 0x1p-16f : 30.0f);
    }
    if (tight) {
      row[0] -= 5000.0f;
    } else {
      row[i % 4] += 1000.0f;
    }
    data.Append(row.data());
  }
  KMeansOptions options;
  options.num_clusters = 12;
  options.seed = 99;
  ExpectMatchesSerial(data, options);
}

TEST(KMeansTest, MatchesSerialReferenceThroughEmptyClusterReseeds) {
  // Four distinct points, 600 copies each, and eight clusters: after four
  // seeds every distance is zero, the rest are drawn at random and land on
  // already-seeded points, and the duplicate centroids' clusters come up
  // empty and are re-seeded.
  const float points[4][3] = {{0, 0, 0}, {9, 0, 1}, {0, 7, 2}, {4, 4, 8}};
  VectorSet data(3, 2400);
  for (size_t i = 0; i < 2400; ++i) data.Append(points[i % 4]);
  KMeansOptions options;
  options.num_clusters = 8;
  options.seed = 3;
  EXPECT_GT(ExpectMatchesSerial(data, options), 0u);
}

TEST(KMeansTest, OneRunCountedPerBuild) {
  const VectorSet data = ThreeBlobs(100, 4);
  KMeansOptions options;
  options.num_clusters = 3;
  const uint64_t before = KMeansRunCount();
  RunKMeans(data, options);
  EXPECT_EQ(KMeansRunCount(), before + 1);
}

}  // namespace
}  // namespace pdx
