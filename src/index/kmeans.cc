#include "index/kmeans.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/parallel.h"
#include "common/random.h"
#include "kernels/nary_kernels.h"

namespace pdx {

namespace {

std::atomic<uint64_t> g_kmeans_runs{0};

}  // namespace

uint64_t KMeansRunCount() {
  return g_kmeans_runs.load(std::memory_order_relaxed);
}

namespace {

// k-means++ seeding: each next seed is drawn with probability proportional
// to its squared distance from the nearest already-chosen seed. The
// distance update runs on the pool, one row per item; the total and the
// pick stay one sequential double sum in row order, so the seeds are the
// ones a serial loop draws.
std::vector<uint32_t> KMeansPlusPlusSeeds(const VectorSet& train, size_t k,
                                          Rng& rng) {
  const size_t n = train.count();
  const size_t dim = train.dim();
  std::vector<uint32_t> seeds;
  seeds.reserve(k);
  seeds.push_back(static_cast<uint32_t>(rng.UniformInt(n)));

  std::vector<float> best_d2(n, std::numeric_limits<float>::infinity());
  for (size_t chosen = 1; chosen < k; ++chosen) {
    const float* last_seed = train.Vector(seeds.back());
    ParallelFor(n, [&](size_t i) {
      const float d2 = NaryL2(train.Vector(static_cast<VectorId>(i)),
                              last_seed, dim);
      best_d2[i] = std::min(best_d2[i], d2);
    });
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) total += best_d2[i];
    if (total <= 0.0) {
      // All remaining points coincide with a seed; fall back to random.
      seeds.push_back(static_cast<uint32_t>(rng.UniformInt(n)));
      continue;
    }
    double pick = rng.UniformDouble() * total;
    uint32_t chosen_index = static_cast<uint32_t>(n - 1);
    for (size_t i = 0; i < n; ++i) {
      pick -= best_d2[i];
      if (pick <= 0.0) {
        chosen_index = static_cast<uint32_t>(i);
        break;
      }
    }
    seeds.push_back(chosen_index);
  }
  return seeds;
}

}  // namespace

uint32_t NearestCentroid(const VectorSet& centroids, const float* query) {
  uint32_t best = 0;
  float best_d2 = std::numeric_limits<float>::infinity();
  for (size_t c = 0; c < centroids.count(); ++c) {
    const float d2 = NaryL2(query, centroids.Vector(static_cast<VectorId>(c)),
                            centroids.dim());
    if (d2 < best_d2) {
      best_d2 = d2;
      best = static_cast<uint32_t>(c);
    }
  }
  return best;
}

KMeansResult RunKMeans(const VectorSet& vectors,
                       const KMeansOptions& options) {
  g_kmeans_runs.fetch_add(1, std::memory_order_relaxed);
  const size_t n = vectors.count();
  const size_t dim = vectors.dim();
  const size_t k = options.num_clusters;
  assert(k >= 1 && k <= n);

  Rng rng(options.seed);

  // Training subsample (deterministic): cap at max_points_per_centroid * k.
  const size_t train_cap =
      options.max_points_per_centroid > 0
          ? options.max_points_per_centroid * k
          : n;
  VectorSet sampled_storage;
  const VectorSet* train = &vectors;
  if (n > train_cap) {
    std::vector<VectorId> pick(n);
    std::iota(pick.begin(), pick.end(), 0);
    rng.Shuffle(pick);
    pick.resize(train_cap);
    sampled_storage = vectors.Select(pick);
    train = &sampled_storage;
  }
  const size_t tn = train->count();

  // Seeding.
  std::vector<uint32_t> seeds;
  if (options.use_kmeans_pp) {
    seeds = KMeansPlusPlusSeeds(*train, k, rng);
  } else {
    seeds = rng.SampleWithoutReplacement(static_cast<uint32_t>(tn),
                                         static_cast<uint32_t>(k));
  }
  VectorSet centroids(dim, k);
  for (uint32_t s : seeds) centroids.Append(train->Vector(s));

  // Lloyd iterations on the training sample. Assignment (the O(n*k*D)
  // part) is read-only per point and parallelized; centroid updates stay
  // serial.
  std::vector<uint32_t> train_assign(tn, 0);
  std::vector<float> train_best_d2(tn, 0.0f);
  std::vector<double> sums(k * dim);
  std::vector<uint32_t> counts(k);
  double objective = 0.0;
  int iterations = 0;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    ++iterations;
    ParallelFor(tn, [&](size_t i) {
      const float* row = train->Vector(static_cast<VectorId>(i));
      uint32_t best = 0;
      float best_d2 = std::numeric_limits<float>::infinity();
      for (size_t c = 0; c < k; ++c) {
        const float d2 =
            NaryL2(row, centroids.Vector(static_cast<VectorId>(c)), dim);
        if (d2 < best_d2) {
          best_d2 = d2;
          best = static_cast<uint32_t>(c);
        }
      }
      train_assign[i] = best;
      train_best_d2[i] = best_d2;
    });
    double new_objective = 0.0;
    for (size_t i = 0; i < tn; ++i) new_objective += train_best_d2[i];

    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0u);
    for (size_t i = 0; i < tn; ++i) {
      const float* row = train->Vector(static_cast<VectorId>(i));
      double* sum = sums.data() + size_t(train_assign[i]) * dim;
      for (size_t d = 0; d < dim; ++d) sum[d] += row[d];
      ++counts[train_assign[i]];
    }
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Empty cluster: re-seed at a random training point, jittered off
        // the largest cluster's centroid region.
        const uint32_t donor = static_cast<uint32_t>(rng.UniformInt(tn));
        centroids.Update(static_cast<VectorId>(c), train->Vector(donor));
        continue;
      }
      float* centroid = centroids.MutableVector(static_cast<VectorId>(c));
      const double inv = 1.0 / double(counts[c]);
      const double* sum = sums.data() + c * dim;
      for (size_t d = 0; d < dim; ++d) {
        centroid[d] = static_cast<float>(sum[d] * inv);
      }
    }

    // Converged when the objective stops improving meaningfully.
    if (iter > 0 && std::fabs(objective - new_objective) <=
                        1e-6 * std::max(1.0, objective)) {
      objective = new_objective;
      break;
    }
    objective = new_objective;
  }

  // Final assignment of the *full* collection.
  KMeansResult result;
  result.assignment.resize(n);
  std::vector<float> final_d2(n, 0.0f);
  ParallelFor(n, [&](size_t i) {
    const float* row = vectors.Vector(static_cast<VectorId>(i));
    uint32_t best = 0;
    float best_d2 = std::numeric_limits<float>::infinity();
    for (size_t c = 0; c < k; ++c) {
      const float d2 =
          NaryL2(row, centroids.Vector(static_cast<VectorId>(c)), dim);
      if (d2 < best_d2) {
        best_d2 = d2;
        best = static_cast<uint32_t>(c);
      }
    }
    result.assignment[i] = best;
    final_d2[i] = best_d2;
  });
  result.objective = 0.0;
  for (size_t i = 0; i < n; ++i) result.objective += final_d2[i];
  result.centroids = std::move(centroids);
  result.iterations_run = iterations;
  return result;
}

}  // namespace pdx
