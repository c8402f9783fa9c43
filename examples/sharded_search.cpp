// Sharded scatter-gather search: split one collection across N searchers
// and fan every query out to all of them, merging the per-shard top-k
// heaps into one exact global top-k.
//
//   $ ./sharded_search
//
// With an exact pruner (here PDX-BOND) the sharded searcher returns the
// same neighbors as the unsharded one over the same data — sharding buys
// parallel hardware, not a different answer. Only k-sized result lists
// cross shard boundaries, so PDX's block skipping runs intact inside each
// shard.

#include <cstdio>
#include <vector>

#include "benchlib/datagen.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "core/pdx.h"

int main() {
  // 1. A toy collection.
  pdx::SyntheticSpec spec;
  spec.name = "sharded-demo";
  spec.dim = 96;
  spec.count = 40000;
  spec.num_queries = 64;
  pdx::Dataset dataset = pdx::GenerateDataset(spec);

  pdx::SearcherConfig config;  // Defaults: flat PDX-BOND, exact search.
  config.k = 10;
  config.threads = 4;  // The sharded facade fans out on its own pool.

  // 2. Unsharded reference vs the same data split across 4 shards.
  auto reference = pdx::MakeSearcher(dataset.data, config);
  pdx::ShardingOptions sharding;
  sharding.num_shards = 4;
  sharding.assignment = pdx::ShardAssignment::kRoundRobin;
  auto sharded = pdx::MakeShardedSearcher(dataset.data, config, sharding);
  if (!reference.ok() || !sharded.ok()) {
    std::printf("construction failed\n");
    return 1;
  }
  const pdx::SearcherShape shape = sharded.value()->shape();
  std::printf("hosting %zu vectors in %zu blocks on %zu shards (%s "
              "assignment)\n",
              shape.count, shape.num_blocks, shape.num_shards,
              pdx::ShardAssignmentName(sharding.assignment));

  // 3. Parity: every query returns the same global ids either way.
  size_t mismatches = 0;
  for (size_t q = 0; q < dataset.queries.count(); ++q) {
    const auto expected = reference.value()->Search(dataset.queries.Vector(q));
    const auto actual = sharded.value()->Search(dataset.queries.Vector(q));
    if (actual.size() != expected.size()) {
      ++mismatches;
      continue;
    }
    for (size_t i = 0; i < expected.size(); ++i) {
      if (actual[i].id != expected[i].id) {
        ++mismatches;
        break;
      }
    }
  }
  std::printf("parity over %zu queries: %zu mismatches\n",
              dataset.queries.count(), mismatches);

  // 4. A batch tiles (shard x query) work over the pool; each query's work
  //    record shows it ran on every shard: a flat search visits every
  //    block of every shard.
  const size_t nq = dataset.queries.count();
  std::vector<pdx::PdxearchProfile> work(nq);
  pdx::ThreadPool pool(4);
  pdx::Timer wall;
  sharded.value()->SearchBatchWith(0, {}, dataset.queries.data(), nq, &pool,
                                   work.data());
  std::printf("batched %zu queries across shards in %.2f ms\n", nq,
              wall.ElapsedMillis());
  size_t partial = 0;
  for (const pdx::PdxearchProfile& w : work) {
    if (w.blocks_visited != shape.num_blocks) ++partial;
  }
  std::printf("queries that skipped a shard's blocks: %zu\n", partial);
  return mismatches == 0 && partial == 0 ? 0 : 1;
}
