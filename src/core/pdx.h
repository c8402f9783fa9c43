#ifndef PDX_CORE_PDX_H_
#define PDX_CORE_PDX_H_

/// \file pdx.h
/// Umbrella header for the PDX library.
///
/// PDX (Partition Dimensions Across) is a data layout for vector similarity
/// search: blocks of vectors stored dimension-major, searched dimension-by-
/// dimension with pruning (Kuffo, Krippner & Boncz, SIGMOD 2025).
///
/// Typical usage — the runtime facade (any layout x pruner combination):
///
///   pdx::VectorSet data = ...;                         // N x D float32
///   pdx::SearcherConfig config;                        // flat PDX-BOND
///   config.k = 10;
///   auto searcher = pdx::MakeSearcher(data, config).value();
///   auto nn = searcher->Search(query);
///
/// Approximate search on an IVF index with ADSampling pruning, served in
/// multi-threaded batches on a pool the caller owns, with one work record
/// (phase times, values scanned, pruning power) per query:
///
///   config.layout = pdx::SearcherLayout::kIvf;
///   config.pruner = pdx::PrunerKind::kAdsampling;
///   config.nprobe = 32;
///   auto ads = pdx::MakeSearcher(data, config).value();
///   pdx::ThreadPool pool(8);
///   std::vector<pdx::PdxearchProfile> work(num_queries);
///   auto all_nn = ads->SearchBatchWith(0, {}, queries, num_queries, &pool,
///                                      work.data());
///
/// SearchBatch(queries, num_queries) runs the same batch on a pool the
/// searcher owns, sized by config.threads.
///
/// Serving many clients asynchronously — named collections, one shared
/// pool, futures with admission control (src/serve/):
///
///   pdx::SearchService service;
///   service.AddCollection("docs", data, config);
///   auto ticket = service.Submit("docs", query);
///   pdx::QueryResult result = ticket.result.get();
///
/// Sharding one hot collection across searchers (scatter-gather top-k,
/// exact merge — core/sharded_searcher.h):
///
///   pdx::ShardingOptions sharding;
///   sharding.num_shards = 4;
///   auto sharded = pdx::MakeShardedSearcher(data, config, sharding).value();
///   service.AddCollection("hot", data, config, sharding);  // or hosted
///
/// MakeSearcher is the one way to build a searcher. Code that studies the
/// engine itself (kernel or pruner experiments) can still drive a
/// PdxearchEngine<Pruner> (core/pdxearch.h) over a PdxStore directly.

#include "common/status.h"    // IWYU pragma: export
#include "common/types.h"     // IWYU pragma: export
#include "core/any_searcher.h"   // IWYU pragma: export
#include "core/pdxearch.h"    // IWYU pragma: export
#include "core/pruning_trace.h"  // IWYU pragma: export
#include "core/sharded_searcher.h"  // IWYU pragma: export
#include "index/flat.h"       // IWYU pragma: export
#include "index/ivf.h"        // IWYU pragma: export
#include "index/topk.h"       // IWYU pragma: export
#include "pruning/adsampling.h"  // IWYU pragma: export
#include "pruning/bond.h"        // IWYU pragma: export
#include "pruning/bsa.h"         // IWYU pragma: export
#include "pruning/pdx_bond.h"    // IWYU pragma: export
#include "serve/search_service.h"  // IWYU pragma: export
#include "storage/fvecs_io.h"    // IWYU pragma: export
#include "storage/pdx_store.h"   // IWYU pragma: export
#include "storage/vector_set.h"  // IWYU pragma: export

#endif  // PDX_CORE_PDX_H_
