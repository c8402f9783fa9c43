// Serving demo: host two named collections behind one async SearchService
// and query them with futures, callbacks, deadlines, and backpressure.
//
//   $ ./serve_demo
//
// The service owns ONE thread pool shared by every collection; client
// threads submit and get a std::future per query (or a callback), while
// replicated dispatcher threads each micro-batch queued queries for the
// same collection into one knob-explicit SearchBatchWith call on their own
// slot band — so batches run concurrently, even against one hot
// collection. Results are identical to direct sequential Search.

#include <chrono>
#include <cstdio>
#include <future>
#include <vector>

#include "benchlib/datagen.h"
#include "core/pdx.h"
#include "serve/search_service.h"

int main() {
  using namespace std::chrono_literals;

  // 1. Two toy collections with different shapes and search configs.
  pdx::SyntheticSpec doc_spec;
  doc_spec.name = "docs";
  doc_spec.dim = 96;
  doc_spec.count = 20000;
  doc_spec.num_queries = 8;
  pdx::Dataset docs = pdx::GenerateDataset(doc_spec);

  pdx::SyntheticSpec img_spec;
  img_spec.name = "images";
  img_spec.dim = 128;
  img_spec.count = 30000;
  img_spec.num_queries = 8;
  img_spec.distribution = pdx::ValueDistribution::kSkewed;
  pdx::Dataset images = pdx::GenerateDataset(img_spec);

  // 2. One service, one shared pool. "docs" serves exact flat PDX-BOND,
  //    sharded across two searchers so one hot collection can use the
  //    whole pool; "images" serves approximate IVF + ADSampling.
  pdx::ServiceConfig service_config;
  service_config.threads = 4;
  service_config.max_pending = 256;
  // Two replicated dispatchers: batches for "docs" and "images" (or two
  // batches for one hot collection) dispatch concurrently, each on its own
  // slot band of the shared pool's engines.
  service_config.dispatchers = 2;
  pdx::SearchService service(service_config);

  pdx::SearcherConfig docs_config;  // Defaults: flat PDX-BOND, k=10.
  docs_config.k = 5;
  pdx::ShardingOptions docs_sharding;
  docs_sharding.num_shards = 2;
  pdx::SearcherConfig images_config;
  images_config.layout = pdx::SearcherLayout::kIvf;
  images_config.pruner = pdx::PrunerKind::kAdsampling;
  images_config.k = 5;
  images_config.nprobe = 16;

  for (auto status : {service.AddCollection("docs", docs.data, docs_config,
                                            docs_sharding),
                      service.AddCollection("images", images.data,
                                            images_config)}) {
    if (!status.ok()) {
      std::printf("AddCollection failed: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  std::printf(
      "serving %zu collections on a %zu-thread shared pool, "
      "%zu dispatchers\n",
      service.CollectionNames().size(), service.pool_threads(),
      service.options().dispatchers);

  // 3. Futures: fire every query at both collections, then gather. The
  //    submitting thread never runs a search itself.
  std::vector<pdx::QueryTicket> tickets;
  for (size_t q = 0; q < docs.queries.count(); ++q) {
    tickets.push_back(service.Submit("docs", docs.queries.Vector(q)));
  }
  for (size_t q = 0; q < images.queries.count(); ++q) {
    tickets.push_back(service.Submit("images", images.queries.Vector(q)));
  }
  for (pdx::QueryTicket& ticket : tickets) {
    pdx::QueryResult r = ticket.result.get();
    std::printf("  [%s] query %llu: %s, %zu neighbors, queue %.2fms, "
                "total %.2fms\n",
                r.collection.c_str(), static_cast<unsigned long long>(r.id),
                r.status.ToString().c_str(), r.neighbors.size(), r.queue_ms,
                r.total_ms);
  }

  // 4. Callback flavor plus a per-query override (k=3) and a deadline.
  pdx::QueryOptions options;
  options.k = 3;
  options.timeout = 50ms;
  std::promise<void> callback_done;
  service.Submit("docs", docs.queries.Vector(0), options,
                 [&callback_done](pdx::QueryResult r) {
                   std::printf("  callback: %s with %zu neighbors\n",
                               r.status.ToString().c_str(),
                               r.neighbors.size());
                   callback_done.set_value();
                 });
  callback_done.get_future().wait();

  // 5. Tracing: a query submitted with trace=true carries a QueryTrace —
  //    the per-stage breakdown plus the engine's search-work counters
  //    (what GET /metrics aggregates and "trace": true returns on the
  //    wire). Untraced queries pay nothing for this.
  pdx::QueryOptions traced;
  traced.trace = true;
  traced.request_id = "demo-trace-1";
  pdx::QueryResult traced_result =
      service.Submit("images", images.queries.Vector(1), traced).result.get();
  if (traced_result.trace != nullptr) {
    const pdx::QueryTrace& t = *traced_result.trace;
    std::printf(
        "  trace %s: queue %.3fms dispatch %.3fms search %.3fms "
        "deliver %.3fms total %.3fms\n",
        t.request_id.c_str(), t.queue_ms, t.stage_ms, t.search_ms,
        t.deliver_ms, t.total_ms);
    std::printf(
        "    work: %llu blocks, %llu vectors pruned, %llu values scanned, "
        "pruning power %.1f%%\n",
        static_cast<unsigned long long>(t.counters.blocks_visited),
        static_cast<unsigned long long>(t.counters.vectors_pruned),
        static_cast<unsigned long long>(t.counters.values_scanned),
        100.0 * t.counters.pruning_power());
  }

  // 6. Stats snapshot: per-collection QPS, latency percentiles, shard
  //    counts, and how the replicated dispatchers split the dispatch work.
  const pdx::ServiceStats stats = service.Stats();
  std::printf("  simd tier: %s\n", stats.isa.c_str());
  for (size_t d = 0; d < stats.dispatchers.size(); ++d) {
    std::printf("  dispatcher %zu: %llu batches, busy %.1f%%\n", d,
                static_cast<unsigned long long>(stats.dispatchers[d].dispatches),
                100.0 * stats.dispatchers[d].busy_fraction);
  }
  for (const auto& [name, cs] : stats.collections) {
    std::printf("  %s: admitted=%zu completed=%zu dispatches=%zu shards=%zu "
                "latency{%s}\n",
                name.c_str(), cs.admitted, cs.completed, cs.dispatches,
                cs.shards, cs.latency.ToString().c_str());
  }

  // 7. The slow-query log: every collection retains its worst queries by
  //    total latency (traced or not) — GET /collections/<name>/slowlog on
  //    the wire, SlowLog() in process.
  for (const auto& name : service.CollectionNames()) {
    auto slowlog = service.SlowLog(name);
    if (!slowlog.ok()) continue;
    std::printf("  slowlog[%s]: %zu entries\n", name.c_str(),
                slowlog.value().size());
    for (const pdx::SlowQueryEntry& entry : slowlog.value()) {
      std::printf(
          "    #%llu %s: queue %.3fms search %.3fms total %.3fms "
          "(%llu values scanned)\n",
          static_cast<unsigned long long>(entry.id), entry.outcome.c_str(),
          entry.queue_ms, entry.search_ms, entry.total_ms,
          static_cast<unsigned long long>(entry.counters.values_scanned));
    }
  }
  // Destruction shuts down cleanly: in-flight work finishes, queued
  // queries cancel, every future resolves.
  return 0;
}
