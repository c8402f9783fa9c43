// Wire concurrency stress: M client threads x pipelined requests against a
// hot (unsharded), a sharded and a swapped collection, with one churn
// thread adding/removing a fourth name and another replacing the swapped
// one (PUT and load, alternating) the whole time. Every response must be
// accounted for, every search answer must be byte-exact against the
// in-process reference, and the final /stats snapshot must balance. Runs
// in the TSan and ASan CI jobs next to serve_dispatch_stress_test — the
// data-race and lifetime gate for the whole net/ + serve/ stack.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "benchlib/datagen.h"
#include "core/sharded_searcher.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/json.h"
#include "net/search_handler.h"
#include "serve/search_service.h"

namespace pdx {
namespace {

JsonValue QueryJson(const float* query, size_t dim) {
  JsonValue out = JsonValue::Array();
  for (size_t d = 0; d < dim; ++d) out.Append(static_cast<double>(query[d]));
  return out;
}

TEST(HttpStressTest, PipelinedClientsAgainstHotAndShardedCollections) {
  SyntheticSpec spec;
  spec.name = "net-stress";
  spec.dim = 16;
  spec.count = 2000;
  spec.num_queries = 8;
  spec.num_clusters = 8;
  spec.seed = 83;
  spec.distribution = ValueDistribution::kNormal;
  Dataset data = GenerateDataset(spec);

  ServiceConfig service_config;
  service_config.threads = 2;
  service_config.dispatchers = 2;
  service_config.max_pending = 4096;
  SearchService service(service_config);

  SearcherConfig hot;  // flat / bond: exact, so parity is byte-exact.
  ASSERT_TRUE(service.AddCollection("hot", data.data, hot).ok());
  ShardingOptions sharding;
  sharding.num_shards = 3;
  ASSERT_TRUE(service.AddCollection("sharded", data.data, hot, sharding).ok());
  // "swap" is replaced over and over by rebuilds and reloads of the same
  // rows, so every incarnation answers exactly like the first.
  const VectorSet swap_rows =
      VectorSet::FromRowMajor(data.data.Vector(0), 300, data.data.dim());
  const std::string swap_path = testing::TempDir() + "/http_stress_swap.pdxc";
  ASSERT_TRUE(service.AddCollection("swap", swap_rows, hot).ok());
  ASSERT_TRUE(service.SaveCollection("swap", swap_path).ok());

  SearchHandler handler(service);
  HttpServer server;
  ASSERT_TRUE(server.Start(handler.AsHttpHandler()).ok());

  // Ground truth, computed sequentially up front — per target, because a
  // sharded build's distances can differ from the unsharded ones by ULPs
  // (different block boundaries per shard slice).
  auto reference_hot = MakeSearcher(data.data, hot);
  auto reference_sharded = MakeShardedSearcher(data.data, hot, sharding);
  auto reference_swap = MakeSearcher(swap_rows, hot);
  ASSERT_TRUE(reference_hot.ok());
  ASSERT_TRUE(reference_sharded.ok());
  ASSERT_TRUE(reference_swap.ok());
  const size_t nq = data.queries.count();
  std::vector<std::vector<Neighbor>> expected_hot(nq), expected_sharded(nq),
      expected_swap(nq);
  std::vector<std::string> bodies(nq);
  for (size_t q = 0; q < nq; ++q) {
    expected_hot[q] = reference_hot.value()->Search(
        data.queries.Vector(static_cast<VectorId>(q)));
    expected_sharded[q] = reference_sharded.value()->Search(
        data.queries.Vector(static_cast<VectorId>(q)));
    expected_swap[q] = reference_swap.value()->Search(
        data.queries.Vector(static_cast<VectorId>(q)));
    JsonValue request = JsonValue::Object();
    request.Set("query",
                QueryJson(data.queries.Vector(static_cast<VectorId>(q)),
                          data.queries.dim()));
    bodies[q] = WriteJson(request);
  }

  constexpr size_t kClients = 6;
  constexpr size_t kRounds = 4;
  constexpr size_t kPipeline = 16;
  std::atomic<size_t> requests{0};
  std::atomic<size_t> responses{0};
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> non_200{0};

  // A churn thread PUTs and DELETEs a third collection the whole time:
  // the searchers under "hot"/"sharded" must be completely unaffected.
  std::atomic<bool> stop_churn{false};
  std::thread churn([&] {
    HttpClient client;
    if (!client.Connect("127.0.0.1", server.port()).ok()) return;
    JsonValue put = JsonValue::Object();
    JsonValue rows = JsonValue::Array();
    for (size_t i = 0; i < 64; ++i) {
      rows.Append(QueryJson(data.data.Vector(static_cast<VectorId>(i)),
                            data.data.dim()));
    }
    put.Set("vectors", std::move(rows));
    const std::string body = WriteJson(put);
    while (!stop_churn.load()) {
      Result<HttpResponse> created =
          client.Roundtrip("PUT", "/collections/churn", body);
      if (!created.ok() || created.value().status != 201) return;
      Result<HttpResponse> removed =
          client.Roundtrip("DELETE", "/collections/churn");
      if (!removed.ok() || removed.value().status != 200) return;
    }
  });

  // The replacer: a replace is one step, so the clients searching "swap"
  // meanwhile must never see it unhosted (404) or their queued queries
  // cancelled (503). They keep searching until every replace is done.
  constexpr size_t kReplaces = 16;
  std::atomic<bool> replaced_all{false};
  std::atomic<size_t> replace_failures{0};
  std::thread replacer([&] {
    JsonValue rows = JsonValue::Array();
    for (size_t i = 0; i < swap_rows.count(); ++i) {
      rows.Append(QueryJson(swap_rows.Vector(static_cast<VectorId>(i)),
                            swap_rows.dim()));
    }
    JsonValue put = JsonValue::Object();
    put.Set("vectors", std::move(rows));
    JsonValue load = JsonValue::Object();
    load.Set("path", swap_path);
    HttpClient client;
    if (client.Connect("127.0.0.1", server.port()).ok()) {
      for (size_t i = 0; i < kReplaces; ++i) {
        Result<HttpResponse> done =
            i % 2 == 0
                ? client.Roundtrip("PUT", "/collections/swap", WriteJson(put))
                : client.Roundtrip("PUT", "/collections/swap/load",
                                   WriteJson(load));
        if (!done.ok() || done.value().status != 201) {
          replace_failures.fetch_add(1);
          break;
        }
      }
    } else {
      replace_failures.fetch_add(1);
    }
    replaced_all.store(true);
  });

  std::vector<std::thread> clients;
  for (size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      HttpClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) {
        mismatches.fetch_add(1);
        return;
      }
      const char* const targets[] = {"/collections/hot/search",
                                     "/collections/sharded/search",
                                     "/collections/swap/search"};
      const std::vector<std::vector<Neighbor>>* const references[] = {
          &expected_hot, &expected_sharded, &expected_swap};
      const std::string target = targets[t % 3];
      const std::vector<std::vector<Neighbor>>& expected = *references[t % 3];
      const bool swap = t % 3 == 2;
      for (size_t round = 0; round < kRounds || (swap && !replaced_all.load());
           ++round) {
        // Fill the pipeline, then drain it: every request gets exactly one
        // response, in order.
        std::vector<size_t> sent;
        for (size_t i = 0; i < kPipeline; ++i) {
          const size_t q = (t + round + i) % nq;
          if (!client.SendRequest("POST", target, bodies[q]).ok()) {
            mismatches.fetch_add(1);
            return;
          }
          requests.fetch_add(1);
          sent.push_back(q);
        }
        for (const size_t q : sent) {
          Result<HttpResponse> response = client.ReadResponse();
          if (!response.ok()) {
            mismatches.fetch_add(1);
            return;
          }
          responses.fetch_add(1);
          if (response.value().status != 200) {
            non_200.fetch_add(1);
            continue;
          }
          Result<JsonValue> body = ParseJson(response.value().body);
          if (!body.ok()) {
            mismatches.fetch_add(1);
            continue;
          }
          const JsonValue* neighbors = body.value().Find("neighbors");
          if (neighbors == nullptr ||
              neighbors->size() != expected[q].size()) {
            mismatches.fetch_add(1);
            continue;
          }
          for (size_t i = 0; i < expected[q].size(); ++i) {
            const JsonValue& hit = neighbors->items()[i];
            if (static_cast<VectorId>(hit.Find("id")->AsNumber()) !=
                    expected[q][i].id ||
                static_cast<float>(hit.Find("distance")->AsNumber()) !=
                    expected[q][i].distance) {
              mismatches.fetch_add(1);
              break;
            }
          }
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  replacer.join();
  stop_churn.store(true);
  churn.join();

  // Every pipelined request came back, every answer exact, none failed —
  // the ones racing the replaces included.
  EXPECT_GE(requests.load(), kClients * kRounds * kPipeline);
  EXPECT_EQ(responses.load(), requests.load());
  EXPECT_EQ(non_200.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(replace_failures.load(), 0u);

  // Final wire snapshot balances: dispatcher counts sum to collection
  // dispatches, and completions cover every search served.
  HttpClient stats_client;
  ASSERT_TRUE(stats_client.Connect("127.0.0.1", server.port()).ok());
  Result<HttpResponse> stats = stats_client.Roundtrip("GET", "/stats");
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats.value().status, 200);
  Result<JsonValue> body = ParseJson(stats.value().body);
  ASSERT_TRUE(body.ok());
  double dispatcher_total = 0;
  for (const JsonValue& ds : body.value().Find("dispatchers")->items()) {
    dispatcher_total += ds.Find("dispatches")->AsNumber();
  }
  double collection_total = 0;
  double completed_total = 0;
  for (const auto& [name, entry] :
       body.value().Find("collections")->members()) {
    collection_total += entry.Find("dispatches")->AsNumber();
    completed_total += entry.Find("completed")->AsNumber();
  }
  EXPECT_EQ(dispatcher_total, collection_total) << stats.value().body;
  // Every search served; the churn collection served none.
  EXPECT_GE(completed_total, static_cast<double>(responses.load()));

  server.Stop();
  service.Shutdown();
  std::remove(swap_path.c_str());
}

/// Many short-lived connections racing the acceptor's reaping: no leak,
/// no hang, every connection served (or crisply refused at the 503 cap).
TEST(HttpStressTest, ConnectionChurnAndCapacityCap) {
  SyntheticSpec spec;
  spec.name = "net-churn";
  spec.dim = 8;
  spec.count = 400;
  spec.num_queries = 4;
  spec.num_clusters = 4;
  spec.seed = 85;
  spec.distribution = ValueDistribution::kNormal;
  Dataset data = GenerateDataset(spec);

  SearchService service;
  SearcherConfig config;
  ASSERT_TRUE(service.AddCollection("flat", data.data, config).ok());
  SearchHandler handler(service);
  HttpServerConfig server_config;
  server_config.max_connections = 8;
  HttpServer server(server_config);
  ASSERT_TRUE(server.Start(handler.AsHttpHandler()).ok());

  constexpr size_t kThreads = 4;
  constexpr size_t kConnectionsPerThread = 25;
  std::atomic<size_t> served{0};
  std::atomic<size_t> refused{0};
  std::atomic<size_t> broken{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (size_t i = 0; i < kConnectionsPerThread; ++i) {
        HttpClient client;
        if (!client.Connect("127.0.0.1", server.port()).ok()) {
          broken.fetch_add(1);
          continue;
        }
        Result<HttpResponse> response = client.Roundtrip("GET", "/healthz");
        if (!response.ok()) {
          broken.fetch_add(1);
        } else if (response.value().status == 200) {
          served.fetch_add(1);
        } else if (response.value().status == 503) {
          refused.fetch_add(1);  // Over the connection cap: explicit, not a hang.
        } else {
          broken.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(broken.load(), 0u);
  EXPECT_EQ(served.load() + refused.load(), kThreads * kConnectionsPerThread);
  // With 4 concurrent clients against a cap of 8 the cap should never
  // actually bind — but a few refusals are acceptable if reaping lags.
  EXPECT_GT(served.load(), 0u);
  server.Stop();
}

}  // namespace
}  // namespace pdx
