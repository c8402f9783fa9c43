// End-to-end wire tests: a real HttpServer on an ephemeral loopback port,
// a real socket client, and the full stack underneath — SearchHandler ->
// SearchService -> Searcher. Covers add/search/stats/remove round trips,
// exact parity of wire results vs in-process Searcher::Search, and every
// Status -> HTTP error mapping (404 unknown collection, 400 bad JSON,
// 413 oversized body, 429 queue full, 504 expired deadline).

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <regex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "benchlib/datagen.h"
#include "common/random.h"
#include "core/sharded_searcher.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/json.h"
#include "net/search_handler.h"
#include "serve/search_service.h"

namespace pdx {
namespace {

using namespace std::chrono_literals;

Dataset MakeData(size_t dim = 16, uint64_t seed = 77, size_t count = 1500,
                 size_t num_queries = 8) {
  SyntheticSpec spec;
  spec.name = "net-test";
  spec.dim = dim;
  spec.count = count;
  spec.num_queries = num_queries;
  spec.num_clusters = 8;
  spec.seed = seed;
  spec.distribution = ValueDistribution::kNormal;
  return GenerateDataset(spec);
}

/// The whole wire stack for one test: service + handler + server, torn
/// down in the safe order (server first — responders reference the
/// handler's service).
struct WireStack {
  explicit WireStack(ServiceConfig service_config = {},
                     HttpServerConfig server_config = {})
      : service(service_config), handler(service), server(server_config) {
    Status started = server.Start(handler.AsHttpHandler());
    EXPECT_TRUE(started.ok()) << started.ToString();
  }
  ~WireStack() { server.Stop(); }

  HttpClient NewClient() {
    HttpClient client;
    Status connected = client.Connect("127.0.0.1", server.port());
    EXPECT_TRUE(connected.ok()) << connected.ToString();
    return client;
  }

  SearchService service;
  SearchHandler handler;
  HttpServer server;
};

/// Serializes `vectors` as the PUT payload's "vectors" array.
JsonValue VectorsJson(const VectorSet& vectors) {
  JsonValue rows = JsonValue::Array();
  for (size_t i = 0; i < vectors.count(); ++i) {
    JsonValue row = JsonValue::Array();
    const float* v = vectors.Vector(static_cast<VectorId>(i));
    for (size_t d = 0; d < vectors.dim(); ++d) {
      row.Append(static_cast<double>(v[d]));
    }
    rows.Append(std::move(row));
  }
  return rows;
}

JsonValue QueryJson(const float* query, size_t dim) {
  JsonValue out = JsonValue::Array();
  for (size_t d = 0; d < dim; ++d) out.Append(static_cast<double>(query[d]));
  return out;
}

JsonValue MustParseBody(const HttpResponse& response) {
  Result<JsonValue> parsed = ParseJson(response.body);
  EXPECT_TRUE(parsed.ok()) << response.body;
  return parsed.ok() ? std::move(parsed).value() : JsonValue();
}

/// Client-side reconstitution of a transported failure: error bodies are
/// {"error", "status"}, and StatusCodeFromName + Status::FromCode rebuild
/// the Status a server-side caller would have seen.
Status WireStatus(const HttpResponse& response) {
  const JsonValue body = MustParseBody(response);
  const JsonValue* code = body.Find("status");
  const JsonValue* error = body.Find("error");
  return Status::FromCode(
      StatusCodeFromName(code != nullptr ? code->AsString() : ""),
      error != nullptr && error->is_string() ? error->AsString() : "");
}

/// Asserts the wire "neighbors" array is exactly `expected` — id for id,
/// distance for distance (the JSON number round trip is float-exact).
void ExpectWireNeighbors(const JsonValue& neighbors,
                         const std::vector<Neighbor>& expected,
                         const std::string& label) {
  ASSERT_TRUE(neighbors.is_array()) << label;
  ASSERT_EQ(neighbors.size(), expected.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    const JsonValue& hit = neighbors.items()[i];
    ASSERT_TRUE(hit.is_object()) << label;
    EXPECT_EQ(static_cast<VectorId>(hit.Find("id")->AsNumber()),
              expected[i].id)
        << label << " rank " << i;
    EXPECT_EQ(static_cast<float>(hit.Find("distance")->AsNumber()),
              expected[i].distance)
        << label << " rank " << i;
  }
}

// --- Add / search / stats / remove over real sockets ------------------------

TEST(HttpServiceTest, WireLifecycleWithExactSearchParity) {
  Dataset data = MakeData();
  WireStack stack;
  HttpClient client = stack.NewClient();

  // PUT: build an IVF/bond collection from a row-major float payload.
  JsonValue put = JsonValue::Object();
  put.Set("vectors", VectorsJson(data.data));
  put.Set("layout", "ivf");
  put.Set("pruner", "bond");
  put.Set("k", static_cast<size_t>(10));
  put.Set("nprobe", static_cast<size_t>(4));
  Result<HttpResponse> created =
      client.Roundtrip("PUT", "/collections/demo", WriteJson(put));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ASSERT_EQ(created.value().status, 201) << created.value().body;
  {
    const JsonValue info = MustParseBody(created.value());
    EXPECT_EQ(info.Find("name")->AsString(), "demo");
    EXPECT_EQ(info.Find("dim")->AsNumber(), data.data.dim());
    EXPECT_EQ(info.Find("count")->AsNumber(), data.data.count());
    EXPECT_EQ(info.Find("layout")->AsString(), "ivf");
    EXPECT_EQ(info.Find("pruner")->AsString(), "bond");
  }

  // The in-process reference: the same floats (the JSON round trip is
  // float-exact: float -> shortest double decimal -> float is identity),
  // the same config — but its own index build. IVF build is seeded and
  // deterministic over identical input, so parity is exact.
  SearcherConfig reference_config;
  reference_config.layout = SearcherLayout::kIvf;
  reference_config.pruner = PrunerKind::kBond;
  reference_config.k = 10;
  reference_config.nprobe = 4;
  auto reference = MakeSearcher(data.data, reference_config);
  ASSERT_TRUE(reference.ok());

  // Single-query searches: wire results must be the in-process results.
  for (size_t q = 0; q < data.queries.count(); ++q) {
    JsonValue request = JsonValue::Object();
    request.Set("query",
                QueryJson(data.queries.Vector(static_cast<VectorId>(q)),
                          data.queries.dim()));
    Result<HttpResponse> response = client.Roundtrip(
        "POST", "/collections/demo/search", WriteJson(request));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response.value().status, 200) << response.value().body;
    const JsonValue body = MustParseBody(response.value());
    EXPECT_EQ(body.Find("collection")->AsString(), "demo");
    EXPECT_EQ(body.Find("status")->AsString(), "OK");
    EXPECT_GE(body.Find("total_ms")->AsNumber(), 0.0);
    ExpectWireNeighbors(
        *body.Find("neighbors"),
        reference.value()->Search(data.queries.Vector(static_cast<VectorId>(q))),
        "query " + std::to_string(q));
  }

  // Batched search: one POST, per-query results in order.
  {
    JsonValue request = JsonValue::Object();
    JsonValue queries = JsonValue::Array();
    for (size_t q = 0; q < data.queries.count(); ++q) {
      queries.Append(QueryJson(data.queries.Vector(static_cast<VectorId>(q)),
                               data.queries.dim()));
    }
    request.Set("queries", std::move(queries));
    Result<HttpResponse> response = client.Roundtrip(
        "POST", "/collections/demo/search", WriteJson(request));
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response.value().status, 200) << response.value().body;
    const JsonValue body = MustParseBody(response.value());
    const JsonValue* results = body.Find("results");
    ASSERT_NE(results, nullptr);
    ASSERT_EQ(results->size(), data.queries.count());
    for (size_t q = 0; q < data.queries.count(); ++q) {
      const JsonValue& item = results->items()[q];
      EXPECT_EQ(item.Find("status")->AsString(), "OK");
      ExpectWireNeighbors(
          *item.Find("neighbors"),
          reference.value()->Search(
              data.queries.Vector(static_cast<VectorId>(q))),
          "batched query " + std::to_string(q));
    }
  }

  // GET /collections and /collections/demo.
  {
    Result<HttpResponse> list = client.Roundtrip("GET", "/collections");
    ASSERT_TRUE(list.ok());
    EXPECT_EQ(list.value().status, 200);
    const JsonValue body = MustParseBody(list.value());
    ASSERT_EQ(body.Find("collections")->size(), 1u);
    EXPECT_EQ(body.Find("collections")->items()[0].AsString(), "demo");

    Result<HttpResponse> info = client.Roundtrip("GET", "/collections/demo");
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info.value().status, 200);
    EXPECT_EQ(MustParseBody(info.value()).Find("max_nprobe")->AsNumber(),
              reference.value()->shape().max_nprobe);
  }

  // GET /stats reflects the served traffic.
  {
    Result<HttpResponse> stats = client.Roundtrip("GET", "/stats");
    ASSERT_TRUE(stats.ok());
    ASSERT_EQ(stats.value().status, 200);
    const JsonValue body = MustParseBody(stats.value());
    const JsonValue* demo = body.Find("collections")->Find("demo");
    ASSERT_NE(demo, nullptr);
    // Every wire query completed: 8 single + 8 batched.
    EXPECT_EQ(demo->Find("completed")->AsNumber(),
              2.0 * static_cast<double>(data.queries.count()));
    EXPECT_EQ(demo->Find("rejected")->AsNumber(), 0.0);
    EXPECT_GE(demo->Find("dispatches")->AsNumber(), 1.0);
    EXPECT_EQ(body.Find("pool_threads")->AsNumber(),
              stack.service.pool_threads());
  }

  // GET /healthz.
  {
    Result<HttpResponse> health = client.Roundtrip("GET", "/healthz");
    ASSERT_TRUE(health.ok());
    EXPECT_EQ(health.value().status, 200);
    EXPECT_EQ(MustParseBody(health.value()).Find("status")->AsString(), "ok");
  }

  // DELETE, then the collection is gone — over the wire and in process.
  {
    Result<HttpResponse> removed =
        client.Roundtrip("DELETE", "/collections/demo");
    ASSERT_TRUE(removed.ok());
    EXPECT_EQ(removed.value().status, 200);
    Result<HttpResponse> missing =
        client.Roundtrip("DELETE", "/collections/demo");
    ASSERT_TRUE(missing.ok());
    EXPECT_EQ(missing.value().status, 404);
    EXPECT_TRUE(stack.service.CollectionNames().empty());
  }
}

TEST(HttpServiceTest, PerRequestKnobOverridesApply) {
  Dataset data = MakeData();
  WireStack stack;
  SearcherConfig config;
  config.layout = SearcherLayout::kIvf;
  config.pruner = PrunerKind::kBond;
  config.nprobe = 4;
  ASSERT_TRUE(stack.service.AddCollection("ivf", data.data, config).ok());
  HttpClient client = stack.NewClient();

  JsonValue request = JsonValue::Object();
  request.Set("query", QueryJson(data.queries.Vector(0), data.queries.dim()));
  request.Set("k", static_cast<size_t>(3));
  request.Set("nprobe", static_cast<size_t>(8));
  Result<HttpResponse> response = client.Roundtrip(
      "POST", "/collections/ivf/search", WriteJson(request));
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response.value().status, 200) << response.value().body;

  auto reference = MakeSearcher(data.data, config);
  ASSERT_TRUE(reference.ok());
  ExpectWireNeighbors(*MustParseBody(response.value()).Find("neighbors"),
                      reference.value()->SearchWith(0, QueryKnobs{3, 8},
                                                    data.queries.Vector(0)),
                      "k=3 nprobe=8");
}

TEST(HttpServiceTest, ShardedCollectionOverTheWire) {
  Dataset data = MakeData(16, 79, 2000, 4);
  WireStack stack;
  HttpClient client = stack.NewClient();

  JsonValue put = JsonValue::Object();
  put.Set("vectors", VectorsJson(data.data));
  put.Set("layout", "flat");
  put.Set("pruner", "bond");
  put.Set("shards", static_cast<size_t>(3));
  put.Set("assignment", "round-robin");
  Result<HttpResponse> created =
      client.Roundtrip("PUT", "/collections/sharded", WriteJson(put));
  ASSERT_TRUE(created.ok());
  ASSERT_EQ(created.value().status, 201) << created.value().body;
  EXPECT_EQ(MustParseBody(created.value()).Find("shards")->AsNumber(), 3.0);

  // Wire-vs-in-process parity: the reference is the SAME sharded build
  // (shard slices change block boundaries, so distances can differ from an
  // unsharded searcher by a few ULPs — sharded-vs-unsharded equivalence is
  // core_sharded_searcher_test's business, not the wire's).
  SearcherConfig config;  // Defaults: flat / bond / k=10.
  ShardingOptions reference_sharding;
  reference_sharding.num_shards = 3;
  reference_sharding.assignment = ShardAssignment::kRoundRobin;
  auto reference = MakeShardedSearcher(data.data, config, reference_sharding);
  ASSERT_TRUE(reference.ok());
  for (size_t q = 0; q < data.queries.count(); ++q) {
    JsonValue request = JsonValue::Object();
    request.Set("query",
                QueryJson(data.queries.Vector(static_cast<VectorId>(q)),
                          data.queries.dim()));
    request.Set("trace", true);
    Result<HttpResponse> response = client.Roundtrip(
        "POST", "/collections/sharded/search", WriteJson(request));
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response.value().status, 200) << response.value().body;
    const JsonValue body = MustParseBody(response.value());
    // Exact scatter-gather parity, served over a socket.
    ExpectWireNeighbors(
        *body.Find("neighbors"),
        reference.value()->Search(data.queries.Vector(static_cast<VectorId>(q))),
        "sharded query " + std::to_string(q));
    // Every shard ran the query: a flat search visits every block of
    // every shard.
    EXPECT_EQ(body.Find("trace")
                  ->Find("counters")
                  ->Find("blocks_visited")
                  ->AsNumber(),
              static_cast<double>(reference.value()->shape().num_blocks))
        << "sharded query " << q;
  }

  Result<HttpResponse> stats = client.Roundtrip("GET", "/stats");
  ASSERT_TRUE(stats.ok());
  const JsonValue stats_body = MustParseBody(stats.value());
  const JsonValue* entry = stats_body.Find("collections")->Find("sharded");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->Find("shards")->AsNumber(), 3.0);
  EXPECT_EQ(entry->Find("base_blocks")->AsNumber(),
            static_cast<double>(reference.value()->shape().num_blocks));
}

// --- Error mappings over real sockets ---------------------------------------

TEST(HttpServiceTest, UnknownCollectionMapsTo404) {
  WireStack stack;
  HttpClient client = stack.NewClient();
  JsonValue request = JsonValue::Object();
  JsonValue query = JsonValue::Array();
  query.Append(1.0);
  request.Set("query", std::move(query));
  Result<HttpResponse> response = client.Roundtrip(
      "POST", "/collections/ghost/search", WriteJson(request));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status, 404);
  const Status reconstituted = WireStatus(response.value());
  EXPECT_TRUE(reconstituted.IsNotFound()) << reconstituted.ToString();
  EXPECT_EQ(reconstituted.message(), "no collection named ghost");
  // Unknown routes are 404 too.
  Result<HttpResponse> route = client.Roundtrip("GET", "/nonsense");
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(route.value().status, 404);
}

TEST(HttpServiceTest, BadJsonAndBadQueriesMapTo400) {
  Dataset data = MakeData();
  WireStack stack;
  SearcherConfig config;
  ASSERT_TRUE(stack.service.AddCollection("flat", data.data, config).ok());
  HttpClient client = stack.NewClient();

  // Malformed JSON.
  Result<HttpResponse> bad_json = client.Roundtrip(
      "POST", "/collections/flat/search", "{\"query\": [1, 2,");
  ASSERT_TRUE(bad_json.ok());
  EXPECT_EQ(bad_json.value().status, 400);
  EXPECT_EQ(MustParseBody(bad_json.value()).Find("status")->AsString(),
            "InvalidArgument");

  // Valid JSON, wrong shape: dimension mismatch must be a 400, never an
  // out-of-bounds read of the short payload.
  Result<HttpResponse> short_query = client.Roundtrip(
      "POST", "/collections/flat/search", "{\"query\": [1.0, 2.0]}");
  ASSERT_TRUE(short_query.ok());
  EXPECT_EQ(short_query.value().status, 400);

  // NaN cannot enter through the wire.
  Result<HttpResponse> nan_query = client.Roundtrip(
      "POST", "/collections/flat/search", "{\"query\": [NaN]}");
  ASSERT_TRUE(nan_query.ok());
  EXPECT_EQ(nan_query.value().status, 400);

  // Nor can a finite double that would overflow to float infinity at the
  // kernel boundary (1e300 parses fine as a double).
  std::string big_query = "{\"query\": [1e300";
  for (size_t d = 1; d < data.data.dim(); ++d) big_query += ", 0";
  big_query += "]}";
  Result<HttpResponse> overflow_query =
      client.Roundtrip("POST", "/collections/flat/search", big_query);
  ASSERT_TRUE(overflow_query.ok());
  EXPECT_EQ(overflow_query.value().status, 400);
  EXPECT_TRUE(WireStatus(overflow_query.value()).IsInvalidArgument());

  // Neither "query" nor "queries".
  Result<HttpResponse> no_query =
      client.Roundtrip("POST", "/collections/flat/search", "{}");
  ASSERT_TRUE(no_query.ok());
  EXPECT_EQ(no_query.value().status, 400);

  // Wrong method on a search route.
  Result<HttpResponse> wrong_method =
      client.Roundtrip("GET", "/collections/flat/search");
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(wrong_method.value().status, 400);
}

TEST(HttpServiceTest, OversizedBodyMapsTo413) {
  HttpServerConfig server_config;
  server_config.max_body_bytes = 1024;
  WireStack stack({}, server_config);
  HttpClient client = stack.NewClient();
  const std::string big(4096, 'x');
  Result<HttpResponse> response =
      client.Roundtrip("POST", "/collections/any/search", big);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status, 413);
}

TEST(HttpServiceTest, QueueFullMapsTo429WithRetryAfter) {
  Dataset data = MakeData();
  ServiceConfig service_config;
  service_config.max_pending = 2;
  WireStack stack(service_config);
  SearcherConfig config;
  ASSERT_TRUE(stack.service.AddCollection("flat", data.data, config).ok());

  // Deterministic backpressure: pause dispatch, fill the whole admission
  // queue with pipelined wire queries, then one more must bounce.
  stack.service.Pause();
  HttpClient filler = stack.NewClient();
  JsonValue request = JsonValue::Object();
  request.Set("query", QueryJson(data.queries.Vector(0), data.queries.dim()));
  const std::string body = WriteJson(request);
  ASSERT_TRUE(filler.SendRequest("POST", "/collections/flat/search", body).ok());
  ASSERT_TRUE(filler.SendRequest("POST", "/collections/flat/search", body).ok());
  // Admission happens on the connection thread; wait until both queued.
  for (int i = 0; i < 1000 && stack.service.queue_depth() < 2; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(stack.service.queue_depth(), 2u);

  HttpClient overflow = stack.NewClient();
  Result<HttpResponse> rejected =
      overflow.Roundtrip("POST", "/collections/flat/search", body);
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_EQ(rejected.value().status, 429);
  EXPECT_TRUE(WireStatus(rejected.value()).IsResourceExhausted())
      << rejected.value().body;
  // Backpressure is retryable and says when.
  ASSERT_EQ(rejected.value().headers.count("retry-after"), 1u);
  EXPECT_EQ(rejected.value().headers.at("retry-after"), "1");

  // Drain: the held queries complete once dispatch resumes.
  stack.service.Resume();
  for (int i = 0; i < 2; ++i) {
    Result<HttpResponse> held = filler.ReadResponse();
    ASSERT_TRUE(held.ok()) << held.status().ToString();
    EXPECT_EQ(held.value().status, 200);
  }
}

TEST(HttpServiceTest, ExpiredDeadlineMapsTo504) {
  Dataset data = MakeData();
  WireStack stack;
  SearcherConfig config;
  ASSERT_TRUE(stack.service.AddCollection("flat", data.data, config).ok());

  // Paused service: the query's deadline passes in the queue, the sweep
  // sheds it (even while paused), and the wire answer is 504 — without a
  // Resume() ever happening.
  stack.service.Pause();
  HttpClient client = stack.NewClient();
  JsonValue request = JsonValue::Object();
  request.Set("query", QueryJson(data.queries.Vector(0), data.queries.dim()));
  request.Set("deadline_ms", static_cast<size_t>(5));
  Result<HttpResponse> response = client.Roundtrip(
      "POST", "/collections/flat/search", WriteJson(request));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status, 504);
  EXPECT_TRUE(WireStatus(response.value()).IsDeadlineExceeded())
      << response.value().body;
  stack.service.Resume();
}

TEST(HttpServiceTest, MalformedHttpIsAnswered400AndClosed) {
  WireStack stack;
  {
    HttpClient client = stack.NewClient();
    ASSERT_TRUE(client.SendRaw("THIS IS NOT HTTP\r\n\r\n").ok());
    Result<HttpResponse> response = client.ReadResponse();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().status, 400);
    // After a framing error the byte stream is garbage; the server closes.
    Result<HttpResponse> after = client.ReadResponse();
    EXPECT_FALSE(after.ok());
  }
  {
    // An unsupported version string is a 400 as well.
    HttpClient client = stack.NewClient();
    ASSERT_TRUE(client.SendRaw("GET /healthz HTTP/2.0\r\n\r\n").ok());
    Result<HttpResponse> response = client.ReadResponse();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.value().status, 400);
  }
  for (const char* length : {"+2", "-1"}) {
    // Content-Length is 1*DIGIT: a sign makes the framing malformed.
    HttpClient client = stack.NewClient();
    ASSERT_TRUE(client
                    .SendRaw(std::string("GET /healthz HTTP/1.1\r\n"
                                         "Content-Length: ") +
                             length + "\r\n\r\n{}")
                    .ok());
    Result<HttpResponse> response = client.ReadResponse();
    ASSERT_TRUE(response.ok()) << length << ": "
                               << response.status().ToString();
    ASSERT_EQ(response.value().status, 400) << length;
    EXPECT_EQ(MustParseBody(response.value()).Find("error")->AsString(),
              "malformed Content-Length")
        << length;
    EXPECT_FALSE(client.ReadResponse().ok()) << length;
  }
  // A header name is a token (RFC 9112 §5.1): whitespace before the colon,
  // or a folded continuation line, is a 400 and a close — never framing.
  // Otherwise `Content-Length : 38` frames no body, so the body is answered
  // as a second request, and `Transfer-Encoding : chunked` gets past the
  // 501 below.
  const std::string smuggled = "GET /collections HTTP/1.1\r\nHost: x\r\n\r\n";
  for (const std::string& header :
       {"Content-Length : " + std::to_string(smuggled.size()),
        std::string("Transfer-Encoding : chunked"),
        std::string("Host: x\r\n\tX-Folded: y")}) {
    HttpClient client = stack.NewClient();
    ASSERT_TRUE(client
                    .SendRaw("GET /healthz HTTP/1.1\r\n" + header +
                             "\r\n\r\n" + smuggled)
                    .ok());
    Result<HttpResponse> response = client.ReadResponse();
    ASSERT_TRUE(response.ok()) << header << ": "
                               << response.status().ToString();
    ASSERT_EQ(response.value().status, 400) << header;
    EXPECT_EQ(MustParseBody(response.value()).Find("error")->AsString(),
              "malformed header name")
        << header;
    EXPECT_FALSE(client.ReadResponse().ok()) << header;
  }
  {
    // Chunked bodies are out of the supported subset: 501, explicitly.
    HttpClient client = stack.NewClient();
    ASSERT_TRUE(client
                    .SendRaw("POST /collections/x/search HTTP/1.1\r\n"
                             "Transfer-Encoding: chunked\r\n\r\n")
                    .ok());
    Result<HttpResponse> response = client.ReadResponse();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.value().status, 501);
  }
  // The server survives all of it.
  HttpClient client = stack.NewClient();
  Result<HttpResponse> health = client.Roundtrip("GET", "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value().status, 200);
}

TEST(HttpServiceTest, DuplicateContentLengthMapsTo400) {
  WireStack stack;
  HttpClient client = stack.NewClient();
  // Two conflicting Content-Length values are the classic
  // request-smuggling shape behind an intermediary that picks the other
  // one; the server must refuse to pick either.
  ASSERT_TRUE(client
                  .SendRaw("GET /healthz HTTP/1.1\r\n"
                           "Content-Length: 0\r\n"
                           "Content-Length: 5\r\n\r\nhello")
                  .ok());
  Result<HttpResponse> response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status, 400);
  // Framing is unrecoverable after conflicting lengths: the server closes.
  Result<HttpResponse> after = client.ReadResponse();
  EXPECT_FALSE(after.ok());
}

// --- Request-parser mutation loop --------------------------------------------

/// Splits a server's whole output into responses and returns their status
/// codes, or an error naming what is malformed. Each response must have a
/// status line "HTTP/1.1 NNN Reason", header lines of the form name:value,
/// and (from 200 up) exactly one digits-only Content-Length followed by
/// that many body bytes; the last response must end the stream.
Result<std::vector<int>> SplitResponses(const std::string& stream) {
  static const std::regex kStatusLine("HTTP/1\\.1 ([0-9]{3}) [^\r\n]+");
  static const std::regex kContentLength("Content-Length: ([0-9]+)");
  static const std::regex kHeaderLine("[^:\r\n]+:[^\r\n]*");
  std::vector<int> statuses;
  size_t pos = 0;
  while (pos < stream.size()) {
    const size_t head_end = stream.find("\r\n\r\n", pos);
    if (head_end == std::string::npos) {
      return Status::InvalidArgument("unterminated head at byte " +
                                     std::to_string(pos));
    }
    std::vector<std::string> lines;
    for (size_t at = pos; at <= head_end;) {
      const size_t eol = stream.find("\r\n", at);
      lines.push_back(stream.substr(at, eol - at));
      at = eol + 2;
    }
    std::smatch match;
    if (!std::regex_match(lines[0], match, kStatusLine)) {
      return Status::InvalidArgument("bad status line: " + lines[0]);
    }
    const int status = std::stoi(match[1].str());
    std::vector<size_t> lengths;
    for (size_t i = 1; i < lines.size(); ++i) {
      if (std::regex_match(lines[i], match, kContentLength)) {
        lengths.push_back(std::stoull(match[1].str()));
      } else if (!std::regex_match(lines[i], kHeaderLine)) {
        return Status::InvalidArgument("bad header line: " + lines[i]);
      }
    }
    pos = head_end + 4;
    if (status >= 200) {
      if (lengths.size() != 1 || stream.size() - pos < lengths[0]) {
        return Status::InvalidArgument("bad framing after: " + lines[0]);
      }
      pos += lengths[0];
    }
    statuses.push_back(status);
  }
  return statuses;
}

/// Sends `bytes` on a fresh loopback socket, shuts down its write side and
/// reads until the server closes. Fails unless the close is a clean EOF.
Result<std::string> SendAndDrain(uint16_t port, const std::string& bytes) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError("socket failed");
  // A hung connection fails the variant with its bytes named instead of
  // parking the test until the ctest timeout.
  timeval timeout{};
  timeout.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string received;
  Status status = Status::OK();
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) !=
          static_cast<ssize_t>(bytes.size()) ||
      ::shutdown(fd, SHUT_WR) != 0) {
    status = Status::IoError(std::string("connect or send: ") +
                             std::strerror(errno));
  }
  char chunk[4096];
  while (status.ok()) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      status = Status::IoError(std::string("recv: ") + std::strerror(errno));
      break;
    }
    received.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  if (!status.ok()) return status;
  return received;
}

/// One random edit of a request stream: replace a byte, truncate, insert
/// one of CR, LF, ':' or a digit, or repeat a whole header line.
void MutateOnce(std::string& bytes, Rng& rng) {
  static const std::string kInserts = "\r\n:0123456789";
  switch (rng.UniformInt(9)) {
    case 0:
    case 1:
    case 2:
      if (!bytes.empty()) {
        bytes[rng.UniformInt(bytes.size())] =
            static_cast<char>(rng.UniformInt(256));
      }
      break;
    case 3:
      bytes.resize(rng.UniformInt(bytes.size() + 1));
      break;
    case 4:
    case 5:
    case 6:
      bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(
                                       rng.UniformInt(bytes.size() + 1)),
                   kInserts[rng.UniformInt(kInserts.size())]);
      break;
    default: {
      std::vector<std::pair<size_t, size_t>> lines;  // [start, end incl. CRLF)
      for (size_t start = bytes.find("\r\n"); start != std::string::npos;) {
        start += 2;
        const size_t end = bytes.find("\r\n", start);
        if (end == std::string::npos) break;
        if (end > start) lines.emplace_back(start, end + 2);
        start = end;
      }
      if (lines.empty()) break;
      const auto [start, end] = lines[rng.UniformInt(lines.size())];
      bytes.insert(start, bytes.substr(start, end - start));
      break;
    }
  }
}

TEST(HttpServiceTest, MutatedRequestsGetWellFormedAnswersAndACleanClose) {
  WireStack stack;
  SearcherConfig config;
  config.k = 2;
  ASSERT_TRUE(stack.service
                  .AddCollection("c", MakeData(4, 83, 64, 1).data, config)
                  .ok());
  const std::string body = "{\"query\":[0.5,1,-2,3],\"k\":2}";
  const std::string valid =
      "POST /collections/c/search HTTP/1.1\r\nHost: pdx\r\n"
      "Content-Type: application/json\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\n\r\n" + body +
      "GET /healthz HTTP/1.1\r\nHost: pdx\r\n\r\n";
  {
    Result<std::string> answered = SendAndDrain(stack.server.port(), valid);
    ASSERT_TRUE(answered.ok()) << answered.status().ToString();
    Result<std::vector<int>> statuses = SplitResponses(answered.value());
    ASSERT_TRUE(statuses.ok()) << statuses.status().ToString();
    ASSERT_EQ(statuses.value(), (std::vector<int>{200, 200}));
  }

  Rng rng(85);
  size_t with_200 = 0;
  size_t with_400 = 0;
  for (int variant = 0; variant < 1500; ++variant) {
    std::string bytes = valid;
    const uint64_t edits = 1 + rng.UniformInt(4);
    for (uint64_t e = 0; e < edits; ++e) MutateOnce(bytes, rng);
    Result<std::string> answered = SendAndDrain(stack.server.port(), bytes);
    ASSERT_TRUE(answered.ok())
        << "variant " << variant << " " << ::testing::PrintToString(bytes)
        << ": " << answered.status().ToString();
    Result<std::vector<int>> statuses = SplitResponses(answered.value());
    ASSERT_TRUE(statuses.ok())
        << "variant " << variant << " " << ::testing::PrintToString(bytes)
        << " got " << ::testing::PrintToString(answered.value()) << ": "
        << statuses.status().ToString();
    const std::vector<int>& codes = statuses.value();
    with_200 += std::count(codes.begin(), codes.end(), 200) > 0;
    with_400 += std::count(codes.begin(), codes.end(), 400) > 0;
  }
  // The loop reached both the handler and the parser's error paths.
  EXPECT_GT(with_200, 0u);
  EXPECT_GT(with_400, 0u);

  HttpClient client = stack.NewClient();
  Result<HttpResponse> health = client.Roundtrip("GET", "/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health.value().status, 200);
}

// --- Pipelining -------------------------------------------------------------

TEST(HttpServiceTest, PipelinedResponsesArriveInRequestOrder) {
  Dataset data = MakeData();
  WireStack stack;
  SearcherConfig config;
  ASSERT_TRUE(stack.service.AddCollection("flat", data.data, config).ok());
  auto reference = MakeSearcher(data.data, config);
  ASSERT_TRUE(reference.ok());

  HttpClient client = stack.NewClient();
  // Distinct k per request: response i must carry exactly i+1 neighbors,
  // so any reordering is visible.
  constexpr size_t kPipelined = 6;
  for (size_t i = 0; i < kPipelined; ++i) {
    JsonValue request = JsonValue::Object();
    request.Set("query",
                QueryJson(data.queries.Vector(0), data.queries.dim()));
    request.Set("k", i + 1);
    ASSERT_TRUE(client
                    .SendRequest("POST", "/collections/flat/search",
                                 WriteJson(request))
                    .ok());
  }
  EXPECT_EQ(client.inflight(), kPipelined);
  for (size_t i = 0; i < kPipelined; ++i) {
    Result<HttpResponse> response = client.ReadResponse();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response.value().status, 200);
    const JsonValue body = MustParseBody(response.value());
    EXPECT_EQ(body.Find("neighbors")->size(), i + 1)
        << "pipelined response " << i << " out of order";
  }
}

TEST(HttpServiceTest, BackToBackResponsesAreNotHeldForTheClientsAck) {
  // Three round trips put the client's kernel into delayed-ACK mode. Then
  // two pipelined requests arrive in one segment: with Nagle on, the
  // second answer waits for the ACK of the first, which the client delays
  // by about 40 ms because it has nothing to send.
  WireStack stack;
  const std::string request = "GET /healthz HTTP/1.1\r\nHost: pdx\r\n\r\n";
  double best_ms = 1e9;
  for (int attempt = 0; attempt < 5; ++attempt) {
    HttpClient client = stack.NewClient();
    for (int i = 0; i < 3; ++i) {
      Result<HttpResponse> warm = client.Roundtrip("GET", "/healthz");
      ASSERT_TRUE(warm.ok()) << warm.status().ToString();
      ASSERT_EQ(warm.value().status, 200);
    }
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(client.SendRaw(request + request).ok());
    for (int i = 0; i < 2; ++i) {
      Result<HttpResponse> answer = client.ReadResponse();
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      ASSERT_EQ(answer.value().status, 200);
    }
    best_ms = std::min(
        best_ms, std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count());
  }
  EXPECT_LT(best_ms, 20.0);
}

// --- Regression: /stats is ONE consistent snapshot --------------------------

TEST(HttpServiceTest, StatsSnapshotKeepsDispatchInvariantUnderLoad) {
  Dataset data = MakeData(16, 81, 1500, 8);
  ServiceConfig service_config;
  service_config.dispatchers = 3;
  service_config.threads = 2;
  WireStack stack(service_config);
  SearcherConfig config;
  ASSERT_TRUE(stack.service.AddCollection("a", data.data, config).ok());
  SearcherConfig linear = config;
  linear.pruner = PrunerKind::kLinear;
  ASSERT_TRUE(stack.service.AddCollection("b", data.data, linear).ok());

  // Client threads hammer both collections while the main thread polls
  // GET /stats: in EVERY snapshot the per-dispatcher dispatch counts must
  // sum exactly to the per-collection total — the whole snapshot is taken
  // under one lock, so a half-updated pair can never be observed.
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      HttpClient client;
      if (!client.Connect("127.0.0.1", stack.server.port()).ok()) return;
      JsonValue request = JsonValue::Object();
      request.Set("query",
                  QueryJson(data.queries.Vector(t % data.queries.count()),
                            data.queries.dim()));
      const std::string body = WriteJson(request);
      const std::string target =
          t % 2 == 0 ? "/collections/a/search" : "/collections/b/search";
      while (!stop.load()) {
        Result<HttpResponse> response =
            client.Roundtrip("POST", target, body);
        if (!response.ok()) return;
      }
    });
  }

  HttpClient stats_client = stack.NewClient();
  size_t snapshots_with_traffic = 0;
  for (int poll = 0; poll < 50; ++poll) {
    Result<HttpResponse> stats = stats_client.Roundtrip("GET", "/stats");
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_EQ(stats.value().status, 200);
    const JsonValue body = MustParseBody(stats.value());
    double dispatcher_total = 0;
    ASSERT_EQ(body.Find("dispatchers")->size(), 3u);
    for (const JsonValue& ds : body.Find("dispatchers")->items()) {
      dispatcher_total += ds.Find("dispatches")->AsNumber();
    }
    double collection_total = 0;
    for (const auto& [name, entry] : body.Find("collections")->members()) {
      collection_total += entry.Find("dispatches")->AsNumber();
    }
    EXPECT_EQ(dispatcher_total, collection_total)
        << "snapshot " << poll << " tore the dispatch accounting: "
        << stats.value().body;
    if (dispatcher_total > 0) ++snapshots_with_traffic;
    std::this_thread::sleep_for(2ms);
  }
  stop.store(true);
  for (std::thread& client : clients) client.join();
  // The invariant must have been exercised against live counters, not a
  // parked service.
  EXPECT_GT(snapshots_with_traffic, 0u);
}

// --- Server lifecycle -------------------------------------------------------

TEST(HttpServiceTest, ServerStopResolvesCleanly) {
  Dataset data = MakeData();
  auto stack = std::make_unique<WireStack>();
  SearcherConfig config;
  ASSERT_TRUE(stack->service.AddCollection("flat", data.data, config).ok());
  HttpClient client = stack->NewClient();
  JsonValue request = JsonValue::Object();
  request.Set("query", QueryJson(data.queries.Vector(0), data.queries.dim()));
  Result<HttpResponse> ok = client.Roundtrip(
      "POST", "/collections/flat/search", WriteJson(request));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().status, 200);
  // Destroy server + service with the client still connected: Stop() must
  // not hang on the idle keep-alive connection.
  stack.reset();
  // The client now sees a closed connection.
  Result<HttpResponse> gone = client.Roundtrip("GET", "/healthz");
  EXPECT_FALSE(gone.ok());
}

TEST(HttpServiceTest, ZeroMaxPipelinedIsRejectedAtStart) {
  // With 0 the reader would wait for slots.size() < 0 before every request,
  // so no request would ever be answered.
  HttpServerConfig config;
  config.max_pipelined = 0;
  HttpServer server(config);
  const Status started = server.Start(
      [](HttpRequest, HttpResponder respond) { respond(HttpResponse{}); });
  EXPECT_TRUE(started.IsInvalidArgument()) << started.ToString();
  EXPECT_NE(started.message().find("max_pipelined"), std::string::npos)
      << started.ToString();
  EXPECT_FALSE(server.running());
}

TEST(HttpServiceTest, PortZeroPicksAnEphemeralPortAndRebindsFail) {
  WireStack stack;
  EXPECT_GT(stack.server.port(), 0);
  // A second server on the same fixed port must fail loudly.
  HttpServerConfig clash;
  clash.port = stack.server.port();
  HttpServer second(clash);
  SearchService unused_service;
  SearchHandler unused_handler(unused_service);
  Status started = second.Start(unused_handler.AsHttpHandler());
  EXPECT_FALSE(started.ok());
  EXPECT_TRUE(started.IsIoError()) << started.ToString();
}

}  // namespace
}  // namespace pdx
