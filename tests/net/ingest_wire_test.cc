// Streaming ingest over real sockets: POST /collections/<name>/vectors in
// both wire formats (NDJSON rows and a single JSON object), upsert via
// ids, DELETE /collections/<name>/vectors/<id>, the /stats and /metrics
// ingest surfaces, and the PUT-replace contract (slowlog resets, the
// Prometheus counters stay cumulative, a rejected PUT leaves the old
// collection serving).

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/json.h"
#include "net/search_handler.h"
#include "serve/search_service.h"

namespace pdx {
namespace {

struct WireStack {
  WireStack() : service(MakeServiceConfig()), handler(service) {
    Status started = server.Start(handler.AsHttpHandler());
    EXPECT_TRUE(started.ok()) << started.ToString();
  }
  ~WireStack() { server.Stop(); }

  ServiceConfig MakeServiceConfig() {
    ServiceConfig config;
    config.threads = 2;
    config.metrics = &registry;
    return config;
  }

  HttpClient NewClient() {
    HttpClient client;
    Status connected = client.Connect("127.0.0.1", server.port());
    EXPECT_TRUE(connected.ok()) << connected.ToString();
    return client;
  }

  MetricsRegistry registry;  ///< Declared first: must outlive the service.
  SearchService service;
  SearchHandler handler;
  HttpServer server;
};

JsonValue MustParseBody(const HttpResponse& response) {
  Result<JsonValue> parsed = ParseJson(response.body);
  EXPECT_TRUE(parsed.ok()) << response.body;
  return parsed.ok() ? std::move(parsed).value() : JsonValue();
}

/// Hosts a small flat/linear collection of axis-aligned rows: row i is
/// dim zeros with value (i + 1) at dimension 0, so exact-match queries
/// have unambiguous nearest neighbors.
void PutAxisCollection(HttpClient& client, const std::string& name,
                       size_t count, size_t dim) {
  JsonValue rows = JsonValue::Array();
  for (size_t i = 0; i < count; ++i) {
    JsonValue row = JsonValue::Array();
    row.Append(static_cast<double>(i + 1));
    for (size_t d = 1; d < dim; ++d) row.Append(0.0);
    rows.Append(std::move(row));
  }
  JsonValue put = JsonValue::Object();
  put.Set("vectors", std::move(rows));
  put.Set("layout", "flat");
  put.Set("pruner", "linear");
  put.Set("k", static_cast<size_t>(3));
  Result<HttpResponse> created =
      client.Roundtrip("PUT", "/collections/" + name, WriteJson(put));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ASSERT_EQ(created.value().status, 201) << created.value().body;
}

std::vector<size_t> TopIds(const JsonValue& search_body) {
  std::vector<size_t> ids;
  const JsonValue* neighbors = search_body.Find("neighbors");
  if (neighbors == nullptr) return ids;
  for (const JsonValue& hit : neighbors->items()) {
    ids.push_back(static_cast<size_t>(hit.Find("id")->AsNumber()));
  }
  return ids;
}

JsonValue Search(HttpClient& client, const std::string& name, double x,
                 size_t dim) {
  JsonValue query = JsonValue::Array();
  query.Append(x);
  for (size_t d = 1; d < dim; ++d) query.Append(0.0);
  JsonValue body = JsonValue::Object();
  body.Set("query", std::move(query));
  Result<HttpResponse> response = client.Roundtrip(
      "POST", "/collections/" + name + "/search", WriteJson(body));
  EXPECT_TRUE(response.ok());
  EXPECT_EQ(response.value().status, 200) << response.value().body;
  return MustParseBody(response.value());
}

double SeriesValue(const std::string& exposition, const std::string& series) {
  std::istringstream lines(exposition);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.compare(0, series.size() + 1, series + " ") == 0) {
      return std::stod(line.substr(series.size() + 1));
    }
  }
  return -1.0;
}

// --- NDJSON ingest ------------------------------------------------------

TEST(IngestWireTest, NdjsonAddAssignsIdsAndServesRows) {
  WireStack stack;
  HttpClient client = stack.NewClient();
  const size_t dim = 4;
  PutAxisCollection(client, "live", 6, dim);

  // Three NDJSON rows (plain arrays: auto-assigned ids), with a blank
  // line and \r\n endings in the mix.
  const std::string ndjson =
      "[100,0,0,0]\r\n"
      "\r\n"
      "[200,0,0,0]\n"
      "[300,0,0,0]\n";
  Result<HttpResponse> posted =
      client.Roundtrip("POST", "/collections/live/vectors", ndjson);
  ASSERT_TRUE(posted.ok());
  ASSERT_EQ(posted.value().status, 200) << posted.value().body;
  const JsonValue body = MustParseBody(posted.value());
  EXPECT_EQ(body.Find("added")->AsNumber(), 3.0);
  const JsonValue* ids = body.Find("ids");
  ASSERT_NE(ids, nullptr);
  ASSERT_EQ(ids->size(), 3u);
  // Auto ids continue after the 6 PUT rows.
  EXPECT_EQ(ids->items()[0].AsNumber(), 6.0);
  EXPECT_EQ(ids->items()[1].AsNumber(), 7.0);
  EXPECT_EQ(ids->items()[2].AsNumber(), 8.0);

  // The appended rows are immediately searchable, no rebuild involved.
  const JsonValue found = Search(client, "live", 200.0, dim);
  const std::vector<size_t> top = TopIds(found);
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0], 7u);
}

TEST(IngestWireTest, NdjsonObjectRowsCarryExplicitIds) {
  WireStack stack;
  HttpClient client = stack.NewClient();
  const size_t dim = 4;
  PutAxisCollection(client, "live", 4, dim);

  const std::string ndjson =
      "{\"id\": 50, \"vector\": [500,0,0,0]}\n"
      "{\"id\": 60, \"vector\": [600,0,0,0]}\n";
  Result<HttpResponse> posted =
      client.Roundtrip("POST", "/collections/live/vectors", ndjson);
  ASSERT_TRUE(posted.ok());
  ASSERT_EQ(posted.value().status, 200) << posted.value().body;
  const JsonValue body = MustParseBody(posted.value());
  EXPECT_EQ(body.Find("ids")->items()[0].AsNumber(), 50.0);
  EXPECT_EQ(body.Find("ids")->items()[1].AsNumber(), 60.0);

  const std::vector<size_t> top = TopIds(Search(client, "live", 600.0, dim));
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0], 60u);
}

// --- JSON-object ingest and upsert --------------------------------------

TEST(IngestWireTest, JsonBodyWithIdsUpserts) {
  WireStack stack;
  HttpClient client = stack.NewClient();
  const size_t dim = 4;
  PutAxisCollection(client, "live", 5, dim);

  // Row with id 2 already exists (value 3 at dim 0); upsert moves it.
  JsonValue vectors = JsonValue::Array();
  JsonValue replacement = JsonValue::Array();
  replacement.Append(900.0);
  for (size_t d = 1; d < dim; ++d) replacement.Append(0.0);
  vectors.Append(std::move(replacement));
  JsonValue ids = JsonValue::Array();
  ids.Append(static_cast<size_t>(2));
  JsonValue body = JsonValue::Object();
  body.Set("vectors", std::move(vectors));
  body.Set("ids", std::move(ids));
  Result<HttpResponse> posted = client.Roundtrip(
      "POST", "/collections/live/vectors", WriteJson(body));
  ASSERT_TRUE(posted.ok());
  ASSERT_EQ(posted.value().status, 200) << posted.value().body;

  // Same id, new location; the collection did not grow.
  const std::vector<size_t> top = TopIds(Search(client, "live", 900.0, dim));
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0], 2u);
  Result<HttpResponse> info = client.Roundtrip("GET", "/collections/live");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(MustParseBody(info.value()).Find("count")->AsNumber(), 5.0);
}

// --- DELETE by id -------------------------------------------------------

TEST(IngestWireTest, DeleteVectorRoutes) {
  WireStack stack;
  HttpClient client = stack.NewClient();
  const size_t dim = 4;
  PutAxisCollection(client, "live", 5, dim);

  Result<HttpResponse> removed =
      client.Roundtrip("DELETE", "/collections/live/vectors/3");
  ASSERT_TRUE(removed.ok());
  ASSERT_EQ(removed.value().status, 200) << removed.value().body;
  EXPECT_EQ(MustParseBody(removed.value()).Find("deleted")->AsNumber(), 1.0);

  // The tombstoned row never surfaces again, even as an exact match.
  const std::vector<size_t> top = TopIds(Search(client, "live", 4.0, dim));
  for (const size_t id : top) EXPECT_NE(id, 3u);

  // Double delete: 404. Unknown id: 404. Garbage id: 400.
  Result<HttpResponse> again =
      client.Roundtrip("DELETE", "/collections/live/vectors/3");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().status, 404) << again.value().body;
  Result<HttpResponse> missing =
      client.Roundtrip("DELETE", "/collections/live/vectors/4096");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().status, 404);
  Result<HttpResponse> garbage =
      client.Roundtrip("DELETE", "/collections/live/vectors/abc");
  ASSERT_TRUE(garbage.ok());
  EXPECT_EQ(garbage.value().status, 400);
  Result<HttpResponse> huge =
      client.Roundtrip("DELETE", "/collections/live/vectors/4294967295");
  ASSERT_TRUE(huge.ok());
  EXPECT_EQ(huge.value().status, 400);
}

// --- Malformed ingest bodies --------------------------------------------

TEST(IngestWireTest, RejectsMalformedIngest) {
  WireStack stack;
  HttpClient client = stack.NewClient();
  const size_t dim = 4;
  PutAxisCollection(client, "live", 3, dim);

  // Mixed id presence across NDJSON rows.
  Result<HttpResponse> mixed = client.Roundtrip(
      "POST", "/collections/live/vectors",
      "[1,0,0,0]\n{\"id\": 9, \"vector\": [2,0,0,0]}\n");
  ASSERT_TRUE(mixed.ok());
  EXPECT_EQ(mixed.value().status, 400) << mixed.value().body;

  // Dimension mismatch against the hosted collection.
  Result<HttpResponse> short_row =
      client.Roundtrip("POST", "/collections/live/vectors", "[1,0]\n");
  ASSERT_TRUE(short_row.ok());
  EXPECT_EQ(short_row.value().status, 400);

  // Empty body, wrong method, unknown collection.
  Result<HttpResponse> empty =
      client.Roundtrip("POST", "/collections/live/vectors", "  \n ");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.value().status, 400);
  Result<HttpResponse> wrong_method =
      client.Roundtrip("GET", "/collections/live/vectors");
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(wrong_method.value().status, 400);
  Result<HttpResponse> ghost =
      client.Roundtrip("POST", "/collections/ghost/vectors", "[1,0,0,0]\n");
  ASSERT_TRUE(ghost.ok());
  EXPECT_EQ(ghost.value().status, 404);

  // Ids beyond the VectorId range.
  Result<HttpResponse> big_id = client.Roundtrip(
      "POST", "/collections/live/vectors",
      "{\"id\": 4294967295, \"vector\": [1,0,0,0]}\n");
  ASSERT_TRUE(big_id.ok());
  EXPECT_EQ(big_id.value().status, 400);

  // Nothing above mutated the collection.
  Result<HttpResponse> info = client.Roundtrip("GET", "/collections/live");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(MustParseBody(info.value()).Find("count")->AsNumber(), 3.0);
}

// --- Observability: /stats rows and /metrics series ---------------------

TEST(IngestWireTest, StatsAndMetricsCarryIngestState) {
  WireStack stack;
  HttpClient client = stack.NewClient();
  const size_t dim = 4;
  PutAxisCollection(client, "live", 5, dim);

  Result<HttpResponse> posted = client.Roundtrip(
      "POST", "/collections/live/vectors", "[9,0,0,0]\n[8,0,0,0]\n");
  ASSERT_TRUE(posted.ok());
  ASSERT_EQ(posted.value().status, 200);
  Result<HttpResponse> removed =
      client.Roundtrip("DELETE", "/collections/live/vectors/0");
  ASSERT_TRUE(removed.ok());
  ASSERT_EQ(removed.value().status, 200);

  Result<HttpResponse> stats = client.Roundtrip("GET", "/stats");
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats.value().status, 200);
  const JsonValue body = MustParseBody(stats.value());
  const JsonValue* live = body.Find("collections")->Find("live");
  ASSERT_NE(live, nullptr);
  EXPECT_TRUE(live->Find("mutable")->AsBool());
  EXPECT_EQ(live->Find("count")->AsNumber(), 6.0);  // 5 + 2 - 1.
  EXPECT_EQ(live->Find("delta")->AsNumber(), 2.0);
  EXPECT_EQ(live->Find("tombstones")->AsNumber(), 1.0);
  EXPECT_EQ(live->Find("added")->AsNumber(), 2.0);
  EXPECT_EQ(live->Find("deleted")->AsNumber(), 1.0);
  EXPECT_EQ(live->Find("compactions")->AsNumber(), 0.0);
  EXPECT_GE(live->Find("delta_blocks")->AsNumber(), 1.0);
  EXPECT_GE(live->Find("base_blocks")->AsNumber(), 1.0);

  Result<HttpResponse> scrape = client.Roundtrip("GET", "/metrics");
  ASSERT_TRUE(scrape.ok());
  const std::string& text = scrape.value().body;
  EXPECT_DOUBLE_EQ(
      SeriesValue(text, "pdx_ingested_vectors_total{collection=\"live\"}"),
      2.0);
  EXPECT_DOUBLE_EQ(
      SeriesValue(text, "pdx_deleted_vectors_total{collection=\"live\"}"),
      1.0);
  EXPECT_DOUBLE_EQ(SeriesValue(text, "pdx_delta_vectors{collection=\"live\"}"),
                   2.0);
  EXPECT_DOUBLE_EQ(SeriesValue(text, "pdx_tombstones{collection=\"live\"}"),
                   1.0);
  EXPECT_DOUBLE_EQ(
      SeriesValue(text, "pdx_collection_vectors{collection=\"live\"}"), 6.0);
}

// --- PUT-replace semantics: slowlog resets, counters stay cumulative ----

TEST(IngestWireTest, PutReplaceResetsSlowlogKeepsCounters) {
  WireStack stack;
  HttpClient client = stack.NewClient();
  const size_t dim = 4;
  PutAxisCollection(client, "live", 5, dim);
  (void)Search(client, "live", 1.0, dim);
  (void)Search(client, "live", 2.0, dim);

  // Two completed queries: in the slowlog and the Prometheus counter.
  Result<HttpResponse> slowlog =
      client.Roundtrip("GET", "/collections/live/slowlog");
  ASSERT_TRUE(slowlog.ok());
  EXPECT_EQ(MustParseBody(slowlog.value()).Find("slowlog")->size(), 2u);
  Result<HttpResponse> scrape = client.Roundtrip("GET", "/metrics");
  ASSERT_TRUE(scrape.ok());
  EXPECT_DOUBLE_EQ(
      SeriesValue(
          scrape.value().body,
          "pdx_queries_total{collection=\"live\",outcome=\"completed\"}"),
      2.0);
  // One delta row on the incarnation about to be replaced.
  Result<HttpResponse> appended = client.Roundtrip(
      "POST", "/collections/live/vectors", "[6,0,0,0]\n");
  ASSERT_TRUE(appended.ok());
  ASSERT_EQ(appended.value().status, 200) << appended.value().body;

  // Replace the collection under the same name. The slowlog describes the
  // hosted searcher — which is new — so it resets; the Prometheus counters
  // are cumulative time series keyed by name and must NOT reset.
  PutAxisCollection(client, "live", 7, dim);
  slowlog = client.Roundtrip("GET", "/collections/live/slowlog");
  ASSERT_TRUE(slowlog.ok());
  EXPECT_EQ(MustParseBody(slowlog.value()).Find("slowlog")->size(), 0u)
      << slowlog.value().body;
  // The size gauges describe the new incarnation: install stamps every
  // one of them, so the old delta row is gone from pdx_delta_vectors.
  scrape = client.Roundtrip("GET", "/metrics");
  ASSERT_TRUE(scrape.ok());
  EXPECT_DOUBLE_EQ(SeriesValue(scrape.value().body,
                               "pdx_delta_vectors{collection=\"live\"}"),
                   0.0);
  EXPECT_DOUBLE_EQ(SeriesValue(scrape.value().body,
                               "pdx_collection_vectors{collection=\"live\"}"),
                   7.0);

  (void)Search(client, "live", 1.0, dim);
  scrape = client.Roundtrip("GET", "/metrics");
  ASSERT_TRUE(scrape.ok());
  EXPECT_DOUBLE_EQ(
      SeriesValue(
          scrape.value().body,
          "pdx_queries_total{collection=\"live\",outcome=\"completed\"}"),
      3.0);  // 2 before the replace + 1 after: cumulative.
  // GET /stats reads the same registry series, so it keeps counting
  // across the replace too and agrees with the scrape.
  Result<HttpResponse> stats = client.Roundtrip("GET", "/stats");
  ASSERT_TRUE(stats.ok());
  const JsonValue stats_body = MustParseBody(stats.value());
  const JsonValue* live = stats_body.Find("collections")->Find("live");
  ASSERT_NE(live, nullptr) << stats.value().body;
  EXPECT_EQ(live->Find("completed")->AsNumber(), 3.0) << stats.value().body;
  EXPECT_EQ(live->Find("completed")->AsNumber(),
            SeriesValue(scrape.value().body,
                        "pdx_queries_total{collection=\"live\","
                        "outcome=\"completed\"}"));
  // The replacement is mutable again (it was built from vectors).
  Result<HttpResponse> posted = client.Roundtrip(
      "POST", "/collections/live/vectors", "[5,0,0,0]\n");
  ASSERT_TRUE(posted.ok());
  EXPECT_EQ(posted.value().status, 200) << posted.value().body;
}

TEST(IngestWireTest, RejectedPutLeavesCollectionServing) {
  WireStack stack;
  HttpClient client = stack.NewClient();
  const size_t dim = 4;
  PutAxisCollection(client, "live", 4, dim);

  // ADSampling has no inner-product form, so the build is refused (501)
  // after the body parsed — the replace must never unhost the old one.
  JsonValue put = JsonValue::Object();
  JsonValue rows = JsonValue::Array();
  for (size_t i = 0; i < 3; ++i) {
    JsonValue row = JsonValue::Array();
    for (size_t d = 0; d < dim; ++d) row.Append(1.0);
    rows.Append(std::move(row));
  }
  put.Set("vectors", std::move(rows));
  put.Set("pruner", "adsampling");
  put.Set("metric", "ip");
  Result<HttpResponse> rejected =
      client.Roundtrip("PUT", "/collections/live", WriteJson(put));
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(rejected.value().status, 501) << rejected.value().body;

  Result<HttpResponse> info = client.Roundtrip("GET", "/collections/live");
  ASSERT_TRUE(info.ok());
  ASSERT_EQ(info.value().status, 200) << info.value().body;
  EXPECT_EQ(MustParseBody(info.value()).Find("count")->AsNumber(), 4.0);
  EXPECT_EQ(TopIds(Search(client, "live", 2.0, dim)).front(), 1u);
}

// --- Mutated ingest bodies, straight into the handler -----------------------

/// One seeded edit of an ingest body: overwrite a byte with any byte,
/// insert one of the bytes the NDJSON and JSON grammars turn on, delete a
/// byte, or repeat a span (a row, an element, a digit run).
void MutateBody(std::string& body, Rng& rng) {
  static const std::string kInserts = "{}[]\",:\n-.e0123456789 ";
  const size_t at = body.empty() ? 0 : rng.UniformInt(body.size());
  switch (rng.UniformInt(5)) {
    case 0:
      if (!body.empty()) body[at] = static_cast<char>(rng.UniformInt(256));
      break;
    case 1:
    case 2:
      body.insert(body.begin() + static_cast<std::ptrdiff_t>(at),
                  kInserts[rng.UniformInt(kInserts.size())]);
      break;
    case 3:
      if (!body.empty()) body.erase(at, 1);
      break;
    default:
      body.insert(at, body.substr(at, 1 + rng.UniformInt(16)));
      break;
  }
}

TEST(IngestWireTest, MutatedIngestBodiesGetOneCleanAnswer) {
  // SearchHandler::Handle with no sockets: every edit of a valid NDJSON or
  // {"vectors","ids"} body gets exactly one answer, 2xx or 4xx — a bad
  // body is the client's error, never a 5xx — while background folds run
  // under the appends, and the collection keeps serving afterwards.
  ServiceConfig config;
  config.threads = 1;
  config.mutation.compact_threshold = 64;
  SearchService service(config);
  SearchHandler handler(service);
  constexpr size_t kDim = 4;
  VectorSet base(kDim, 16);
  for (size_t i = 0; i < 16; ++i) {
    const float row[kDim] = {static_cast<float>(i + 1), 0.0f, 0.0f, 0.0f};
    base.Append(row);
  }
  SearcherConfig searcher;
  searcher.layout = SearcherLayout::kFlat;
  searcher.pruner = PrunerKind::kLinear;
  ASSERT_TRUE(service.AddCollection("live", base, searcher).ok());

  const std::vector<std::string> valid = {
      "[1,0,0,0]\n[2,0.5,0,0]\n",
      "{\"id\": 7, \"vector\": [1,2,3,4]}\n"
      "{\"id\": 40, \"vector\": [0,0,0,1]}\n",
      R"({"vectors": [[1,0,0,0], [0,1,0,0]], "ids": [3, 41]})",
      R"({"vectors": [[0.25,0,1e3,0]]})",
  };
  Rng rng(20261019);
  size_t rows_added = 0;
  for (size_t trial = 0; trial < 1500; ++trial) {
    HttpRequest request;
    request.method = "POST";
    request.path = "/collections/live/vectors";
    request.body = valid[trial % valid.size()];
    const size_t edits = 1 + rng.UniformInt(3);
    for (size_t e = 0; e < edits; ++e) MutateBody(request.body, rng);
    const std::string body = request.body;
    // Ingest answers on the calling thread, before Handle returns.
    std::vector<HttpResponse> answers;
    handler.Handle(std::move(request), [&answers](HttpResponse response) {
      answers.push_back(std::move(response));
    });
    ASSERT_EQ(answers.size(), 1u) << body;
    const int status = answers.front().status;
    EXPECT_TRUE((status >= 200 && status < 300) ||
                (status >= 400 && status < 500))
        << status << " for " << body;
    if (status < 300) {
      rows_added += static_cast<size_t>(
          MustParseBody(answers.front()).Find("added")->AsNumber());
    }
  }
  // Some edits stay valid, and every row a 2xx reported was ingested.
  EXPECT_GT(rows_added, 64u);
  EXPECT_EQ(service.Stats().collections.at("live").added, rows_added);

  HttpRequest search;
  search.method = "POST";
  search.path = "/collections/live/search";
  search.body = R"({"query": [3, 0, 0, 0]})";
  std::promise<HttpResponse> answered;
  std::future<HttpResponse> answer = answered.get_future();
  handler.Handle(std::move(search), [&answered](HttpResponse response) {
    answered.set_value(std::move(response));
  });
  ASSERT_EQ(answer.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  const HttpResponse response = answer.get();
  EXPECT_EQ(response.status, 200) << response.body;
  EXPECT_FALSE(TopIds(MustParseBody(response)).empty());
}

}  // namespace
}  // namespace pdx
