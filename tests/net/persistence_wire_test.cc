// Wire tests for the persistence routes: POST /collections/<name>/save
// writes a collection file, PUT /collections/<name>/load restores it
// (replacing like PUT), and the load source shows up in GET /stats,
// GET /collections/<name>, and /healthz. Runs the real stack — server,
// sockets, handler, service, storage.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "benchlib/datagen.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/json.h"
#include "net/search_handler.h"
#include "serve/search_service.h"

namespace pdx {
namespace {

Dataset MakeData(size_t dim = 14, uint64_t seed = 41, size_t count = 900) {
  SyntheticSpec spec;
  spec.name = "persist-wire-test";
  spec.dim = dim;
  spec.count = count;
  spec.num_queries = 4;
  spec.num_clusters = 6;
  spec.seed = seed;
  spec.distribution = ValueDistribution::kNormal;
  return GenerateDataset(spec);
}

struct WireStack {
  WireStack()
      : service(ServiceConfig{}), handler(service), server(HttpServerConfig{}) {
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

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

JsonValue MustParseBody(const HttpResponse& response) {
  Result<JsonValue> parsed = ParseJson(response.body);
  EXPECT_TRUE(parsed.ok()) << response.body;
  return parsed.ok() ? std::move(parsed).value() : JsonValue();
}

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

std::string SearchBody(const float* query, size_t dim) {
  JsonValue out = JsonValue::Object();
  JsonValue vector = JsonValue::Array();
  for (size_t d = 0; d < dim; ++d) {
    vector.Append(static_cast<double>(query[d]));
  }
  out.Set("query", std::move(vector));
  return WriteJson(out);
}

TEST(PersistenceWireTest, SaveLoadRoundTripOverHttp) {
  Dataset data = MakeData();
  const std::string path = TempPath("wire_roundtrip.pdxc");
  WireStack stack;
  HttpClient client = stack.NewClient();

  JsonValue put = JsonValue::Object();
  put.Set("vectors", VectorsJson(data.data));
  put.Set("pruner", "bond");
  put.Set("k", static_cast<size_t>(8));
  Result<HttpResponse> created =
      client.Roundtrip("PUT", "/collections/demo", WriteJson(put));
  ASSERT_TRUE(created.ok());
  ASSERT_EQ(created.value().status, 201) << created.value().body;

  // Baseline results before the save.
  const std::string query_body =
      SearchBody(data.queries.Vector(0), data.queries.dim());
  Result<HttpResponse> before =
      client.Roundtrip("POST", "/collections/demo/search", query_body);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before.value().status, 200) << before.value().body;

  // Save.
  JsonValue save = JsonValue::Object();
  save.Set("path", path);
  Result<HttpResponse> saved =
      client.Roundtrip("POST", "/collections/demo/save", WriteJson(save));
  ASSERT_TRUE(saved.ok());
  ASSERT_EQ(saved.value().status, 200) << saved.value().body;
  EXPECT_EQ(MustParseBody(saved.value()).Find("path")->AsString(), path);

  // Load replaces the live collection (same name, restored from disk).
  JsonValue load = JsonValue::Object();
  load.Set("path", path);
  Result<HttpResponse> loaded =
      client.Roundtrip("PUT", "/collections/demo/load", WriteJson(load));
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().status, 201) << loaded.value().body;
  {
    const JsonValue info = MustParseBody(loaded.value());
    EXPECT_EQ(info.Find("count")->AsNumber(), data.data.count());
    EXPECT_EQ(info.Find("source")->AsString(), "mmap");
  }

  // Identical neighbors over the wire: same ids, same distances.
  Result<HttpResponse> after =
      client.Roundtrip("POST", "/collections/demo/search", query_body);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after.value().status, 200) << after.value().body;
  const JsonValue before_hits = MustParseBody(before.value());
  const JsonValue after_hits = MustParseBody(after.value());
  ASSERT_EQ(after_hits.Find("neighbors")->size(),
            before_hits.Find("neighbors")->size());
  for (size_t i = 0; i < after_hits.Find("neighbors")->size(); ++i) {
    const JsonValue& a = after_hits.Find("neighbors")->items()[i];
    const JsonValue& b = before_hits.Find("neighbors")->items()[i];
    EXPECT_EQ(a.Find("id")->AsNumber(), b.Find("id")->AsNumber());
    EXPECT_EQ(a.Find("distance")->AsNumber(), b.Find("distance")->AsNumber());
  }

  // The load source surfaces on every observability route.
  Result<HttpResponse> info =
      client.Roundtrip("GET", "/collections/demo", "");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(MustParseBody(info.value()).Find("source")->AsString(), "mmap");
  Result<HttpResponse> stats = client.Roundtrip("GET", "/stats", "");
  ASSERT_TRUE(stats.ok());
  {
    const JsonValue body = MustParseBody(stats.value());
    const JsonValue* entry = body.Find("collections")->Find("demo");
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->Find("source")->AsString(), "mmap");
    EXPECT_GT(entry->Find("mapped_bytes")->AsNumber(), 0.0);
  }
  Result<HttpResponse> healthz = client.Roundtrip("GET", "/healthz", "");
  ASSERT_TRUE(healthz.ok());
  {
    const JsonValue body = MustParseBody(healthz.value());
    const JsonValue* entry = body.Find("collections")->Find("demo");
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->Find("source")->AsString(), "mmap");
  }

  // The mmap gauge shows on /metrics too.
  Result<HttpResponse> metrics = client.Roundtrip("GET", "/metrics", "");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics.value().body.find("pdx_mmap_bytes"), std::string::npos);
  EXPECT_NE(metrics.value().body.find("pdx_collection_load_ms"),
            std::string::npos);

  std::remove(path.c_str());
}

// Saving a collection back over the file it was loaded from: the save
// renames a fresh file over the path, so the served mapping keeps its
// inode, the save answers 200, and searches stay exact afterwards.
TEST(PersistenceWireTest, SaveOverLoadedFileKeepsServing) {
  Dataset data = MakeData(14, 43);
  const std::string path = TempPath("wire_self_save.pdxc");
  WireStack stack;
  HttpClient client = stack.NewClient();

  JsonValue put = JsonValue::Object();
  put.Set("vectors", VectorsJson(data.data));
  put.Set("pruner", "bond");
  Result<HttpResponse> created =
      client.Roundtrip("PUT", "/collections/x", WriteJson(put));
  ASSERT_TRUE(created.ok());
  ASSERT_EQ(created.value().status, 201) << created.value().body;

  JsonValue target = JsonValue::Object();
  target.Set("path", path);
  const std::string target_body = WriteJson(target);
  Result<HttpResponse> first_save =
      client.Roundtrip("POST", "/collections/x/save", target_body);
  ASSERT_TRUE(first_save.ok());
  ASSERT_EQ(first_save.value().status, 200) << first_save.value().body;

  std::vector<std::string> expected;
  for (size_t q = 0; q < data.queries.count(); ++q) {
    Result<HttpResponse> hit = client.Roundtrip(
        "POST", "/collections/x/search",
        SearchBody(data.queries.Vector(q), data.queries.dim()));
    ASSERT_TRUE(hit.ok());
    ASSERT_EQ(hit.value().status, 200) << hit.value().body;
    expected.push_back(
        WriteJson(*MustParseBody(hit.value()).Find("neighbors")));
  }

  Result<HttpResponse> loaded =
      client.Roundtrip("PUT", "/collections/x/load", target_body);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().status, 201) << loaded.value().body;
  ASSERT_EQ(MustParseBody(loaded.value()).Find("source")->AsString(), "mmap");

  // Twice: the second save replaces the file the first one wrote while the
  // collection is still mapped over the original.
  for (int round = 0; round < 2; ++round) {
    Result<HttpResponse> saved =
        client.Roundtrip("POST", "/collections/x/save", target_body);
    ASSERT_TRUE(saved.ok());
    ASSERT_EQ(saved.value().status, 200) << saved.value().body;
    for (size_t q = 0; q < data.queries.count(); ++q) {
      Result<HttpResponse> hit = client.Roundtrip(
          "POST", "/collections/x/search",
          SearchBody(data.queries.Vector(q), data.queries.dim()));
      ASSERT_TRUE(hit.ok());
      ASSERT_EQ(hit.value().status, 200) << hit.value().body;
      EXPECT_EQ(WriteJson(*MustParseBody(hit.value()).Find("neighbors")),
                expected[q])
          << "round " << round << " query " << q;
    }
  }

  // The file the saves left behind loads and answers the same.
  Result<HttpResponse> reloaded =
      client.Roundtrip("PUT", "/collections/x/load", target_body);
  ASSERT_TRUE(reloaded.ok());
  ASSERT_EQ(reloaded.value().status, 201) << reloaded.value().body;
  Result<HttpResponse> hit = client.Roundtrip(
      "POST", "/collections/x/search",
      SearchBody(data.queries.Vector(0), data.queries.dim()));
  ASSERT_TRUE(hit.ok());
  ASSERT_EQ(hit.value().status, 200) << hit.value().body;
  EXPECT_EQ(WriteJson(*MustParseBody(hit.value()).Find("neighbors")),
            expected[0]);
  std::remove(path.c_str());
}

TEST(PersistenceWireTest, ErrorMapping) {
  WireStack stack;
  HttpClient client = stack.NewClient();

  // Save of an unknown collection -> 404.
  JsonValue save = JsonValue::Object();
  save.Set("path", TempPath("nope.pdxc"));
  Result<HttpResponse> missing =
      client.Roundtrip("POST", "/collections/ghost/save", WriteJson(save));
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().status, 404);

  // Load of a nonexistent file -> mapped error, nothing hosted.
  JsonValue load = JsonValue::Object();
  load.Set("path", TempPath("does_not_exist.pdxc"));
  Result<HttpResponse> bad =
      client.Roundtrip("PUT", "/collections/demo/load", WriteJson(load));
  ASSERT_TRUE(bad.ok());
  EXPECT_GE(bad.value().status, 400);
  Result<HttpResponse> info = client.Roundtrip("GET", "/collections/demo", "");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().status, 404);

  // The same load onto a hosted name fails the same way and leaves the
  // old collection serving.
  JsonValue put = JsonValue::Object();
  put.Set("vectors", VectorsJson(MakeData(4, 7, 20).data));
  Result<HttpResponse> created =
      client.Roundtrip("PUT", "/collections/demo", WriteJson(put));
  ASSERT_TRUE(created.ok());
  ASSERT_EQ(created.value().status, 201) << created.value().body;
  bad = client.Roundtrip("PUT", "/collections/demo/load", WriteJson(load));
  ASSERT_TRUE(bad.ok());
  EXPECT_GE(bad.value().status, 400);
  info = client.Roundtrip("GET", "/collections/demo", "");
  ASSERT_TRUE(info.ok());
  ASSERT_EQ(info.value().status, 200) << info.value().body;
  EXPECT_EQ(MustParseBody(info.value()).Find("count")->AsNumber(), 20.0);

  // Missing "path" -> 400.
  Result<HttpResponse> nopath =
      client.Roundtrip("PUT", "/collections/demo/load", "{}");
  ASSERT_TRUE(nopath.ok());
  EXPECT_EQ(nopath.value().status, 400);

  // Wrong methods -> 400 with a usage hint.
  Result<HttpResponse> wrong =
      client.Roundtrip("GET", "/collections/demo/save", "");
  ASSERT_TRUE(wrong.ok());
  EXPECT_EQ(wrong.value().status, 400);
}

}  // namespace
}  // namespace pdx
