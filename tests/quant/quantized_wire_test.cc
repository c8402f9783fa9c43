// The quantized serving tier over the wire: PUT a collection with
// "quantization": "u8" and a rerank factor, search it over a real socket,
// and check the acceptance bar — recall >= 0.95 of the exact tier — plus
// the observable surface: info/stats carry the tier fields, mutations are
// 501 (the u8 tier is immutable), and /metrics exposes
// pdx_quantized_bytes.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "benchlib/datagen.h"
#include "benchlib/recall.h"
#include "core/any_searcher.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/json.h"
#include "net/search_handler.h"
#include "serve/search_service.h"

namespace pdx {
namespace {

Dataset MakeData(size_t dim = 16, size_t count = 1200, size_t num_queries = 10,
                 uint64_t seed = 321) {
  SyntheticSpec spec;
  spec.name = "quant-wire-test";
  spec.dim = dim;
  spec.count = count;
  spec.num_queries = num_queries;
  spec.num_clusters = 8;
  spec.seed = seed;
  spec.distribution = ValueDistribution::kNormal;
  return GenerateDataset(spec);
}

struct WireStack {
  WireStack() : service(ServiceConfig{}), handler(service), server() {
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

JsonValue MustParseBody(const HttpResponse& response) {
  Result<JsonValue> parsed = ParseJson(response.body);
  EXPECT_TRUE(parsed.ok()) << response.body;
  return parsed.ok() ? std::move(parsed).value() : JsonValue();
}

TEST(QuantizedWireTest, U8CollectionServesWithRerankRecall) {
  Dataset data = MakeData();
  const size_t k = 10;
  WireStack stack;
  HttpClient client = stack.NewClient();

  // PUT: a u8 collection with rerank_factor 4.
  JsonValue put = JsonValue::Object();
  put.Set("vectors", VectorsJson(data.data));
  put.Set("layout", "flat");
  put.Set("quantization", "u8");
  put.Set("rerank_factor", static_cast<size_t>(4));
  put.Set("k", k);
  Result<HttpResponse> created =
      client.Roundtrip("PUT", "/collections/q", WriteJson(put));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ASSERT_EQ(created.value().status, 201) << created.value().body;
  {
    const JsonValue info = MustParseBody(created.value());
    EXPECT_EQ(info.Find("quantization")->AsString(), "u8");
    EXPECT_EQ(info.Find("rerank_factor")->AsNumber(), 4.0);
    // The compressed footprint: one byte per value, ~4x under the floats.
    EXPECT_EQ(info.Find("quantized_bytes")->AsNumber(),
              static_cast<double>(data.data.count() * data.data.dim()));
  }

  // Search every query over the wire; the exact tier (ground truth) is
  // computed in process on the same floats (the JSON float round trip is
  // identity).
  const auto truth = ComputeGroundTruth(data.data, data.queries, k);
  double recall_sum = 0.0;
  for (size_t q = 0; q < data.queries.count(); ++q) {
    const float* query = data.queries.Vector(static_cast<VectorId>(q));
    JsonValue request = JsonValue::Object();
    JsonValue values = JsonValue::Array();
    for (size_t d = 0; d < data.queries.dim(); ++d) {
      values.Append(static_cast<double>(query[d]));
    }
    request.Set("query", std::move(values));
    Result<HttpResponse> response = client.Roundtrip(
        "POST", "/collections/q/search", WriteJson(request));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response.value().status, 200) << response.value().body;
    const JsonValue body = MustParseBody(response.value());
    const JsonValue* neighbors = body.Find("neighbors");
    ASSERT_NE(neighbors, nullptr);
    std::vector<Neighbor> result;
    for (const JsonValue& hit : neighbors->items()) {
      result.push_back(
          {static_cast<VectorId>(hit.Find("id")->AsNumber()),
           static_cast<float>(hit.Find("distance")->AsNumber())});
    }
    recall_sum += RecallAtK(result, truth[q], k);
  }
  EXPECT_GE(recall_sum / data.queries.count(), 0.95);

  // Stats surface the tier: quantization, rerank accounting, code bytes.
  Result<HttpResponse> stats = client.Roundtrip("GET", "/stats", "");
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats.value().status, 200);
  {
    const JsonValue body = MustParseBody(stats.value());
    const JsonValue* entry = body.Find("collections")->Find("q");
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->Find("quantization")->AsString(), "u8");
    EXPECT_EQ(entry->Find("rerank_factor")->AsNumber(), 4.0);
    EXPECT_EQ(entry->Find("quantized_bytes")->AsNumber(),
              static_cast<double>(data.data.count() * data.data.dim()));
    // Every served query reranked k * rerank_factor candidates.
    EXPECT_EQ(entry->Find("rerank_candidates")->AsNumber(),
              static_cast<double>(data.queries.count() * k * 4));
    EXPECT_FALSE(entry->Find("mutable")->AsBool());
  }

  // The u8 tier is immutable: streaming ingest answers 501.
  Result<HttpResponse> ingest = client.Roundtrip(
      "POST", "/collections/q/vectors",
      "{\"vectors\": [[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, "
      "9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0]]}");
  ASSERT_TRUE(ingest.ok());
  EXPECT_EQ(ingest.value().status, 501) << ingest.value().body;

  // The gauge reaches Prometheus.
  Result<HttpResponse> metrics = client.Roundtrip("GET", "/metrics", "");
  ASSERT_TRUE(metrics.ok());
  ASSERT_EQ(metrics.value().status, 200);
  EXPECT_NE(metrics.value().body.find("pdx_quantized_bytes"),
            std::string::npos);
  EXPECT_NE(metrics.value().body.find("pdx_search_rerank_candidates_total"),
            std::string::npos);
}

// A rerank_factor far past the collection size — the PUT body accepts up
// to 9e15 — is served like one that reranks every vector: 200 with k
// neighbors, not a 500 from a candidate heap sized k * rerank_factor.
TEST(QuantizedWireTest, HugeRerankFactorStillAnswers200) {
  Dataset data = MakeData(16, 300, 1, 322);
  WireStack stack;
  HttpClient client = stack.NewClient();
  JsonValue put = JsonValue::Object();
  put.Set("vectors", VectorsJson(data.data));
  put.Set("layout", "flat");
  put.Set("quantization", "u8");
  put.Set("rerank_factor", size_t{1000000000000000});
  Result<HttpResponse> created =
      client.Roundtrip("PUT", "/collections/huge", WriteJson(put));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ASSERT_EQ(created.value().status, 201) << created.value().body;

  JsonValue request = JsonValue::Object();
  JsonValue values = JsonValue::Array();
  const float* query = data.queries.Vector(0);
  for (size_t d = 0; d < data.queries.dim(); ++d) {
    values.Append(static_cast<double>(query[d]));
  }
  request.Set("query", std::move(values));
  Result<HttpResponse> response = client.Roundtrip(
      "POST", "/collections/huge/search", WriteJson(request));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response.value().status, 200) << response.value().body;
  const JsonValue body = MustParseBody(response.value());
  ASSERT_NE(body.Find("neighbors"), nullptr);
  EXPECT_EQ(body.Find("neighbors")->size(), SearcherConfig{}.k);
}

TEST(QuantizedWireTest, UnknownQuantizationRejectedWith400) {
  Dataset data = MakeData(8, 64, 1, 9);
  WireStack stack;
  HttpClient client = stack.NewClient();
  JsonValue put = JsonValue::Object();
  put.Set("vectors", VectorsJson(data.data));
  put.Set("quantization", "u4");
  Result<HttpResponse> response =
      client.Roundtrip("PUT", "/collections/bad", WriteJson(put));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status, 400) << response.value().body;
}

}  // namespace
}  // namespace pdx
