// ann-http: 128-d skewed data in an IVF index (about sqrt(N) buckets),
// searched with the PDX-ADS pruner at nprobe 8, served over loopback HTTP
// as an open loop at a fixed rate from two pipelined connections.
//
// Why: each search is cheap, so JSON, sockets, admission, micro-batching,
// bucket ranking and ADSampling preprocessing carry most of the latency.
// It is the only workload that uses the wire, and k-means dominates its
// set-up.

#include <cstdio>
#include <stdexcept>
#include <string>

#include "bench.h"
#include "http_load.h"
#include "index/ivf.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/json.h"
#include "net/search_handler.h"

namespace perfbench {
namespace {

constexpr size_t kDim = 128;
constexpr size_t kK = 10;
constexpr size_t kConnections = 2;
constexpr size_t kSetupRepeats = 3;
constexpr double kRecallFloor = 0.85;
constexpr char kTarget[] = "/collections/ann/search";

pdx::SearcherConfig AnnConfig() {
  pdx::SearcherConfig config;
  config.layout = pdx::SearcherLayout::kIvf;
  config.pruner = pdx::PrunerKind::kAdsampling;
  config.nprobe = 8;
  config.k = kK;
  return config;
}

std::string SearchBody(const float* query, bool trace) {
  pdx::JsonValue values = pdx::JsonValue::Array();
  for (size_t d = 0; d < kDim; ++d) {
    values.Append(static_cast<double>(query[d]));
  }
  pdx::JsonValue body = pdx::JsonValue::Object();
  body.Set("query", std::move(values));
  if (trace) body.Set("trace", true);
  return pdx::WriteJson(body);
}

/// The served stack, torn down in reverse order of construction.
struct Stack {
  pdx::IvfIndex index;
  std::unique_ptr<pdx::SearchService> service;
  std::unique_ptr<pdx::SearchHandler> handler;
  std::unique_ptr<pdx::HttpServer> server;
  ~Stack() { Stop(); }
  void Stop() {
    if (server != nullptr) server->Stop();
    server.reset();
    handler.reset();
    service.reset();
  }
};

/// One parsed search response.
struct Parsed {
  bool ok = false;
  std::vector<pdx::Neighbor> neighbors;
  pdx::QueryTrace trace;
};

Parsed ParseResponse(const std::string& body) {
  Parsed out;
  auto json = pdx::ParseJson(body);
  if (!json.ok()) return out;
  const pdx::JsonValue* hits = json.value().Find("neighbors");
  if (hits == nullptr || !hits->is_array()) return out;
  for (const pdx::JsonValue& hit : hits->items()) {
    const pdx::JsonValue* id = hit.Find("id");
    const pdx::JsonValue* distance = hit.Find("distance");
    if (id == nullptr || distance == nullptr || !id->is_number()) return out;
    out.neighbors.push_back(
        {static_cast<pdx::VectorId>(id->AsNumber()),
         distance->is_number() ? static_cast<float>(distance->AsNumber())
                               : 0.0f});
  }
  if (const pdx::JsonValue* trace = json.value().Find("trace")) {
    if (const pdx::JsonValue* stages = trace->Find("stages")) {
      auto stage = [&](const char* name) {
        const pdx::JsonValue* v = stages->Find(name);
        return v != nullptr && v->is_number() ? v->AsNumber() : 0.0;
      };
      out.trace.queue_ms = stage("queue_ms");
      out.trace.stage_ms = stage("dispatch_ms");
      out.trace.search_ms = stage("search_ms");
      out.trace.deliver_ms = stage("deliver_ms");
      out.trace.total_ms = stage("total_ms");
    }
  }
  out.ok = true;
  return out;
}

}  // namespace

Outcome RunAnnHttp(const RunOptions& options) {
  Outcome out;
  pdx::SyntheticSpec spec;
  spec.name = "ann-http";
  spec.dim = kDim;
  spec.count = options.tiny ? 3000 : 100000;
  spec.num_queries = options.tiny ? 16 : 256;
  spec.distribution = pdx::ValueDistribution::kSkewed;
  spec.num_clusters = options.tiny ? 16 : 500;
  spec.seed = 42;  // The mixture; the run's seed draws from it.
  // About half the server's capacity on a 4-vCPU VM shared with other
  // tenants, where the capacity swings with their load (past 8000/s when
  // quiet, under 4000/s when busy): the queue stays short and the wire sets
  // the latency.
  const double rate = options.tiny ? 200.0 : 2000.0;  // Requests per second.
  const Inputs inputs = DrawInputs(spec, options.seed);
  const pdx::VectorSet& data = inputs.rows;
  const pdx::VectorSet& queries = inputs.queries;
  const auto truth = BruteForceKnn(data.data(), nullptr, data.count(), kDim,
                                   queries, kK);
  std::vector<std::string> bodies, traced_bodies;
  for (size_t q = 0; q < queries.count(); ++q) {
    const float* query = queries.Vector(static_cast<pdx::VectorId>(q));
    bodies.push_back(SearchBody(query, false));
    traced_bodies.push_back(SearchBody(query, true));
  }

  SpanLog log(options.trace);
  pdx::ServiceConfig service_config;
  service_config.threads = 0;
  service_config.max_pending = 4096;
  service_config.qps_window = std::chrono::milliseconds(
      static_cast<int64_t>(options.seconds * 1000.0));
  Stack stack;
  std::vector<double> setup_s, kmeans_s;
  for (size_t rep = 0; rep < kSetupRepeats; ++rep) {
    stack.Stop();
    const Clock::time_point t = Clock::now();
    {
      ScopedSpan span(log, "index.build");
      const Clock::time_point k = Clock::now();
      stack.index = pdx::IvfIndex::Build(data, AnnConfig().ivf);
      kmeans_s.push_back(SecondsSince(k));
    }
    stack.service = std::make_unique<pdx::SearchService>(service_config);
    {
      ScopedSpan span(log, "serve.add_collection");
      const pdx::Status added =
          stack.service->AddCollection("ann", data, stack.index, AnnConfig());
      if (!added.ok()) throw std::runtime_error(added.ToString());
    }
    stack.handler = std::make_unique<pdx::SearchHandler>(*stack.service);
    stack.server = std::make_unique<pdx::HttpServer>();
    {
      ScopedSpan span(log, "net.start");
      const pdx::Status started =
          stack.server->Start(stack.handler->AsHttpHandler());
      if (!started.ok()) throw std::runtime_error(started.ToString());
    }
    {
      ScopedSpan span(log, "client.first_query");
      pdx::HttpClient client;
      pdx::Status s = client.Connect("127.0.0.1", stack.server->port());
      if (!s.ok()) throw std::runtime_error(s.ToString());
      auto first = client.Roundtrip("POST", kTarget, bodies[0]);
      if (!first.ok() || first.value().status != 200) {
        throw std::runtime_error("first query failed");
      }
    }
    setup_s.push_back(SecondsSince(t));
  }

  // Gates: every request answered 200, recall above the floor. Recall is
  // averaged per pool query so it does not depend on how many requests
  // the schedule fit into the run.
  auto check = [&](const HttpLoadResult& load, std::vector<Parsed>* parsed) {
    uint64_t failed = 0;
    std::vector<double> recall_sum(queries.count()), recall_n(queries.count());
    for (const HttpLoadResult::Response& r : load.responses) {
      Parsed p = r.status == 200 ? ParseResponse(r.body) : Parsed{};
      if (!p.ok) {
        ++failed;
      } else {
        recall_sum[r.query] += RecallAt(p.neighbors, truth[r.query], kK);
        recall_n[r.query] += 1;
      }
      if (parsed != nullptr) parsed->push_back(std::move(p));
    }
    std::vector<double> per_query;
    for (size_t q = 0; q < queries.count(); ++q) {
      if (recall_n[q] > 0) per_query.push_back(recall_sum[q] / recall_n[q]);
    }
    return std::pair{failed, Mean(per_query)};
  };
  auto latencies = [](const HttpLoadResult& load,
                      std::vector<double>* done_s = nullptr) {
    std::vector<double> ms;
    for (const auto& r : load.responses) {
      if (r.status != 200) continue;
      ms.push_back(r.latency_ms);
      if (done_s != nullptr) done_s->push_back(r.done_s);
    }
    return ms;
  };

  const ServeSnapshot before = TakeServeSnapshot(*stack.service);
  const HttpLoadResult run =
      RunOpenLoop(stack.server->port(), kTarget, bodies, rate, options.seconds,
                  kConnections, log);
  const ServeSnapshot after = TakeServeSnapshot(*stack.service);
  const auto [failed, recall] = check(run, nullptr);
  if (failed > 0) out.Fail(std::to_string(failed) + " requests failed");
  if (recall < kRecallFloor) {
    out.Fail("recall@10 " + std::to_string(recall) + " below floor " +
             std::to_string(kRecallFloor));
  }
  std::vector<double> done_s;
  const std::vector<double> latency = latencies(run, &done_s);
  const PhaseRates rates = SliceMedians(done_s, latency, options.seconds);
  out.attempted = run.attempted;
  out.failed = failed;
  out.EndToEnd("setup_s", Median(setup_s), "s");
  out.EndToEnd("qps", rates.qps, "1/s");
  out.EndToEnd("p50_ms", rates.p50_ms, "ms");
  out.EndToEnd("recall_at_10", recall, "ratio");
  out.EndToEnd("rss_mb", PeakRssMb(), "MiB");
  out.Note("p99_ms " + std::to_string(SlicedP99(latency)) +
           " ms (printed, not gated: its spread on a shared 4-core box "
           "exceeds any allowed bound)");
  char line[256];
  std::snprintf(line, sizeof(line),
                "ann-http: %zu x %zu vectors, %zu buckets, open loop %.0f/s "
                "over %zu connections, %zu latency samples; generator late "
                "by %.3f ms mean, %.3f ms max",
                data.count(), kDim, stack.index.num_buckets(), rate,
                kConnections, latency.size(), run.mean_late_ms,
                run.max_late_ms);
  out.Note(line);
  out.Note("gate: recall@10 " + std::to_string(recall) + " (floor " +
           std::to_string(kRecallFloor) + "), failed requests " +
           std::to_string(failed));
  out.Note("error_rate " +
           std::to_string(run.attempted == 0
                              ? 0.0
                              : double(failed) / double(run.attempted)));

  if (!options.trace) return out;

  const HttpLoadResult traced =
      RunOpenLoop(stack.server->port(), kTarget, traced_bodies, rate,
                  options.seconds, kConnections, log);
  std::vector<Parsed> parsed;
  check(traced, &parsed);
  std::vector<double> wire;
  std::vector<pdx::QueryTrace> traces;
  for (size_t i = 0; i < parsed.size(); ++i) {
    if (!parsed[i].ok) continue;
    const HttpLoadResult::Response& r = traced.responses[i];
    const pdx::QueryTrace& t = parsed[i].trace;
    const double wire_ms = r.rtt_ms - t.total_ms;
    wire.push_back(wire_ms);
    traces.push_back(t);
    const uint64_t request = log.NewRequest();
    const uint64_t root =
        log.Record("net.request", r.sent_ms, r.sent_ms + r.rtt_ms, 0, request);
    RecordServeStages(log, t, r.sent_ms + wire_ms / 2, root, request, "core");
  }
  out.Layer("obs.trace_overhead",
            Median(latencies(traced)) / Median(latency), "ratio");
  ReportWire(out, wire,
             run.attempted > 0 ? run.bytes / static_cast<double>(run.attempted)
                               : 0.0);
  ReportServeLayer(out, *stack.service, before, after, traces, "ann", queries);
  out.Layer("index.kmeans_s", Median(kmeans_s), "s");
  ReportStorageProbe(out, *stack.service, "ann",
                     options.work_dir + "/ann-http.pdxc", data.count(), log);
  stack.Stop();
  ReportEngineLayer(
      out,
      [&](bool phase_times) {
        pdx::SearcherConfig config = AnnConfig();
        config.search.collect_phase_times = phase_times;
        return pdx::MakeSearcher(data, stack.index, config);
      },
      queries, log);
  SummarizeSpans(out, log,
                 options.work_dir + "/spans-ann-http-" +
                     std::to_string(options.seed) + ".jsonl");
  return out;
}

}  // namespace perfbench
