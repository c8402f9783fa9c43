#include "net/search_handler.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/sharded_searcher.h"
#include "kernels/kernel_dispatch.h"
#include "storage/vector_set.h"

namespace pdx {

namespace {

JsonValue LatencyJson(const LatencySummary& summary) {
  JsonValue out = JsonValue::Object();
  out.Set("count", summary.count);
  out.Set("p50_ms", summary.p50_ms);
  out.Set("p95_ms", summary.p95_ms);
  out.Set("p99_ms", summary.p99_ms);
  return out;
}

JsonValue NeighborsJson(const std::vector<Neighbor>& neighbors) {
  JsonValue out = JsonValue::Array();
  for (const Neighbor& neighbor : neighbors) {
    JsonValue hit = JsonValue::Object();
    hit.Set("id", static_cast<size_t>(neighbor.id));
    // A non-finite distance cannot ride JSON; null is the honest stand-in
    // (it only arises from degenerate payloads an exact parser rejects).
    if (std::isfinite(neighbor.distance)) {
      hit.Set("distance", static_cast<double>(neighbor.distance));
    } else {
      hit.Set("distance", JsonValue::Null());
    }
    out.Append(std::move(hit));
  }
  return out;
}

/// A query's work record as the wire's `counters` object.
JsonValue CountersJson(const PdxearchProfile& work) {
  const uint64_t avoided = work.values_avoided();
  const uint64_t touched = work.values_scanned + avoided;
  JsonValue out = JsonValue::Object();
  out.Set("blocks_visited", static_cast<size_t>(work.blocks_visited));
  out.Set("vectors_pruned", static_cast<size_t>(work.vectors_pruned));
  out.Set("values_scanned", static_cast<size_t>(work.values_scanned));
  out.Set("values_avoided", static_cast<size_t>(avoided));
  out.Set("dims_scanned", static_cast<size_t>(work.dims_scanned));
  out.Set("predicate_evaluations",
          static_cast<size_t>(work.predicate_evaluations));
  out.Set("rerank_candidates", static_cast<size_t>(work.rerank_candidates));
  // Not work.pruning_power(): 1 - scanned / total can differ from this
  // quotient in the last bit, and the wire value must not move.
  out.Set("pruning_power",
          touched == 0 ? 0.0
                       : static_cast<double>(avoided) /
                             static_cast<double>(touched));
  return out;
}

JsonValue TraceJson(const QueryTrace& trace) {
  JsonValue out = JsonValue::Object();
  out.Set("request_id", trace.request_id);
  JsonValue stages = JsonValue::Object();
  stages.Set("queue_ms", trace.queue_ms);
  stages.Set("dispatch_ms", trace.stage_ms);
  stages.Set("search_ms", trace.search_ms);
  stages.Set("deliver_ms", trace.deliver_ms);
  stages.Set("total_ms", trace.total_ms);
  out.Set("stages", std::move(stages));
  out.Set("counters", CountersJson(trace.counters));
  return out;
}

/// One query's result as a wire object — the per-item shape of both the
/// single and the batched response.
JsonValue QueryResultJson(const QueryResult& result) {
  JsonValue out = JsonValue::Object();
  out.Set("status", StatusCodeName(result.status.code()));
  if (result.status.ok()) {
    out.Set("neighbors", NeighborsJson(result.neighbors));
  } else {
    out.Set("error", result.status.ToString());
  }
  out.Set("queue_ms", result.queue_ms);
  out.Set("total_ms", result.total_ms);
  if (result.trace != nullptr) out.Set("trace", TraceJson(*result.trace));
  return out;
}

JsonValue InfoJson(const CollectionInfo& info) {
  JsonValue out = JsonValue::Object();
  out.Set("name", info.name);
  out.Set("dim", info.dim);
  out.Set("count", info.count);
  out.Set("k", info.default_k);
  out.Set("nprobe", info.default_nprobe);
  out.Set("max_nprobe", info.max_nprobe);
  out.Set("shards", info.shards);
  out.Set("layout", SearcherLayoutName(info.layout));
  out.Set("pruner", PrunerKindName(info.pruner));
  out.Set("quantization", QuantizationKindName(info.quantization));
  if (info.quantization != QuantizationKind::kNone) {
    out.Set("rerank_factor", info.rerank_factor);
    out.Set("quantized_bytes", static_cast<size_t>(info.quantized_bytes));
  }
  out.Set("source", info.source);
  return out;
}

HttpResponse JsonResponse(int status, const JsonValue& body) {
  HttpResponse response;
  response.status = status;
  response.body = WriteJson(body);
  return response;
}

/// Reads an optional non-negative integer field; 0 when absent or null.
Status ReadSizeField(const JsonValue& object, const char* key, size_t* out) {
  *out = 0;
  const JsonValue* field = object.Find(key);
  if (field == nullptr || field->is_null()) return Status::OK();
  if (!field->is_number()) {
    return Status::InvalidArgument(std::string(key) + " must be a number");
  }
  const double value = field->AsNumber();
  if (value < 0 || value != std::floor(value) || value > 9e15) {
    return Status::InvalidArgument(std::string(key) +
                                   " must be a non-negative integer");
  }
  *out = static_cast<size_t>(value);
  return Status::OK();
}

/// Reads an optional enum field by its wire name, the text `name_of` gives
/// the value (GET answers with the same text). Each enum read here numbers
/// its values from 0, and its name function answers "unknown" past the
/// last one. '_' reads as '-', so "round_robin" still selects round-robin
/// shard assignment.
template <typename Enum>
Status ReadNameField(const JsonValue& object, const char* key,
                     const char* (*name_of)(Enum), Enum* out) {
  const JsonValue* field = object.Find(key);
  if (field == nullptr) return Status::OK();
  if (field->is_string()) {
    std::string text = field->AsString();
    std::replace(text.begin(), text.end(), '_', '-');
    for (int v = 0; std::strcmp(name_of(static_cast<Enum>(v)), "unknown");
         ++v) {
      if (text == name_of(static_cast<Enum>(v))) {
        *out = static_cast<Enum>(v);
        return Status::OK();
      }
    }
  }
  return Status::InvalidArgument("unknown " + std::string(key) + ": " +
                                 WriteJson(*field));
}

/// Converts one JSON array of numbers into `dim` floats appended to `out`.
Status AppendQueryVector(const JsonValue& array, size_t dim,
                         std::vector<float>* out) {
  if (!array.is_array()) {
    return Status::InvalidArgument("query must be an array of numbers");
  }
  if (array.size() != dim) {
    return Status::InvalidArgument(
        "query has " + std::to_string(array.size()) + " dimensions, expected " +
        std::to_string(dim));
  }
  for (const JsonValue& item : array.items()) {
    if (!item.is_number()) {
      return Status::InvalidArgument("query dimensions must be numbers");
    }
    const double value = item.AsNumber();
    // The parser guarantees finite doubles, but the kernels run on floats:
    // a finite 1e300 would still turn into +inf at the cast below. Clamp
    // nothing — reject, so no non-finite value ever reaches a distance
    // kernel through the wire.
    if (value > std::numeric_limits<float>::max() ||
        value < std::numeric_limits<float>::lowest()) {
      return Status::InvalidArgument("vector value out of float range");
    }
    out->push_back(static_cast<float>(value));
  }
  return Status::OK();
}

/// A decoded ingest payload: `count` row-major `dim`-float rows, plus the
/// per-row ids when (and only when) the payload carried them.
struct IngestRows {
  std::vector<float> values;
  std::vector<uint64_t> ids;
  bool with_ids = false;
  size_t count = 0;
  size_t dim = 0;
};

/// Reads one external id: a non-negative integer that fits VectorId (merged
/// results carry external ids in Neighbor::id, so the ceiling is the
/// sentinel, not 2^53).
Status ReadIdValue(const JsonValue& value, uint64_t* out) {
  if (!value.is_number()) {
    return Status::InvalidArgument("ids must be numbers");
  }
  const double number = value.AsNumber();
  if (number < 0 || number != std::floor(number) ||
      number >= static_cast<double>(kInvalidVectorId)) {
    return Status::InvalidArgument("ids must be integers in [0, 4294967295)");
  }
  *out = static_cast<uint64_t>(number);
  return Status::OK();
}

/// Appends one parsed NDJSON row — a plain float array or
/// {"id": n, "vector": [...]} — enforcing the all-or-none id rule and a
/// uniform dimension (both anchored by the first row).
Status AppendIngestRow(const JsonValue& row, IngestRows* out) {
  const JsonValue* vector = nullptr;
  bool has_id = false;
  uint64_t id = 0;
  if (row.is_array()) {
    vector = &row;
  } else if (row.is_object()) {
    vector = row.Find("vector");
    if (vector == nullptr) {
      return Status::InvalidArgument(
          "row objects must carry a \"vector\" array");
    }
    if (const JsonValue* id_field = row.Find("id");
        id_field != nullptr && !id_field->is_null()) {
      PDX_RETURN_IF_ERROR(ReadIdValue(*id_field, &id));
      has_id = true;
    }
  } else {
    return Status::InvalidArgument(
        "each row must be a float array or {\"id\": n, \"vector\": [...]}");
  }
  if (out->count == 0) {
    out->dim = vector->size();
    if (out->dim == 0) {
      return Status::InvalidArgument(
          "rows must have at least one dimension");
    }
    out->with_ids = has_id;
  } else if (has_id != out->with_ids) {
    return Status::InvalidArgument(
        "either every row or no row carries an id");
  }
  PDX_RETURN_IF_ERROR(AppendQueryVector(*vector, out->dim, &out->values));
  if (has_id) out->ids.push_back(id);
  ++out->count;
  return Status::OK();
}

/// Decodes an ingest body. A body opening with '{' is one JSON object
/// {"vectors": [[...], ...], "ids": [...]} (ids optional); anything else is
/// NDJSON — one row per line, blank lines skipped — which is how large
/// ingests stream past the whole-body JSON size cap without ever holding
/// one giant document.
Result<IngestRows> ParseIngestBody(const std::string& body) {
  IngestRows rows;
  const size_t first = body.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) {
    return Status::InvalidArgument("ingest body is empty");
  }
  // A '{' opener is ambiguous: both the whole-body object format and an
  // NDJSON object row start with it. It is the whole-body format exactly
  // when the body parses as ONE document carrying "vectors" — an NDJSON
  // stream of object rows either fails the single-document parse (several
  // values) or lacks the key.
  Result<JsonValue> whole =
      body[first] == '{' ? ParseJson(body) : Result<JsonValue>(Status::InvalidArgument(""));
  if (whole.ok() && whole.value().Find("vectors") != nullptr) {
    const JsonValue& doc = whole.value();
    const JsonValue* vectors = doc.Find("vectors");
    if (!vectors->is_array() || vectors->size() == 0) {
      return Status::InvalidArgument(
          "\"vectors\" must be a non-empty array of float arrays");
    }
    const JsonValue* ids = doc.Find("ids");
    if (ids != nullptr && ids->is_null()) ids = nullptr;
    if (ids != nullptr &&
        (!ids->is_array() || ids->size() != vectors->size())) {
      return Status::InvalidArgument(
          "\"ids\" must be an array matching \"vectors\" in length");
    }
    rows.dim = vectors->items().front().size();
    if (rows.dim == 0) {
      return Status::InvalidArgument("rows must have at least one dimension");
    }
    rows.values.reserve(vectors->size() * rows.dim);
    for (const JsonValue& row : vectors->items()) {
      PDX_RETURN_IF_ERROR(AppendQueryVector(row, rows.dim, &rows.values));
    }
    rows.count = vectors->size();
    if (ids != nullptr) {
      rows.with_ids = true;
      rows.ids.reserve(ids->size());
      for (const JsonValue& id : ids->items()) {
        uint64_t value = 0;
        PDX_RETURN_IF_ERROR(ReadIdValue(id, &value));
        rows.ids.push_back(value);
      }
    }
    return rows;
  }
  // NDJSON: parse line by line so memory tracks one row, not the body.
  size_t start = 0;
  size_t line_number = 0;
  while (start <= body.size()) {
    size_t end = body.find('\n', start);
    if (end == std::string::npos) end = body.size();
    std::string_view line(body.data() + start, end - start);
    start = end + 1;
    ++line_number;
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ' ||
                             line.back() == '\t')) {
      line.remove_suffix(1);
    }
    while (!line.empty() && (line.front() == ' ' || line.front() == '\t')) {
      line.remove_prefix(1);
    }
    if (line.empty()) continue;
    Result<JsonValue> parsed = ParseJson(line);
    Status row_status =
        parsed.ok() ? AppendIngestRow(parsed.value(), &rows) : parsed.status();
    if (!row_status.ok()) {
      return Status::InvalidArgument("ingest line " +
                                     std::to_string(line_number) + ": " +
                                     row_status.message());
    }
  }
  if (rows.count == 0) {
    return Status::InvalidArgument("ingest body carries no rows");
  }
  return rows;
}

/// Parses the body both persistence routes share: a JSON object whose
/// "path" is a non-empty string.
Result<JsonValue> ParsePathBody(const std::string& text) {
  Result<JsonValue> parsed = ParseJson(text);
  if (!parsed.ok()) return parsed.status();
  const JsonValue& body = parsed.value();
  if (!body.is_object()) {
    return Status::InvalidArgument("body must be a JSON object");
  }
  const JsonValue* path = body.Find("path");
  if (path == nullptr || !path->is_string() || path->AsString().empty()) {
    return Status::InvalidArgument(
        "\"path\" must be a non-empty file path string");
  }
  return parsed;
}

/// Answers a hosting route (PUT, load): `hosted`'s error, or 201 with the
/// collection's new shape.
void RespondHosted(const SearchService& service, const std::string& collection,
                   const Status& hosted, const HttpResponder& respond) {
  Result<CollectionInfo> info =
      hosted.ok() ? service.GetCollectionInfo(collection)
                  : Result<CollectionInfo>(hosted);
  if (!info.ok()) {
    // A concurrent DELETE can unhost the name in between; report what the
    // service says now.
    respond(MakeErrorResponse(info.status()));
    return;
  }
  respond(JsonResponse(201, InfoJson(info.value())));
}

/// Completion state shared by the N callbacks of one batched search:
/// results land by index, the last arrival builds and sends the response.
struct BatchState {
  std::mutex mutex;
  std::vector<QueryResult> results;
  size_t remaining = 0;
  HttpResponder respond;
};

}  // namespace

HttpResponse MakeErrorResponse(const Status& status) {
  JsonValue body = JsonValue::Object();
  body.Set("error", status.message());
  body.Set("status", StatusCodeName(status.code()));
  HttpResponse response = JsonResponse(HttpStatusFromStatus(status), body);
  if (status.IsResourceExhausted()) {
    // Backpressure is explicitly retryable; tell the client when.
    response.headers["Retry-After"] = "1";
  }
  return response;
}

std::string SearchHandler::ResolveRequestId(const HttpRequest& request) {
  const auto it = request.headers.find("x-request-id");
  if (it != request.headers.end() && !it->second.empty()) {
    // Echoing a client string back into a response header: clamp the
    // length and keep only header-safe printable characters, so a hostile
    // id can neither bloat responses nor smuggle header syntax.
    std::string id = it->second.substr(0, 128);
    for (char& c : id) {
      if (c < 0x21 || c > 0x7e) c = '_';
    }
    return id;
  }
  return "pdx-" + std::to_string(request_seq_.fetch_add(1) + 1);
}

void SearchHandler::Handle(HttpRequest request, HttpResponder respond) {
  // Resolve the request id up front and wrap the responder so EVERY
  // response — error paths, async search completions, the lot — carries
  // the X-Request-Id header exactly once.
  const std::string request_id = ResolveRequestId(request);
  respond = [inner = std::move(respond), request_id](HttpResponse response) {
    response.headers["X-Request-Id"] = request_id;
    inner(std::move(response));
  };
  const std::string& path = request.path;
  if (path == "/healthz") {
    if (request.method != "GET") {
      respond(MakeErrorResponse(Status::InvalidArgument("use GET /healthz")));
      return;
    }
    HandleHealthz(std::move(respond));
    return;
  }
  if (path == "/stats") {
    if (request.method != "GET") {
      respond(MakeErrorResponse(Status::InvalidArgument("use GET /stats")));
      return;
    }
    HandleStats(std::move(respond));
    return;
  }
  if (path == "/metrics") {
    if (request.method != "GET") {
      respond(MakeErrorResponse(Status::InvalidArgument("use GET /metrics")));
      return;
    }
    HandleMetrics(std::move(respond));
    return;
  }
  if (path == "/collections") {
    if (request.method != "GET") {
      respond(MakeErrorResponse(
          Status::InvalidArgument("use GET /collections")));
      return;
    }
    HandleListCollections(std::move(respond));
    return;
  }
  const std::string prefix = "/collections/";
  if (path.rfind(prefix, 0) == 0) {
    std::string rest = path.substr(prefix.size());
    const size_t slash = rest.find('/');
    if (slash == std::string::npos) {
      const std::string name = std::move(rest);
      if (name.empty()) {
        respond(MakeErrorResponse(
            Status::InvalidArgument("collection name must be non-empty")));
        return;
      }
      if (request.method == "PUT") {
        HandlePut(name, request, std::move(respond));
      } else if (request.method == "DELETE") {
        HandleDelete(name, std::move(respond));
      } else if (request.method == "GET") {
        HandleGetCollection(name, std::move(respond));
      } else {
        respond(MakeErrorResponse(Status::InvalidArgument(
            "use PUT/DELETE/GET on /collections/<name>")));
      }
      return;
    }
    const std::string name = rest.substr(0, slash);
    const std::string action = rest.substr(slash + 1);
    if (action == "search" && !name.empty()) {
      if (request.method != "POST") {
        respond(MakeErrorResponse(Status::InvalidArgument(
            "use POST /collections/<name>/search")));
        return;
      }
      HandleSearch(name, request, request_id, std::move(respond));
      return;
    }
    if (action == "vectors" && !name.empty()) {
      if (request.method != "POST") {
        respond(MakeErrorResponse(Status::InvalidArgument(
            "use POST /collections/<name>/vectors")));
        return;
      }
      HandleAddVectors(name, request, std::move(respond));
      return;
    }
    if (action.rfind("vectors/", 0) == 0 && !name.empty()) {
      if (request.method != "DELETE") {
        respond(MakeErrorResponse(Status::InvalidArgument(
            "use DELETE /collections/<name>/vectors/<id>")));
        return;
      }
      HandleDeleteVector(name, action.substr(8), std::move(respond));
      return;
    }
    if (action == "save" && !name.empty()) {
      if (request.method != "POST") {
        respond(MakeErrorResponse(Status::InvalidArgument(
            "use POST /collections/<name>/save")));
        return;
      }
      HandleSave(name, request, std::move(respond));
      return;
    }
    if (action == "load" && !name.empty()) {
      if (request.method != "PUT") {
        respond(MakeErrorResponse(Status::InvalidArgument(
            "use PUT /collections/<name>/load")));
        return;
      }
      HandleLoad(name, request, std::move(respond));
      return;
    }
    if (action == "slowlog" && !name.empty()) {
      if (request.method != "GET") {
        respond(MakeErrorResponse(Status::InvalidArgument(
            "use GET /collections/<name>/slowlog")));
        return;
      }
      HandleSlowlog(name, std::move(respond));
      return;
    }
  }
  respond(MakeErrorResponse(Status::NotFound("no route for " + path)));
}

void SearchHandler::HandleSearch(const std::string& collection,
                                 const HttpRequest& request,
                                 const std::string& request_id,
                                 HttpResponder respond) {
  Result<JsonValue> parsed = ParseJson(request.body);
  if (!parsed.ok()) {
    respond(MakeErrorResponse(parsed.status()));
    return;
  }
  const JsonValue& body = parsed.value();
  if (!body.is_object()) {
    respond(MakeErrorResponse(
        Status::InvalidArgument("search body must be a JSON object")));
    return;
  }

  // Collection shape first: the query payload is validated against the
  // hosted dimension BEFORE Submit copies dim floats from it (a short
  // payload must be a 400, not an out-of-bounds read). The dim here is a
  // snapshot, so query_len below makes Submit re-check it atomically with
  // admission — a concurrent PUT swapping the name to a different-dim
  // collection turns into a per-query 400, not a stale-offset read.
  Result<CollectionInfo> info = service_.GetCollectionInfo(collection);
  if (!info.ok()) {
    respond(MakeErrorResponse(info.status()));
    return;
  }
  const size_t dim = info.value().dim;

  QueryOptions options;
  options.query_len = dim;
  size_t deadline_ms = 0;
  Status knob = ReadSizeField(body, "k", &options.k);
  if (knob.ok()) knob = ReadSizeField(body, "nprobe", &options.nprobe);
  if (knob.ok()) knob = ReadSizeField(body, "deadline_ms", &deadline_ms);
  if (!knob.ok()) {
    respond(MakeErrorResponse(knob));
    return;
  }
  options.timeout = std::chrono::milliseconds(deadline_ms);
  if (const JsonValue* trace = body.Find("trace"); trace != nullptr) {
    if (!trace->is_bool()) {
      respond(MakeErrorResponse(
          Status::InvalidArgument("trace must be a boolean")));
      return;
    }
    options.trace = trace->AsBool();
  }
  // The trace carries the response's X-Request-Id, so the wire trace, the
  // slowlog entry, and the client's own logs correlate on one id. Set even
  // without "trace": true, so a query promoted by the service's
  // trace_sample_rate correlates too (the service only copies the string
  // for queries actually selected).
  options.request_id = request_id;

  const JsonValue* single = body.Find("query");
  const JsonValue* batch = body.Find("queries");
  if ((single == nullptr) == (batch == nullptr)) {
    respond(MakeErrorResponse(Status::InvalidArgument(
        "provide exactly one of \"query\" or \"queries\"")));
    return;
  }

  if (single != nullptr) {
    std::vector<float> query;
    query.reserve(dim);
    const Status converted = AppendQueryVector(*single, dim, &query);
    if (!converted.ok()) {
      respond(MakeErrorResponse(converted));
      return;
    }
    const std::string name = collection;
    // The service copies the query synchronously inside Submit, so the
    // local buffer may die when this scope exits; the callback owns the
    // responder and fires exactly once (SearchService's contract), from
    // the dispatcher thread or inline on rejection.
    service_.Submit(collection, query.data(), options,
                    [respond, name](QueryResult result) {
                      if (!result.status.ok()) {
                        respond(MakeErrorResponse(result.status));
                        return;
                      }
                      JsonValue out = QueryResultJson(result);
                      out.Set("collection", name);
                      respond(JsonResponse(200, out));
                    });
    return;
  }

  if (!batch->is_array() || batch->size() == 0) {
    respond(MakeErrorResponse(Status::InvalidArgument(
        "\"queries\" must be a non-empty array of query arrays")));
    return;
  }
  const size_t num_queries = batch->size();
  std::vector<float> queries;
  queries.reserve(num_queries * dim);
  for (const JsonValue& item : batch->items()) {
    const Status converted = AppendQueryVector(item, dim, &queries);
    if (!converted.ok()) {
      respond(MakeErrorResponse(converted));
      return;
    }
  }

  auto state = std::make_shared<BatchState>();
  state->results.resize(num_queries);
  state->remaining = num_queries;
  state->respond = std::move(respond);
  const std::string name = collection;
  for (size_t q = 0; q < num_queries; ++q) {
    service_.Submit(
        collection, queries.data() + q * dim, options,
        [state, name, q](QueryResult result) {
          JsonValue response_body;
          {
            std::lock_guard<std::mutex> lock(state->mutex);
            state->results[q] = std::move(result);
            if (--state->remaining != 0) return;
            // Last arrival: assemble in submission order. HTTP status is
            // 200 only when every query succeeded; a partial failure
            // answers with the first failing query's mapping, body still
            // carrying every per-query outcome.
            response_body = JsonValue::Object();
            response_body.Set("collection", name);
            JsonValue results = JsonValue::Array();
            for (const QueryResult& item : state->results) {
              results.Append(QueryResultJson(item));
            }
            response_body.Set("results", std::move(results));
          }
          int http_status = 200;
          for (const QueryResult& item : state->results) {
            if (!item.status.ok()) {
              http_status = HttpStatusFromStatus(item.status);
              break;
            }
          }
          HttpResponse response = JsonResponse(http_status, response_body);
          if (http_status == 429) response.headers["Retry-After"] = "1";
          state->respond(std::move(response));
        });
  }
}

void SearchHandler::HandlePut(const std::string& collection,
                              const HttpRequest& request,
                              HttpResponder respond) {
  Result<JsonValue> parsed = ParseJson(request.body);
  if (!parsed.ok()) {
    respond(MakeErrorResponse(parsed.status()));
    return;
  }
  const JsonValue& body = parsed.value();
  if (!body.is_object()) {
    respond(MakeErrorResponse(
        Status::InvalidArgument("collection body must be a JSON object")));
    return;
  }
  const JsonValue* vectors = body.Find("vectors");
  if (vectors == nullptr || !vectors->is_array() || vectors->size() == 0) {
    respond(MakeErrorResponse(Status::InvalidArgument(
        "\"vectors\" must be a non-empty array of float arrays")));
    return;
  }
  const size_t count = vectors->size();
  const size_t dim = vectors->items().front().size();
  if (dim == 0) {
    respond(MakeErrorResponse(
        Status::InvalidArgument("vectors must have at least one dimension")));
    return;
  }
  std::vector<float> flat;
  flat.reserve(count * dim);
  for (const JsonValue& row : vectors->items()) {
    const Status converted = AppendQueryVector(row, dim, &flat);
    if (!converted.ok()) {
      respond(MakeErrorResponse(converted));
      return;
    }
  }

  SearcherConfig config;
  ShardingOptions sharding;
  Status knob =
      ReadNameField(body, "layout", SearcherLayoutName, &config.layout);
  if (knob.ok()) {
    knob = ReadNameField(body, "pruner", PrunerKindName, &config.pruner);
  }
  if (knob.ok()) {
    knob = ReadNameField(body, "metric", MetricName, &config.metric);
  }
  if (knob.ok()) {
    knob = ReadNameField(body, "quantization", QuantizationKindName,
                         &config.quantization);
  }
  if (knob.ok()) {
    knob = ReadNameField(body, "assignment", ShardAssignmentName,
                         &sharding.assignment);
  }
  size_t value = 0;
  if (knob.ok()) knob = ReadSizeField(body, "k", &value);
  if (knob.ok() && value > 0) config.k = value;
  if (knob.ok()) knob = ReadSizeField(body, "rerank_factor", &value);
  if (knob.ok() && value > 0) config.rerank_factor = value;
  if (knob.ok()) knob = ReadSizeField(body, "nprobe", &value);
  if (knob.ok() && value > 0) config.nprobe = value;
  if (knob.ok()) knob = ReadSizeField(body, "block_capacity", &value);
  if (knob.ok() && value > 0) config.block_capacity = value;
  if (knob.ok()) knob = ReadSizeField(body, "shards", &value);
  if (knob.ok() && value > 0) sharding.num_shards = value;
  if (!knob.ok()) {
    respond(MakeErrorResponse(knob));
    return;
  }

  // The service builds the new collection before it swaps it in: a body it
  // rejects leaves the hosted one serving, and queries queued for the old
  // collection finish on it. Safe to run on the connection thread —
  // searchers copy the payload into their own PDX stores, so the VectorSet
  // below can die at scope exit.
  const VectorSet payload = VectorSet::FromRowMajor(flat.data(), count, dim);
  RespondHosted(service_, collection,
                service_.AddCollection(collection, payload, config, sharding),
                respond);
}

void SearchHandler::HandleAddVectors(const std::string& collection,
                                     const HttpRequest& request,
                                     HttpResponder respond) {
  Result<IngestRows> parsed = ParseIngestBody(request.body);
  if (!parsed.ok()) {
    respond(MakeErrorResponse(parsed.status()));
    return;
  }
  const IngestRows& rows = parsed.value();
  // With ids this is the wire's upsert: AddVectors tombstones an existing
  // id and appends the replacement under it, atomically per row.
  Result<std::vector<uint64_t>> added = service_.AddVectors(
      collection, rows.values.data(), rows.count, rows.dim,
      rows.with_ids ? rows.ids.data() : nullptr);
  if (!added.ok()) {
    respond(MakeErrorResponse(added.status()));
    return;
  }
  JsonValue body = JsonValue::Object();
  body.Set("collection", collection);
  body.Set("added", rows.count);
  JsonValue ids = JsonValue::Array();
  for (const uint64_t id : added.value()) {
    ids.Append(static_cast<size_t>(id));
  }
  body.Set("ids", std::move(ids));
  respond(JsonResponse(200, body));
}

void SearchHandler::HandleDeleteVector(const std::string& collection,
                                       const std::string& id_text,
                                       HttpResponder respond) {
  // kInvalidVectorId is 10 decimal digits; anything longer cannot be a
  // valid id, so the bound doubles as the overflow guard for stoull.
  if (id_text.empty() || id_text.size() > 10 ||
      id_text.find_first_not_of("0123456789") != std::string::npos) {
    respond(MakeErrorResponse(Status::InvalidArgument(
        "vector id must be a decimal integer in [0, 4294967295)")));
    return;
  }
  const uint64_t id = std::stoull(id_text);
  if (id >= kInvalidVectorId) {
    respond(MakeErrorResponse(Status::InvalidArgument(
        "vector id must be a decimal integer in [0, 4294967295)")));
    return;
  }
  std::vector<uint64_t> missing;
  Result<size_t> deleted = service_.DeleteVectors(collection, &id, 1, &missing);
  if (!deleted.ok()) {
    respond(MakeErrorResponse(deleted.status()));
    return;
  }
  if (!missing.empty()) {
    respond(MakeErrorResponse(Status::NotFound(
        "no vector with id " + id_text + " in " + collection)));
    return;
  }
  JsonValue body = JsonValue::Object();
  body.Set("collection", collection);
  body.Set("deleted", static_cast<size_t>(1));
  respond(JsonResponse(200, body));
}

void SearchHandler::HandleSave(const std::string& collection,
                               const HttpRequest& request,
                               HttpResponder respond) {
  Result<JsonValue> parsed = ParsePathBody(request.body);
  if (!parsed.ok()) {
    respond(MakeErrorResponse(parsed.status()));
    return;
  }
  const std::string& path = parsed.value().Find("path")->AsString();
  // Synchronous on the connection thread, like PUT: the write holds no
  // service lock, so concurrent searches keep flowing while it runs.
  const Status saved = service_.SaveCollection(collection, path);
  if (!saved.ok()) {
    respond(MakeErrorResponse(saved));
    return;
  }
  JsonValue body = JsonValue::Object();
  body.Set("collection", collection);
  body.Set("path", path);
  body.Set("saved", true);
  respond(JsonResponse(200, body));
}

void SearchHandler::HandleLoad(const std::string& collection,
                               const HttpRequest& request,
                               HttpResponder respond) {
  Result<JsonValue> parsed = ParsePathBody(request.body);
  if (!parsed.ok()) {
    respond(MakeErrorResponse(parsed.status()));
    return;
  }
  bool allow_mmap = true;
  if (const JsonValue* mmap = parsed.value().Find("mmap"); mmap != nullptr) {
    if (!mmap->is_bool()) {
      respond(MakeErrorResponse(
          Status::InvalidArgument("mmap must be a boolean")));
      return;
    }
    allow_mmap = mmap->AsBool();
  }
  // Replaces like PUT: the file is validated, mapped and rebuilt before
  // the swap, so a bad file leaves the hosted collection serving.
  RespondHosted(service_, collection,
                service_.LoadCollection(
                    collection, parsed.value().Find("path")->AsString(),
                    allow_mmap),
                respond);
}

void SearchHandler::HandleDelete(const std::string& collection,
                                 HttpResponder respond) {
  const Status removed = service_.RemoveCollection(collection);
  if (!removed.ok()) {
    respond(MakeErrorResponse(removed));
    return;
  }
  JsonValue body = JsonValue::Object();
  body.Set("removed", collection);
  respond(JsonResponse(200, body));
}

void SearchHandler::HandleGetCollection(const std::string& collection,
                                        HttpResponder respond) {
  Result<CollectionInfo> info = service_.GetCollectionInfo(collection);
  if (!info.ok()) {
    respond(MakeErrorResponse(info.status()));
    return;
  }
  respond(JsonResponse(200, InfoJson(info.value())));
}

void SearchHandler::HandleListCollections(HttpResponder respond) {
  JsonValue names = JsonValue::Array();
  for (const std::string& name : service_.CollectionNames()) {
    names.Append(name);
  }
  JsonValue body = JsonValue::Object();
  body.Set("collections", std::move(names));
  respond(JsonResponse(200, body));
}

void SearchHandler::HandleStats(HttpResponder respond) {
  // ONE Stats() call builds the whole document. The counters are the
  // service's registry series (what GET /metrics scrapes), and Stats()
  // reads them in one critical section of the service mutex, which every
  // increment that must agree with another shares: the per-dispatcher
  // dispatch counts sum exactly to the per-collection total, and the
  // outcome counts match the latency windows. Composing the body from
  // several service reads (queue_depth() here, Stats() there) would break
  // that invariant under load — the regression test asserts it over the
  // wire.
  const ServiceStats stats = service_.Stats();
  JsonValue body = JsonValue::Object();
  body.Set("isa", stats.isa);
  body.Set("queue_depth", stats.queue_depth);
  body.Set("pool_threads", stats.pool_threads);
  JsonValue dispatchers = JsonValue::Array();
  for (const DispatcherStats& ds : stats.dispatchers) {
    JsonValue entry = JsonValue::Object();
    entry.Set("dispatches", static_cast<size_t>(ds.dispatches));
    entry.Set("busy_fraction", ds.busy_fraction);
    dispatchers.Append(std::move(entry));
  }
  body.Set("dispatchers", std::move(dispatchers));
  JsonValue collections = JsonValue::Object();
  for (const auto& [name, cs] : stats.collections) {
    JsonValue entry = JsonValue::Object();
    entry.Set("admitted", cs.admitted);
    entry.Set("completed", cs.completed);
    entry.Set("rejected", cs.rejected);
    entry.Set("expired", cs.expired);
    entry.Set("cancelled", cs.cancelled);
    entry.Set("failed", cs.failed);
    entry.Set("dispatches", cs.dispatches);
    entry.Set("shards", cs.shards);
    entry.Set("qps", cs.qps);
    entry.Set("queue_wait", LatencyJson(cs.queue_wait));
    entry.Set("latency", LatencyJson(cs.latency));
    entry.Set("count", cs.count);
    entry.Set("quantization", cs.quantization);
    if (cs.quantization != "none") {
      entry.Set("rerank_factor", cs.rerank_factor);
      entry.Set("quantized_bytes", static_cast<size_t>(cs.quantized_bytes));
      entry.Set("rerank_candidates",
                static_cast<size_t>(cs.rerank_candidates));
    }
    entry.Set("source", cs.source);
    if (cs.mapped_bytes > 0) {
      entry.Set("mapped_bytes", static_cast<size_t>(cs.mapped_bytes));
    }
    entry.Set("mutable", cs.is_mutable);
    if (cs.is_mutable) {
      entry.Set("delta", cs.delta);
      entry.Set("delta_blocks", cs.delta_blocks);
      entry.Set("base_blocks", cs.base_blocks);
      entry.Set("tombstones", cs.tombstones);
    }
    entry.Set("added", static_cast<size_t>(cs.added));
    entry.Set("deleted", static_cast<size_t>(cs.deleted));
    entry.Set("compactions", static_cast<size_t>(cs.compactions));
    collections.Set(name, std::move(entry));
  }
  body.Set("collections", std::move(collections));
  respond(JsonResponse(200, body));
}

void SearchHandler::HandleMetrics(HttpResponder respond) {
  // The registry serializes itself; the handler only picks the media type
  // Prometheus scrapers expect for the text exposition format.
  HttpResponse response;
  response.status = 200;
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  response.body = service_.metrics().WritePrometheus();
  respond(std::move(response));
}

void SearchHandler::HandleSlowlog(const std::string& collection,
                                  HttpResponder respond) {
  Result<std::vector<SlowQueryEntry>> entries = service_.SlowLog(collection);
  if (!entries.ok()) {
    respond(MakeErrorResponse(entries.status()));
    return;
  }
  JsonValue body = JsonValue::Object();
  body.Set("collection", collection);
  JsonValue list = JsonValue::Array();
  for (const SlowQueryEntry& entry : entries.value()) {
    JsonValue item = JsonValue::Object();
    item.Set("id", static_cast<size_t>(entry.id));
    if (!entry.request_id.empty()) item.Set("request_id", entry.request_id);
    item.Set("outcome", entry.outcome);
    item.Set("k", entry.k);
    item.Set("nprobe", entry.nprobe);
    item.Set("queue_ms", entry.queue_ms);
    item.Set("dispatch_ms", entry.stage_ms);
    item.Set("search_ms", entry.search_ms);
    item.Set("total_ms", entry.total_ms);
    item.Set("counters", CountersJson(entry.counters));
    list.Append(std::move(item));
  }
  body.Set("slowlog", std::move(list));
  respond(JsonResponse(200, body));
}

void SearchHandler::HandleHealthz(HttpResponder respond) {
  // One Stats() snapshot feeds the whole probe body, same consistency
  // argument as HandleStats: queue depth and per-collection counts are
  // from the same critical section.
  const ServiceStats stats = service_.Stats();
  JsonValue body = JsonValue::Object();
  body.Set("status", "ok");
  body.Set("isa", IsaName(DispatchedIsa()));
  body.Set("queue_depth", stats.queue_depth);
  JsonValue collections = JsonValue::Object();
  for (const auto& [name, cs] : stats.collections) {
    JsonValue entry = JsonValue::Object();
    entry.Set("count", cs.count);
    entry.Set("source", cs.source);
    collections.Set(name, std::move(entry));
  }
  body.Set("collections", std::move(collections));
  respond(JsonResponse(200, body));
}

}  // namespace pdx
