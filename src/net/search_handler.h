#ifndef PDX_NET_SEARCH_HANDLER_H_
#define PDX_NET_SEARCH_HANDLER_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "net/http_server.h"
#include "net/json.h"
#include "serve/search_service.h"

namespace pdx {

/// Maps the REST surface onto a SearchService — the glue between
/// HttpServer's transport and the serving layer:
///
///   POST   /collections/<name>/search       search (single or batched)
///   PUT    /collections/<name>              build + host from a JSON payload
///   DELETE /collections/<name>              unhost
///   POST   /collections/<name>/vectors      streaming ingest (add/upsert)
///   DELETE /collections/<name>/vectors/<id> tombstone one vector by id
///   POST   /collections/<name>/save         persist to a collection file
///   PUT    /collections/<name>/load         restore from a collection file
///   GET    /collections                     hosted names
///   GET    /collections/<name>              collection shape (dim, count, ...)
///   GET    /collections/<name>/slowlog      worst-latency queries, worst first
///   GET    /stats                           one ServiceStats snapshot
///   GET    /metrics                         Prometheus text exposition
///   GET    /healthz                         liveness + queue depth + counts
///
/// Every response carries an X-Request-Id header: the client's own (from
/// the request's X-Request-Id, clamped and sanitized) or one the handler
/// mints. A search submitted with "trace": true threads that id into the
/// service's QueryTrace, so the wire response's "trace" object, the
/// slowlog entry, and the client's logs all correlate on one id.
///
/// Search requests ride SearchService::Submit's callback flavor: Handle
/// returns the moment the query is admitted, and the HttpResponder fires
/// from the service's dispatcher thread when the result is ready — the
/// connection thread never blocks on a search. Control-plane requests
/// (PUT builds an index) run synchronously on the connection thread.
///
/// Error mapping (HttpStatusFromStatus): kNotFound -> 404,
/// kInvalidArgument -> 400, kResourceExhausted -> 429 + Retry-After,
/// kDeadlineExceeded -> 504, kCancelled -> 503. Error bodies are
/// {"error": <message>, "status": <StatusCodeName>}.
///
/// Search request body:
///   {"query": [f, ...]}          one query, or
///   {"queries": [[f, ...], ...]} a batch;
///   plus optional "k", "nprobe" (0/absent = collection default),
///   "deadline_ms" (admission-relative deadline; late queries are shed
///   with 504) and "trace" (true = each result carries a "trace" object
///   with the per-stage ms breakdown and the search-work counters).
///   Batched responses carry one entry per query in order; the
///   HTTP status is 200 when every query succeeded, else the mapping of
///   the first failure.
///
/// PUT body: {"vectors": [[f, ...], ...], "layout": "flat"|"ivf",
/// "pruner": "linear"|"adsampling"|"bsa"|"bond", "metric": "l2"|"ip"|"l1",
/// "k": n, "nprobe": n, "shards": n, "assignment":
/// "contiguous"|"round-robin", "block_capacity": n}. Everything but
/// "vectors" is optional. PUT to an existing name replaces it in one step:
/// the new collection is built before the swap, so a rejected PUT leaves
/// the old one serving, and queries queued for the old collection finish
/// on it — a replace never answers a search with 404 or 503. Replacement
/// resets the per-collection slowlog (it describes the hosted searcher,
/// which is new) while the Prometheus counters keep their cumulative
/// series.
///
/// Ingest body (POST /collections/<name>/vectors) — two formats:
///   - NDJSON (newline-delimited, one row per line — streams past the
///     whole-body JSON size cap): each line is either a plain float array
///     [f, ...] or an object {"id": n, "vector": [f, ...]}; blank lines
///     are skipped.
///   - A single JSON object {"vectors": [[f, ...], ...], "ids": [n, ...]}
///     with "ids" optional (handy for small batches; subject to
///     HttpServerConfig::max_body_bytes like every body).
/// Either every row carries an id or none does (400 otherwise). Without
/// ids rows get auto-assigned ids (returned in the response); with ids an
/// existing id is an UPSERT — the old vector is replaced atomically under
/// the same id. Ids must be integers in [0, 4294967295). Mutations only
/// apply to collections the service built from vectors (PUT or
/// AddCollection-from-vectors); adopted/index-backed searchers answer 501.
///
/// Persistence (save body: {"path": "..."}; load body: {"path": "...",
/// "mmap": true}). Save writes the hosted collection to one self-contained
/// file and marks the collection persistent — the background compactor
/// re-saves to the same path after every fold. Load restores the file and
/// hosts it under <name>, replacing any existing collection like PUT does
/// (a file that fails to load leaves that collection serving);
/// "mmap" (default true) serves the packed stores straight off a memory
/// mapping instead of heap copies. The restored shape answers as 201 with
/// the same body as PUT, including "source" ("mmap" or "loaded").
///
/// Thread safety: Handle may run on any number of connection threads
/// concurrently (the service is the synchronization point). The handler
/// must outlive the HttpServer it is registered with.
class SearchHandler {
 public:
  explicit SearchHandler(SearchService& service) : service_(service) {}

  SearchHandler(const SearchHandler&) = delete;
  SearchHandler& operator=(const SearchHandler&) = delete;

  /// The HttpHandler entry point (bind via AsHttpHandler).
  void Handle(HttpRequest request, HttpResponder respond);

  /// Adapter for HttpServer::Start. The returned callable references this
  /// handler; stop the server before destroying the handler.
  HttpHandler AsHttpHandler() {
    return [this](HttpRequest request, HttpResponder respond) {
      Handle(std::move(request), std::move(respond));
    };
  }

 private:
  void HandleSearch(const std::string& collection, const HttpRequest& request,
                    const std::string& request_id, HttpResponder respond);
  void HandlePut(const std::string& collection, const HttpRequest& request,
                 HttpResponder respond);
  void HandleDelete(const std::string& collection, HttpResponder respond);
  void HandleAddVectors(const std::string& collection,
                        const HttpRequest& request, HttpResponder respond);
  void HandleDeleteVector(const std::string& collection,
                          const std::string& id_text, HttpResponder respond);
  void HandleSave(const std::string& collection, const HttpRequest& request,
                  HttpResponder respond);
  void HandleLoad(const std::string& collection, const HttpRequest& request,
                  HttpResponder respond);
  void HandleGetCollection(const std::string& collection,
                           HttpResponder respond);
  void HandleSlowlog(const std::string& collection, HttpResponder respond);
  void HandleListCollections(HttpResponder respond);
  void HandleStats(HttpResponder respond);
  void HandleMetrics(HttpResponder respond);
  void HandleHealthz(HttpResponder respond);
  /// The request's sanitized X-Request-Id, or a freshly minted one.
  std::string ResolveRequestId(const HttpRequest& request);

  SearchService& service_;
  std::atomic<uint64_t> request_seq_{0};  ///< Feeds minted request ids.
};

/// The error-body shape every endpoint shares; exposed for tests.
HttpResponse MakeErrorResponse(const Status& status);

}  // namespace pdx

#endif  // PDX_NET_SEARCH_HANDLER_H_
