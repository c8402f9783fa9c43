#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <unordered_map>

#include "bench.h"

namespace perfbench {

SpanLog::SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

uint64_t SpanLog::Record(const std::string& name, double start_ms,
                         double end_ms, uint64_t parent, uint64_t request) {
  if (!enabled_) return 0;
  const uint64_t id = next_id_.fetch_add(1) + 1;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({id, parent, request, name, start_ms, end_ms});
  return id;
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool SpanLog::Write(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& s : spans_) {
    std::fprintf(file,
                 "{\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                 "\"name\": \"%s\", \"start_ms\": %.6f, \"end_ms\": %.6f}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name.c_str(),
                 s.start_ms, s.end_ms);
  }
  return std::fclose(file) == 0;
}

std::vector<std::pair<std::string, double>> SpanLog::SelfTimeByLayer() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> by_layer;
  for (const Span& s : spans_) {
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<double, double>> covered;
    if (auto it = children.find(s.id); it != children.end()) {
      for (const Span* c : it->second) {
        const double a = std::max(c->start_ms, s.start_ms);
        const double b = std::min(c->end_ms, s.end_ms);
        if (b > a) covered.emplace_back(a, b);
      }
    }
    std::sort(covered.begin(), covered.end());
    double covered_ms = 0.0;
    double reach = s.start_ms;
    for (const auto& [a, b] : covered) {
      const double from = std::max(a, reach);
      if (b > from) covered_ms += b - from;
      reach = std::max(reach, b);
    }
    const std::string layer = s.name.substr(0, s.name.find('.'));
    by_layer[layer] += std::max(0.0, (s.end_ms - s.start_ms) - covered_ms);
  }
  return {by_layer.begin(), by_layer.end()};
}

void RecordServeStages(SpanLog& log, const pdx::QueryTrace& trace,
                       double start_ms, uint64_t parent, uint64_t request,
                       const std::string& search_layer) {
  if (!log.enabled()) return;
  double t = start_ms;
  const uint64_t query =
      log.Record("serve.query", t, t + trace.total_ms, parent, request);
  const std::pair<const char*, double> stages[] = {
      {"serve.queue", trace.queue_ms},
      {"serve.stage", trace.stage_ms},
      {nullptr, trace.search_ms},
      {"serve.deliver", trace.deliver_ms},
  };
  for (const auto& [name, ms] : stages) {
    const std::string span_name =
        name != nullptr ? std::string(name) : search_layer + ".search";
    log.Record(span_name, t, t + ms, query, request);
    t += ms;
  }
}

void SummarizeSpans(Outcome& out, const SpanLog& log,
                    const std::string& path) {
  if (!log.enabled()) return;
  double total = 0.0;
  const auto layers = log.SelfTimeByLayer();
  for (const auto& [layer, ms] : layers) total += ms;
  for (const auto& [layer, ms] : layers) {
    char line[160];
    std::snprintf(line, sizeof(line), "self time %-8s %12.1f ms  %5.1f%%",
                  layer.c_str(), ms, total > 0 ? 100.0 * ms / total : 0.0);
    out.Note(line);
  }
  const std::string file = std::filesystem::path(path).filename().string();
  if (log.Write(path)) {
    out.Note("spans: " + std::to_string(log.size()) + " written to " + file);
  } else {
    out.Note("spans: could not write " + file);
  }
}

}  // namespace perfbench
