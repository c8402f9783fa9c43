#include "obs/metrics.h"

#include <cassert>
#include <charconv>
#include <cmath>
#include <stdexcept>

namespace pdx {

namespace {

/// Prometheus sample values and `le` bounds: shortest representation that
/// round-trips (the same std::to_chars discipline as the JSON writer),
/// plus the format's spellings for the non-finite values JSON lacks.
void AppendNumber(double value, std::string* out) {
  if (std::isnan(value)) {
    out->append("NaN");
    return;
  }
  if (std::isinf(value)) {
    out->append(value > 0 ? "+Inf" : "-Inf");
    return;
  }
  char buf[32];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), value);
  out->append(buf, r.ptr);
}

/// Label VALUES escape backslash, double quote, and newline (the format's
/// three escapes); label names and metric names are caller-controlled
/// identifiers and are emitted as-is.
void AppendLabelValue(const std::string& value, std::string* out) {
  for (const char c : value) {
    switch (c) {
      case '\\':
        out->append("\\\\");
        break;
      case '"':
        out->append("\\\"");
        break;
      case '\n':
        out->append("\\n");
        break;
      default:
        out->push_back(c);
    }
  }
}

/// `{k1="v1",k2="v2"}` — with `extra` (the histogram `le`) appended last.
/// Empty labels and no extra => nothing at all.
void AppendLabels(const MetricLabels& labels, const char* extra_name,
                  const std::string& extra_value, std::string* out) {
  const bool has_extra = extra_name != nullptr;
  if (labels.empty() && !has_extra) return;
  out->push_back('{');
  bool first = true;
  for (const auto& [name, value] : labels) {
    if (!first) out->push_back(',');
    first = false;
    out->append(name);
    out->append("=\"");
    AppendLabelValue(value, out);
    out->push_back('"');
  }
  if (has_extra) {
    if (!first) out->push_back(',');
    out->append(extra_name);
    out->append("=\"");
    out->append(extra_value);
    out->push_back('"');
  }
  out->push_back('}');
}

/// The child key inside a family: labels serialized with the same escaping
/// as the exposition, so distinct label sets can never collide.
std::string LabelKey(const MetricLabels& labels) {
  std::string key;
  AppendLabels(labels, nullptr, std::string(), &key);
  return key;
}

}  // namespace

MetricHistogram::MetricHistogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<uint64_t>[bounds_.size() + 1]) {
  for (size_t i = 0; i < bounds_.size() + 1; ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  for (size_t i = 1; i < bounds_.size(); ++i) {
    assert(bounds_[i - 1] < bounds_[i] && "histogram bounds must ascend");
  }
}

void MetricHistogram::Observe(double value) {
  // Linear scan, not binary search: serving histograms have ~22 buckets
  // and latencies cluster in the low ones, so the scan usually ends after
  // a handful of compares — and it is branch-predictable, allocation-free,
  // and lock-free, which is what the dispatch path needs.
  size_t bucket = bounds_.size();  // +Inf unless a bound catches it.
  for (size_t i = 0; i < bounds_.size(); ++i) {
    if (value <= bounds_[i]) {
      bucket = i;
      break;
    }
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double sum = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(sum, sum + value,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<double> ExponentialBounds(double start, double factor,
                                      size_t count) {
  assert(start > 0.0 && factor > 1.0);
  std::vector<double> bounds;
  bounds.reserve(count);
  double bound = start;
  for (size_t i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

std::vector<double> DefaultLatencyBoundsMs() {
  // Doubling from 10us to ~21s: sub-batch stage times land in the low
  // buckets, stuck-queue pathologies still resolve instead of saturating
  // +Inf. 22 buckets keep Observe's scan and the exposition small.
  return ExponentialBounds(0.01, 2.0, 22);
}

MetricsRegistry::Family& MetricsRegistry::ResolveFamily(
    const std::string& name, const std::string& help, Kind kind) {
  Family& family = families_[name];
  if (family.children.empty()) {
    family.kind = kind;
    family.help = help;
  } else if (family.kind != kind) {
    throw std::logic_error("MetricsRegistry: metric '" + name +
                           "' re-registered with a different type");
  }
  return family;
}

MetricCounter* MetricsRegistry::GetCounter(const std::string& name,
                                           const std::string& help,
                                           const MetricLabels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Family& family = ResolveFamily(name, help, Kind::kCounter);
  Child& child = family.children[LabelKey(labels)];
  if (child.counter == nullptr) {
    child.labels = labels;
    child.counter = std::make_unique<MetricCounter>();
  }
  return child.counter.get();
}

MetricGauge* MetricsRegistry::GetGauge(const std::string& name,
                                       const std::string& help,
                                       const MetricLabels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Family& family = ResolveFamily(name, help, Kind::kGauge);
  Child& child = family.children[LabelKey(labels)];
  if (child.gauge == nullptr) {
    child.labels = labels;
    child.gauge = std::make_unique<MetricGauge>();
  }
  return child.gauge.get();
}

MetricHistogram* MetricsRegistry::GetHistogram(const std::string& name,
                                               const std::string& help,
                                               std::vector<double> bounds,
                                               const MetricLabels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Family& family = ResolveFamily(name, help, Kind::kHistogram);
  if (family.children.empty()) {
    family.bounds = bounds;
  } else if (family.bounds != bounds) {
    // Two children of one family with different bucket layouts would make
    // the family's exposition unaggregatable; fail at registration, where
    // the bug is, not at scrape time.
    throw std::logic_error("MetricsRegistry: histogram '" + name +
                           "' re-registered with different bounds");
  }
  Child& child = family.children[LabelKey(labels)];
  if (child.histogram == nullptr) {
    child.labels = labels;
    child.histogram = std::make_unique<MetricHistogram>(family.bounds);
  }
  return child.histogram.get();
}

std::string MetricsRegistry::WritePrometheus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const auto& [name, family] : families_) {
    out.append("# HELP ");
    out.append(name);
    out.push_back(' ');
    out.append(family.help);
    out.push_back('\n');
    out.append("# TYPE ");
    out.append(name);
    out.push_back(' ');
    switch (family.kind) {
      case Kind::kCounter:
        out.append("counter");
        break;
      case Kind::kGauge:
        out.append("gauge");
        break;
      case Kind::kHistogram:
        out.append("histogram");
        break;
    }
    out.push_back('\n');
    for (const auto& [key, child] : family.children) {
      switch (family.kind) {
        case Kind::kCounter: {
          out.append(name);
          AppendLabels(child.labels, nullptr, std::string(), &out);
          out.push_back(' ');
          AppendNumber(static_cast<double>(child.counter->value()), &out);
          out.push_back('\n');
          break;
        }
        case Kind::kGauge: {
          out.append(name);
          AppendLabels(child.labels, nullptr, std::string(), &out);
          out.push_back(' ');
          AppendNumber(child.gauge->value(), &out);
          out.push_back('\n');
          break;
        }
        case Kind::kHistogram: {
          const MetricHistogram& h = *child.histogram;
          uint64_t cumulative = 0;
          for (size_t b = 0; b <= h.bounds().size(); ++b) {
            cumulative += h.bucket(b);
            std::string le;
            if (b == h.bounds().size()) {
              le = "+Inf";
            } else {
              AppendNumber(h.bounds()[b], &le);
            }
            out.append(name);
            out.append("_bucket");
            AppendLabels(child.labels, "le", le, &out);
            out.push_back(' ');
            AppendNumber(static_cast<double>(cumulative), &out);
            out.push_back('\n');
          }
          out.append(name);
          out.append("_sum");
          AppendLabels(child.labels, nullptr, std::string(), &out);
          out.push_back(' ');
          AppendNumber(h.sum(), &out);
          out.push_back('\n');
          out.append(name);
          out.append("_count");
          AppendLabels(child.labels, nullptr, std::string(), &out);
          out.push_back(' ');
          AppendNumber(static_cast<double>(h.count()), &out);
          out.push_back('\n');
          break;
        }
      }
    }
  }
  return out;
}

}  // namespace pdx
