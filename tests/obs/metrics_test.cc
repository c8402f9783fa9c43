// MetricsRegistry unit tests: instrument semantics, get-or-create child
// identity, type-conflict failure, an exact golden of the Prometheus text
// exposition, a writers-vs-scrape race (the TSan target), the
// zero-allocation guarantee of every hot-path instrument call, and the
// steady allocation count of a warm service's Submit.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "obs/metrics.h"
#include "obs/pdxearch_profile.h"
#include "obs/slow_query_log.h"
#include "serve/search_service.h"

// Global operator new/delete overrides that count every heap allocation in
// the binary, in total and per thread. The zero-allocation test snapshots
// the total around the instrument calls the dispatch path makes per query;
// everything else in the binary just pays one relaxed add per allocation.
namespace {
std::atomic<uint64_t> g_allocations{0};
thread_local uint64_t t_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  ++t_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  ++t_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pdx {
namespace {

TEST(MetricsTest, CounterGaugeHistogramSemantics) {
  MetricsRegistry registry;
  MetricCounter* counter = registry.GetCounter("c_total", "help");
  counter->Inc();
  counter->Inc(41);
  EXPECT_EQ(counter->value(), 42u);

  MetricGauge* gauge = registry.GetGauge("g", "help");
  gauge->Set(2.5);
  gauge->Add(-0.5);
  EXPECT_DOUBLE_EQ(gauge->value(), 2.0);

  MetricHistogram* histogram =
      registry.GetHistogram("h", "help", {1.0, 10.0, 100.0});
  histogram->Observe(0.5);    // bucket 0 (le=1)
  histogram->Observe(1.0);    // bucket 0 (inclusive upper bound)
  histogram->Observe(50.0);   // bucket 2 (le=100)
  histogram->Observe(1e9);    // +Inf bucket
  EXPECT_EQ(histogram->bucket(0), 2u);
  EXPECT_EQ(histogram->bucket(1), 0u);
  EXPECT_EQ(histogram->bucket(2), 1u);
  EXPECT_EQ(histogram->bucket(3), 1u);  // +Inf
  EXPECT_EQ(histogram->count(), 4u);
  EXPECT_DOUBLE_EQ(histogram->sum(), 0.5 + 1.0 + 50.0 + 1e9);
}

TEST(MetricsTest, ExponentialBoundsAscendGeometrically) {
  const std::vector<double> bounds = ExponentialBounds(0.01, 2.0, 5);
  ASSERT_EQ(bounds.size(), 5u);
  EXPECT_DOUBLE_EQ(bounds[0], 0.01);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(bounds[i], bounds[i - 1] * 2.0);
  }
  const std::vector<double> serving = DefaultLatencyBoundsMs();
  ASSERT_FALSE(serving.empty());
  // 10us up to tens of seconds: wide enough that neither a sub-batch
  // stage time nor a stuck-queue pathology saturates an end bucket.
  EXPECT_DOUBLE_EQ(serving.front(), 0.01);
  EXPECT_GT(serving.back(), 10'000.0);
}

TEST(MetricsTest, GetOrCreateReturnsTheSameInstrument) {
  MetricsRegistry registry;
  MetricCounter* a =
      registry.GetCounter("requests_total", "help", {{"collection", "x"}});
  MetricCounter* b =
      registry.GetCounter("requests_total", "help", {{"collection", "x"}});
  MetricCounter* other =
      registry.GetCounter("requests_total", "help", {{"collection", "y"}});
  EXPECT_EQ(a, b);        // Same (name, labels) => same child: a collection
  EXPECT_NE(a, other);    // re-added under one name keeps its series.
  a->Inc(3);
  EXPECT_EQ(b->value(), 3u);
  EXPECT_EQ(other->value(), 0u);
}

TEST(MetricsTest, TypeAndBoundsConflictsThrow) {
  MetricsRegistry registry;
  registry.GetCounter("name", "help");
  EXPECT_THROW(registry.GetGauge("name", "help"), std::logic_error);
  EXPECT_THROW(registry.GetHistogram("name", "help", {1.0}), std::logic_error);
  registry.GetHistogram("h", "help", {1.0, 2.0});
  EXPECT_THROW(registry.GetHistogram("h", "help", {1.0, 3.0}),
               std::logic_error);
  // Same bounds is NOT a conflict — it is the get-or-create path.
  EXPECT_EQ(registry.GetHistogram("h", "help", {1.0, 2.0}),
            registry.GetHistogram("h", "help", {1.0, 2.0}));
}

// The exposition golden: exact text, byte for byte. Values are chosen to
// have unambiguous shortest-round-trip renderings.
TEST(MetricsTest, PrometheusExpositionGolden) {
  MetricsRegistry registry;
  registry.GetCounter("pdx_queries_total", "Queries by outcome",
                      {{"collection", "docs"}, {"outcome", "completed"}})
      ->Inc(7);
  registry.GetGauge("pdx_queue_depth", "Queries waiting for dispatch")
      ->Set(3);
  MetricHistogram* h = registry.GetHistogram(
      "pdx_stage_ms", "Stage latency", {0.5, 2.0}, {{"stage", "queue"}});
  h->Observe(0.25);
  h->Observe(1.5);
  h->Observe(99.0);
  const std::string expected =
      "# HELP pdx_queries_total Queries by outcome\n"
      "# TYPE pdx_queries_total counter\n"
      "pdx_queries_total{collection=\"docs\",outcome=\"completed\"} 7\n"
      "# HELP pdx_queue_depth Queries waiting for dispatch\n"
      "# TYPE pdx_queue_depth gauge\n"
      "pdx_queue_depth 3\n"
      "# HELP pdx_stage_ms Stage latency\n"
      "# TYPE pdx_stage_ms histogram\n"
      "pdx_stage_ms_bucket{stage=\"queue\",le=\"0.5\"} 1\n"
      "pdx_stage_ms_bucket{stage=\"queue\",le=\"2\"} 2\n"
      "pdx_stage_ms_bucket{stage=\"queue\",le=\"+Inf\"} 3\n"
      "pdx_stage_ms_sum{stage=\"queue\"} 100.75\n"
      "pdx_stage_ms_count{stage=\"queue\"} 3\n";
  EXPECT_EQ(registry.WritePrometheus(), expected);
}

TEST(MetricsTest, LabelValuesAreEscaped) {
  MetricsRegistry registry;
  registry.GetCounter("c", "h", {{"name", "a\\b\"c\nd"}})->Inc();
  const std::string out = registry.WritePrometheus();
  EXPECT_NE(out.find("c{name=\"a\\\\b\\\"c\\nd\"} 1\n"), std::string::npos)
      << out;
}

// Structural validation of a scraped document, reused by the wire test's
// logic in spirit: every non-comment line is `name{...} value`, histogram
// buckets are cumulative (monotonically non-decreasing), and each
// histogram's +Inf bucket equals its _count.
TEST(MetricsTest, ExpositionParsesAndBucketsAreCumulative) {
  MetricsRegistry registry;
  MetricHistogram* h =
      registry.GetHistogram("lat_ms", "h", DefaultLatencyBoundsMs());
  for (int i = 0; i < 100; ++i) h->Observe(0.01 * i);
  registry.GetCounter("done_total", "h")->Inc(100);

  std::istringstream lines(registry.WritePrometheus());
  std::string line;
  uint64_t previous_bucket = 0;
  uint64_t inf_bucket = 0;
  uint64_t count = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string value = line.substr(space + 1);
    EXPECT_FALSE(value.empty()) << line;
    if (line.compare(0, 14, "lat_ms_bucket{") == 0) {
      const uint64_t bucket = std::stoull(value);
      EXPECT_GE(bucket, previous_bucket) << line;
      previous_bucket = bucket;
      if (line.find("le=\"+Inf\"") != std::string::npos) inf_bucket = bucket;
    } else if (line.compare(0, 13, "lat_ms_count ") == 0) {
      count = std::stoull(value);
    }
  }
  EXPECT_EQ(count, 100u);
  EXPECT_EQ(inf_bucket, count);
}

// M writer threads hammer one counter/gauge/histogram while the main
// thread scrapes in a loop — the TSan job runs exactly this binary, so a
// data race between Observe and WritePrometheus fails CI loudly.
TEST(MetricsTest, ConcurrentWritersAndScrapeAgree) {
  MetricsRegistry registry;
  MetricCounter* counter = registry.GetCounter("ops_total", "h");
  MetricGauge* gauge = registry.GetGauge("depth", "h");
  MetricHistogram* histogram =
      registry.GetHistogram("lat", "h", DefaultLatencyBoundsMs());

  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 10'000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        counter->Inc();
        gauge->Set(static_cast<double>(t));
        histogram->Observe(0.001 * static_cast<double>(i % 1000));
      }
    });
  }
  // Scrape while the writers are live: the content is torn by design, but
  // it must be readable and race-free.
  for (int i = 0; i < 50; ++i) {
    const std::string scrape = registry.WritePrometheus();
    EXPECT_NE(scrape.find("# TYPE ops_total counter"), std::string::npos);
  }
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(counter->value(), kThreads * kPerThread);
  EXPECT_EQ(histogram->count(), kThreads * kPerThread);
}

// The "tracing off costs nothing" contract, at the instrument layer: the
// calls the dispatch/completion path makes per query — Inc, Set, Observe,
// SlowQueryLog::Qualifies on a full log — must allocate NOTHING. (The
// serving layer's side of the same contract is the pre-reserved per-
// dispatcher counter scratch; see search_service.h.)
TEST(MetricsTest, HotPathInstrumentCallsDoNotAllocate) {
  MetricsRegistry registry;
  MetricCounter* counter = registry.GetCounter("c_total", "h");
  MetricGauge* gauge = registry.GetGauge("g", "h");
  MetricHistogram* histogram =
      registry.GetHistogram("h_ms", "h", DefaultLatencyBoundsMs());
  SlowQueryLog slowlog(2);
  // Fill the slowlog so Qualifies exercises its steady state: a full log
  // rejecting faster queries via the lock-free threshold.
  for (int i = 0; i < 4; ++i) {
    SlowQueryEntry entry;
    entry.total_ms = 100.0 + i;
    slowlog.Add(entry);
  }
  PdxearchProfile a, b;
  a.values_scanned = 7;

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    counter->Inc();
    gauge->Set(static_cast<double>(i));
    histogram->Observe(0.5);
    b += a;
    // A fast query against a full log of slow ones: the common case.
    if (slowlog.Qualifies(1.0)) ADD_FAILURE() << "1ms must not qualify";
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "hot-path instrument calls allocated";
  EXPECT_EQ(b.values_scanned, 7000u);
}

// The admission queue must not allocate once warm. As a std::deque it
// allocated a 512-byte node every 64 pushes, so every 64th Submit made one
// allocation more than the others. Admission runs on the submitting
// thread, so its allocations are counted there: the dispatcher's would
// race the next Submit's window.
TEST(ServiceAllocationTest, WarmSubmitsAllocateTheSameCount) {
  Rng rng(6);
  VectorSet vectors(8, 256);
  std::vector<float> row(8);
  for (size_t i = 0; i < 256; ++i) {
    for (float& v : row) v = static_cast<float>(rng.Gaussian());
    vectors.Append(row.data());
  }
  SearcherConfig config;
  config.layout = SearcherLayout::kFlat;
  config.pruner = PrunerKind::kLinear;
  config.k = 5;
  ServiceConfig service_config;
  service_config.threads = 2;
  service_config.dispatchers = 1;
  SearchService service(service_config);
  ASSERT_TRUE(service.AddCollection("c", vectors, config).ok());

  auto submit = [&](size_t i) {
    const QueryResult result =
        service.Submit("c", vectors.Vector(static_cast<VectorId>(i % 256)))
            .result.get();
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  };
  for (size_t i = 0; i < 64; ++i) submit(i);  // Warm-up.
  constexpr size_t kSubmits = 192;
  std::vector<uint64_t> allocations(kSubmits);
  for (size_t i = 0; i < kSubmits; ++i) {
    const uint64_t before = t_allocations;
    submit(i);
    allocations[i] = t_allocations - before;
  }
  for (size_t i = 1; i < kSubmits; ++i) {
    EXPECT_EQ(allocations[i], allocations[0]) << "submit " << i;
  }
}

TEST(MetricsTest, SlowQueryLogKeepsWorstSortedAndBounded) {
  SlowQueryLog log(3);
  EXPECT_EQ(log.capacity(), 3u);
  const double totals[] = {5.0, 1.0, 9.0, 3.0, 7.0};
  uint64_t id = 0;
  for (const double total : totals) {
    EXPECT_TRUE(log.Qualifies(total) || log.Snapshot().size() >= 3);
    SlowQueryEntry entry;
    entry.id = ++id;
    entry.total_ms = total;
    log.Add(entry);
  }
  const std::vector<SlowQueryEntry> worst = log.Snapshot();
  ASSERT_EQ(worst.size(), 3u);
  EXPECT_DOUBLE_EQ(worst[0].total_ms, 9.0);
  EXPECT_DOUBLE_EQ(worst[1].total_ms, 7.0);
  EXPECT_DOUBLE_EQ(worst[2].total_ms, 5.0);
  // Below the retained floor: rejected without touching the lock.
  EXPECT_FALSE(log.Qualifies(4.9));
  EXPECT_TRUE(log.Qualifies(5.1));
}

TEST(MetricsTest, PdxearchProfileAccumulatesAndReportsPruningPower) {
  PdxearchProfile c;
  EXPECT_DOUBLE_EQ(c.pruning_power(), 0.0);  // No work yet: defined as 0.
  c.values_scanned = 25;
  c.values_total = 100;
  EXPECT_EQ(c.values_avoided(), 75u);
  EXPECT_DOUBLE_EQ(c.pruning_power(), 0.75);
  PdxearchProfile d;
  d.blocks_visited = 2;
  d.values_scanned = 5;
  c += d;
  EXPECT_EQ(c.blocks_visited, 2u);
  EXPECT_EQ(c.values_scanned, 30u);
}

}  // namespace
}  // namespace pdx
