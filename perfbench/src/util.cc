#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <random>

#include "bench.h"

namespace perfbench {

void Outcome::Fail(const std::string& why) {
  correct = false;
  notes.push_back("CORRECTNESS FAILURE: " + why);
  std::fprintf(stderr, "pdx_perfbench: correctness failure: %s\n",
               why.c_str());
}

void Outcome::Note(const std::string& line) { notes.push_back(line); }

void Outcome::EndToEnd(const std::string& name, double value,
                       const std::string& unit) {
  end_to_end.push_back({name, value, unit});
}

void Outcome::Layer(const std::string& name, double value,
                    const std::string& unit) {
  for (const Metric& m : per_layer) {
    if (m.name == name) return;
  }
  per_layer.push_back({name, value, unit});
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double SlicedP99(const std::vector<double>& samples) {
  const size_t slices = std::min<size_t>(10, samples.size() / 1000);
  if (slices < 2) return Percentile(samples, 99);
  std::vector<double> p99;
  const size_t per = samples.size() / slices;
  for (size_t s = 0; s < slices; ++s) {
    p99.push_back(Percentile(
        std::vector<double>(samples.begin() + s * per,
                            samples.begin() + (s + 1) * per),
        99));
  }
  return Median(p99);
}

Inputs DrawInputs(const pdx::SyntheticSpec& spec, uint64_t seed) {
  pdx::SyntheticSpec mixture = spec;
  mixture.count = spec.count + spec.count / 8;
  mixture.num_queries = std::max<size_t>(256, 4 * spec.num_queries);
  const pdx::Dataset dataset = pdx::GenerateDataset(mixture);
  std::mt19937_64 rng(seed);
  auto pick = [&](const pdx::VectorSet& from, size_t n) {
    std::vector<size_t> order(from.count());
    std::iota(order.begin(), order.end(), size_t{0});
    std::shuffle(order.begin(), order.end(), rng);
    pdx::VectorSet out(from.dim(), n);
    for (size_t i = 0; i < n; ++i) {
      out.Append(from.Vector(static_cast<pdx::VectorId>(order[i])));
    }
    return out;
  };
  Inputs inputs;
  inputs.rows = pick(dataset.data, spec.count);
  inputs.queries = pick(dataset.queries, spec.num_queries);
  return inputs;
}

PhaseRates SliceMedians(const std::vector<double>& done_s,
                        const std::vector<double>& latency_ms,
                        double seconds) {
  constexpr size_t kSlices = 20;
  const double width = seconds / kSlices;
  std::vector<std::vector<double>> slices(kSlices);
  for (size_t i = 0; i < done_s.size(); ++i) {
    const auto s = static_cast<size_t>(done_s[i] / width);
    if (s < kSlices) slices[s].push_back(latency_ms[i]);
  }
  std::vector<double> qps, p50;
  for (const std::vector<double>& slice : slices) {
    qps.push_back(static_cast<double>(slice.size()) / width);
    if (!slice.empty()) p50.push_back(Median(slice));
  }
  return {Median(qps), Median(p50)};
}

double PeakRssMb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(status);
  return kib / 1024.0;
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

}  // namespace perfbench
