// pdx_perfbench: one workload run of the end-to-end benchmark.
//
//   pdx_perfbench --workload ann-http|exact-scan|live-mixed --seed N
//                 --seconds S --trace 0|1 [--tiny] [--work-dir DIR]
//
// Prints human-readable notes and one "metric value unit" line per metric,
// then, as the last line of standard output, one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// per-layer set of the traced run. A failed correctness gate prints the
// result with "correct": false and exits 1.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"
#include "kernels/kernel_dispatch.h"

namespace perfbench {
namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "pdx_perfbench: %s\nusage: pdx_perfbench --workload "
               "ann-http|exact-scan|live-mixed --seed N --seconds S "
               "--trace 0|1 [--tiny] [--work-dir DIR]\n",
               why);
  std::exit(2);
}

RunOptions ParseArgs(int argc, char** argv) {
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--work-dir") {
      options.work_dir = value();
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.workload.empty()) Usage("--workload is required");
  if (!(options.seconds > 0.0)) Usage("--seconds must be positive");
  return options;
}

void PrintResult(const Outcome& out, bool trace) {
  for (const std::string& note : out.notes) std::printf("# %s\n", note.c_str());
  const std::vector<Metric>& metrics = trace ? out.per_layer : out.end_to_end;
  for (const Metric& m : metrics) {
    std::printf("%-40s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double value =
        std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + number +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const RunOptions options = ParseArgs(argc, argv);
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "pdx_perfbench: cannot create %s\n",
                 options.work_dir.c_str());
    return 2;
  }
  Outcome out;
  try {
    if (options.workload == "ann-http") {
      out = RunAnnHttp(options);
    } else if (options.workload == "exact-scan") {
      out = RunExactScan(options);
    } else if (options.workload == "live-mixed") {
      out = RunLiveMixed(options);
    } else {
      Usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pdx_perfbench: %s\n", e.what());
    return 1;
  }
  out.Note(std::string("isa ") + pdx::IsaName(pdx::DispatchedIsa()) +
           " nproc " + std::to_string(std::thread::hardware_concurrency()));
  if (options.trace) FillIdleLayers(out);
  if (out.attempted == 0) out.Fail("no operation was attempted");
  PrintResult(out, options.trace);
  return out.correct ? 0 : 1;
}
