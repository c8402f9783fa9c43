// fvecs_tool: a tiny command-line vector-search utility over .fvecs files —
// the INRIA interchange format every ANN benchmark suite uses.
//
//   fvecs_tool generate <out.fvecs> <count> <dim> [skewed]
//       Writes a synthetic collection.
//   fvecs_tool info <file.fvecs>
//       Prints count/dim and per-dimension statistics summary.
//   fvecs_tool search <data.fvecs> <queries.fvecs> <k>
//       Exact k-NN of every query via PDX-BOND; prints ids and distances.
//   fvecs_tool save <data.fvecs> <out.pdxc> [<queries.fvecs> <k>]
//       Builds an IVF PDX-BOND collection (dimension zones) and persists it
//       in the PDXC format; with queries, also prints the saved searcher's
//       answers in restore-search's `query N:` format.
//   fvecs_tool restore-search <collection.pdxc> <queries.fvecs> <k>
//       Restores a saved collection (no k-means, no re-packing) and
//       searches it. `save` in one process + `restore-search` in another
//       is the cross-process round-trip CI exercises: the two processes'
//       `query N:` lines must be identical.
//
// Demonstrates the I/O layer (Status-based error handling) and the
// plug-and-play property of PDX-BOND: point it at raw floats and search.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "benchlib/datagen.h"
#include "core/pdx.h"
#include "core/persist.h"

namespace {

int Fail(const pdx::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Generate(const char* path, size_t count, size_t dim, bool skewed) {
  pdx::SyntheticSpec spec;
  spec.name = "generated";
  spec.dim = dim;
  spec.count = count;
  spec.num_queries = 1;
  spec.distribution = skewed ? pdx::ValueDistribution::kSkewed
                             : pdx::ValueDistribution::kNormal;
  pdx::Dataset dataset = pdx::GenerateDataset(spec);
  const pdx::Status status = pdx::WriteFvecs(path, dataset.data);
  if (!status.ok()) return Fail(status);
  std::printf("wrote %zu x %zu to %s\n", count, dim, path);
  return 0;
}

int Info(const char* path) {
  pdx::Result<pdx::VectorSet> data = pdx::ReadFvecs(path);
  if (!data.ok()) return Fail(data.status());
  const pdx::VectorSet& vectors = data.value();
  std::printf("%s: %zu vectors x %zu dims\n", path, vectors.count(),
              vectors.dim());
  if (vectors.count() == 0) return 0;
  const pdx::DimensionStats stats =
      pdx::ComputeStats(vectors.data(), vectors.count(), vectors.dim());
  float mean_lo = stats.means[0];
  float mean_hi = stats.means[0];
  float var_hi = stats.variances[0];
  for (size_t d = 1; d < vectors.dim(); ++d) {
    mean_lo = std::min(mean_lo, stats.means[d]);
    mean_hi = std::max(mean_hi, stats.means[d]);
    var_hi = std::max(var_hi, stats.variances[d]);
  }
  std::printf("dimension means in [%.4f, %.4f], max variance %.4f\n",
              mean_lo, mean_hi, var_hi);
  return 0;
}

/// Prints `searcher`'s k-NN of every query as `query N: id:distance ...`,
/// the lines a save and a restore in another process must agree on.
int PrintAnswers(pdx::Searcher& searcher, const char* query_path, size_t k) {
  pdx::Result<pdx::VectorSet> queries = pdx::ReadFvecs(query_path);
  if (!queries.ok()) return Fail(queries.status());
  if (searcher.dim() != queries.value().dim()) {
    return Fail(pdx::Status::InvalidArgument(
        "collection and query dimensionality differ"));
  }
  if (k == 0) return Fail(pdx::Status::InvalidArgument("k must be > 0"));
  for (size_t q = 0; q < queries.value().count(); ++q) {
    const auto neighbors = searcher.SearchWith(0, pdx::QueryKnobs{k, 0},
                                               queries.value().Vector(q));
    std::printf("query %zu:", q);
    for (const pdx::Neighbor& n : neighbors) {
      std::printf(" %u:%.4f", n.id, n.distance);
    }
    std::printf("\n");
  }
  return 0;
}

int Search(const char* data_path, const char* query_path, size_t k) {
  pdx::Result<pdx::VectorSet> data = pdx::ReadFvecs(data_path);
  if (!data.ok()) return Fail(data.status());
  pdx::SearcherConfig config;  // Flat PDX-BOND: exact search.
  config.k = k;
  auto made = pdx::MakeSearcher(data.value(), std::move(config));
  if (!made.ok()) return Fail(made.status());
  return PrintAnswers(*made.value(), query_path, k);
}

int SaveCollection(const char* data_path, const char* out_path,
                   const char* query_path, size_t k) {
  pdx::Result<pdx::VectorSet> data = pdx::ReadFvecs(data_path);
  if (!data.ok()) return Fail(data.status());
  pdx::SearcherConfig config;
  config.layout = pdx::SearcherLayout::kIvf;
  config.pruner = pdx::PrunerKind::kBond;
  config.k = 10;
  auto made = pdx::MakeSearcher(data.value(), std::move(config));
  if (!made.ok()) return Fail(made.status());
  const pdx::Status saved = made.value()->Save(out_path);
  if (!saved.ok()) return Fail(saved);
  std::printf("saved %zu x %zu to %s\n", data.value().count(),
              data.value().dim(), out_path);
  if (query_path == nullptr) return 0;
  return PrintAnswers(*made.value(), query_path, k);
}

int RestoreSearch(const char* collection_path, const char* query_path,
                  size_t k) {
  auto loaded = pdx::LoadCollection(collection_path);
  if (!loaded.ok()) return Fail(loaded.status());
  std::printf("restored %s (%s, %llu bytes)\n", collection_path,
              loaded.value().source.c_str(),
              static_cast<unsigned long long>(loaded.value().file_bytes));
  return PrintAnswers(*loaded.value().searcher, query_path, k);
}

void Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  fvecs_tool generate <out.fvecs> <count> <dim> [skewed]\n"
               "  fvecs_tool info <file.fvecs>\n"
               "  fvecs_tool search <data.fvecs> <queries.fvecs> <k>\n"
               "  fvecs_tool save <data.fvecs> <out.pdxc> "
               "[<queries.fvecs> <k>]\n"
               "  fvecs_tool restore-search <collection.pdxc> "
               "<queries.fvecs> <k>\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    // Without arguments, run a self-contained demo in /tmp.
    std::printf("no command given; running self-demo\n");
    const std::string base = "/tmp/pdx_fvecs_demo";
    if (Generate((base + ".fvecs").c_str(), 5000, 64, true) != 0) return 1;
    if (Generate((base + "_q.fvecs").c_str(), 3, 64, true) != 0) return 1;
    if (Info((base + ".fvecs").c_str()) != 0) return 1;
    return Search((base + ".fvecs").c_str(), (base + "_q.fvecs").c_str(), 5);
  }

  const std::string command = argv[1];
  if (command == "generate" && (argc == 5 || argc == 6)) {
    const bool skewed = argc == 6 && std::strcmp(argv[5], "skewed") == 0;
    return Generate(argv[2], std::strtoull(argv[3], nullptr, 10),
                    std::strtoull(argv[4], nullptr, 10), skewed);
  }
  if (command == "info" && argc == 3) return Info(argv[2]);
  if (command == "search" && argc == 5) {
    return Search(argv[2], argv[3], std::strtoull(argv[4], nullptr, 10));
  }
  if (command == "save" && argc == 4) {
    return SaveCollection(argv[2], argv[3], nullptr, 0);
  }
  if (command == "save" && argc == 6) {
    return SaveCollection(argv[2], argv[3], argv[4],
                          std::strtoull(argv[5], nullptr, 10));
  }
  if (command == "restore-search" && argc == 5) {
    return RestoreSearch(argv[2], argv[3],
                         std::strtoull(argv[4], nullptr, 10));
  }
  Usage();
  return 2;
}
