/// \file encode_bench.cpp
/// \brief Classes-and-encoding benchmark: times compatible-class computation
/// and the Figure-3 encoder, and emits JSON rows for BENCH_encode.json.
///
/// Both workloads run the one class engine there is (packed row-signature
/// compatibility, incremental clique partitioning) and the serial encoder.
///
/// Protocol:
///
///     encode_bench --label=engine --out=BENCH_encode.json     (full run)
///     encode_bench --quick                                    (CI smoke)
///
/// Checksums are FNV-1a mixes of the class column lists, the chosen codes
/// and the encoder trace geometry: a change in any of them is a change in
/// results, not in speed. The JSON records the machine's hardware thread
/// count as `cpus`.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bdd/bdd.hpp"
#include "core/encoder.hpp"
#include "decomp/compatible.hpp"
#include "tt/truth_table.hpp"

namespace {

using hyde::bdd::Bdd;
using hyde::bdd::Manager;
using hyde::decomp::IsfBdd;
using hyde::tt::TruthTable;

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xFFull;
    hash *= 0x100000001B3ull;
  }
  return hash;
}

struct WorkloadResult {
  std::string name;
  double seconds = 0.0;
  std::uint64_t checksum = 0;  ///< functional invariant of the workload
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// A DC-rich random decomposition instance. Minterms are on with probability
/// 1/on_mod and (when off) don't-care with probability 1/dc_mod. The classes
/// workload uses a sparse on-set with half the space don't-care — a dense
/// column-compatibility graph where clique partitioning genuinely merges
/// columns (the regime the paper's Section-3.1 don't-care assignment
/// targets); the encoder workload uses lighter don't-cares so many classes
/// survive into the Figure-3 steps.
hyde::decomp::DecompSpec random_spec(Manager& mgr, int num_vars, int bound_vars,
                                     int on_mod, int dc_mod,
                                     std::uint64_t& state) {
  const Bdd on = mgr.from_truth_table(TruthTable::from_lambda(
      num_vars, [&state, on_mod](std::uint64_t) {
        return splitmix64(state) % static_cast<std::uint64_t>(on_mod) == 0;
      }));
  const Bdd dc_raw = mgr.from_truth_table(TruthTable::from_lambda(
      num_vars, [&state, dc_mod](std::uint64_t) {
        return splitmix64(state) % static_cast<std::uint64_t>(dc_mod) == 0;
      }));
  hyde::decomp::DecompSpec spec;
  spec.mgr = &mgr;
  spec.f = IsfBdd{on, dc_raw & ~on};
  for (int v = 0; v < bound_vars; ++v) spec.bound.push_back(v);
  for (int v = bound_vars; v < num_vars; ++v) spec.free.push_back(v);
  return spec;
}

std::uint64_t fold_classes(std::uint64_t checksum,
                           const hyde::decomp::ClassResult& classes) {
  checksum = fnv1a(checksum, static_cast<std::uint64_t>(classes.columns.size()));
  checksum = fnv1a(checksum, static_cast<std::uint64_t>(classes.classes.size()));
  for (const auto& cls : classes.classes) {
    for (int c : cls.columns) {
      checksum = fnv1a(checksum, static_cast<std::uint64_t>(c));
    }
    checksum = fnv1a(checksum, 0xC1A55ull);
  }
  return checksum;
}

/// Compatible-class computation over wide DC-rich charts: the pairwise
/// compatibility test (quadratic in columns) and the clique partitioner are
/// the whole cost.
WorkloadResult bench_classes(int num_vars, int bound_vars, int functions,
                             int rounds) {
  WorkloadResult result;
  result.name = "classes_x" + std::to_string(num_vars) + "_engine";
  std::uint64_t checksum = 0xCBF29CE484222325ull;
  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) {
    std::uint64_t state = 0xC0FFEE + static_cast<std::uint64_t>(num_vars);
    Manager mgr(num_vars);
    for (int i = 0; i < functions; ++i) {
      const auto spec = random_spec(mgr, num_vars, bound_vars, /*on_mod=*/5,
                                    /*dc_mod=*/2, state);
      const auto classes = hyde::decomp::compute_compatible_classes(
          spec, hyde::decomp::DcPolicy::kCliquePartition);
      checksum = fold_classes(checksum, classes);
    }
  }
  result.seconds = seconds_since(start);
  result.checksum = checksum;
  return result;
}

/// Class computation followed by the full Figure-3 encoder (Steps 1-9),
/// whose Step-8 image-class counts run the same class engine.
WorkloadResult bench_encode(int num_vars, int bound_vars, int functions,
                            int rounds) {
  WorkloadResult result;
  result.name = "encode_x" + std::to_string(num_vars) + "_engine";
  std::uint64_t checksum = 0xCBF29CE484222325ull;
  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) {
    std::uint64_t state = 0xE2C0DE + static_cast<std::uint64_t>(num_vars);
    for (int i = 0; i < functions; ++i) {
      // Managers sized past num_vars so α code bits get fresh variables.
      Manager mgr(num_vars + 6);
      const auto spec = random_spec(mgr, num_vars, bound_vars, /*on_mod=*/3,
                                    /*dc_mod=*/4, state);
      const auto classes = hyde::decomp::compute_compatible_classes(
          spec, hyde::decomp::DcPolicy::kCliquePartition);
      checksum = fold_classes(checksum, classes);
      if (classes.num_classes() < 2) continue;
      std::vector<int> alpha_vars;
      for (int j = 0; j < classes.code_bits(); ++j) {
        alpha_vars.push_back(num_vars + j);
      }
      hyde::core::EncoderOptions enc;
      enc.k = 4;  // small κ forces the non-trivial Steps 3-8 to run
      enc.seed = static_cast<std::uint64_t>(i) + 1;
      const auto choice = hyde::core::encode_classes(mgr, classes, spec.free,
                                                     alpha_vars, enc);
      checksum = fnv1a(checksum, static_cast<std::uint64_t>(choice.encoding.num_bits));
      for (std::uint32_t code : choice.encoding.codes) {
        checksum = fnv1a(checksum, code);
      }
      checksum = fnv1a(checksum, choice.trace.used_random ? 1u : 0u);
      checksum = fnv1a(checksum,
                       static_cast<std::uint64_t>(choice.trace.num_rows + 16));
      checksum = fnv1a(checksum,
                       static_cast<std::uint64_t>(choice.trace.num_cols + 16));
      checksum = fnv1a(
          checksum,
          static_cast<std::uint64_t>(choice.trace.random_image_classes + 16));
      checksum = fnv1a(
          checksum,
          static_cast<std::uint64_t>(choice.trace.chosen_image_classes + 16));
    }
  }
  result.seconds = seconds_since(start);
  result.checksum = checksum;
  return result;
}

void append_json(std::string& out, const WorkloadResult& r, bool last) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "    {\"name\": \"%s\", \"seconds\": %.6f, \"checksum\": %llu}%s\n",
                r.name.c_str(), r.seconds,
                static_cast<unsigned long long>(r.checksum), last ? "" : ",");
  out += buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string label = "engine";
  std::string out_path;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--label=", 0) == 0) {
      label = arg.substr(8);
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg == "--quick") {
      quick = true;
    } else {
      std::fprintf(stderr,
                   "usage: encode_bench [--label=NAME] [--out=FILE] [--quick]\n");
      return 2;
    }
  }

  const int classes_vars = quick ? 11 : 13;
  const int classes_bound = quick ? 7 : 9;
  const int classes_functions = quick ? 1 : 2;
  const int classes_rounds = quick ? 1 : 2;
  // Three free variables keep the image small enough that the Step-3 λ'
  // must mix α and position variables — the full Figure-3 pipeline (Psc
  // table, b-matching, row merging, Step-8 comparison) runs on every
  // instance instead of exiting through Theorem 3.1.
  const int encode_vars = quick ? 7 : 9;
  const int encode_bound = quick ? 4 : 6;
  const int encode_functions = quick ? 2 : 5;
  const int encode_rounds = quick ? 1 : 3;

  const std::vector<WorkloadResult> results = {
      bench_classes(classes_vars, classes_bound, classes_functions,
                    classes_rounds),
      bench_encode(encode_vars, encode_bound, encode_functions, encode_rounds),
  };

  std::string json;
  json += "{\n";
  json += "  \"schema\": \"hyde.bench_encode.v1\",\n";
  json += "  \"engine\": \"" + label + "\",\n";
  json += "  \"cpus\": " +
          std::to_string(std::thread::hardware_concurrency()) + ",\n";
  json += "  \"workloads\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    append_json(json, results[i], i + 1 == results.size());
  }
  json += "  ]\n}\n";

  if (out_path.empty()) {
    std::fputs(json.c_str(), stdout);
  } else {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "encode_bench: cannot open %s\n", out_path.c_str());
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
  }
  return 0;
}
