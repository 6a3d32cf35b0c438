/// \file varpart_bench.cpp
/// \brief Bound-set search benchmark: times the greedy variable-partition
/// search and whole HYDE flows, and emits JSON rows for BENCH_varpart.json.
///
/// The greedy workload (`oneshot`, the one config) calls select_bound_set at
/// every bound size from 6 down to 2, counting every candidate chart from
/// scratch. Its checksum must equal the one pinned below for its size, which
/// the committed BENCH_varpart.json rows recorded; the harness fails (exit 1)
/// on any mismatch. Row names are unchanged, so rows compare with that file.
///
/// Protocol:
///
///     varpart_bench --label=engine --out=BENCH_varpart.json      (full run)
///     varpart_bench --quick                                      (CI smoke)
///
/// Checksums are FNV-1a mixes of the selected bound sets, compatible-class
/// counts and the mapped networks' BLIF text. The JSON records the machine's
/// hardware thread count as `cpus`.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bdd/bdd.hpp"
#include "core/flow.hpp"
#include "decomp/varpart.hpp"
#include "mcnc/benchmarks.hpp"
#include "net/blif.hpp"
#include "tt/truth_table.hpp"

namespace {

using hyde::bdd::Bdd;
using hyde::bdd::Manager;
using hyde::tt::TruthTable;

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Bdd random_bdd(Manager& mgr, int num_vars, std::uint64_t& state) {
  const TruthTable table = TruthTable::from_lambda(
      num_vars, [&state](std::uint64_t) { return (splitmix64(state) & 1) != 0; });
  return mgr.from_truth_table(table);
}

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xFFull;
    hash *= 0x100000001B3ull;
  }
  return hash;
}

std::uint64_t fnv1a_string(std::uint64_t hash, const std::string& text) {
  for (char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ull;
  }
  return hash;
}

struct WorkloadResult {
  std::string name;
  double seconds = 0.0;
  std::uint64_t checksum = 0;  ///< config-independent functional invariant
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Greedy bound-set selection over random functions: every function is
/// partitioned at bound sizes 6 down to 2, each size searched from scratch.
WorkloadResult bench_greedy_research(int num_vars, int functions, int rounds) {
  Manager mgr(num_vars);
  std::uint64_t state = 0x5EA2C4 + static_cast<std::uint64_t>(num_vars);
  std::vector<Bdd> pool;
  for (int i = 0; i < functions; ++i) {
    pool.push_back(random_bdd(mgr, num_vars, state));
  }
  std::vector<int> support;
  for (int v = 0; v < num_vars; ++v) support.push_back(v);

  WorkloadResult result;
  result.name = "greedy_research_x" + std::to_string(num_vars) + "_oneshot";
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t checksum = 0xCBF29CE484222325ull;
  for (int r = 0; r < rounds; ++r) {
    for (const Bdd& f : pool) {
      const hyde::decomp::IsfBdd isf{f, mgr.zero()};
      for (int bound_size = 6; bound_size >= 2; --bound_size) {
        hyde::decomp::VarPartitionOptions options;
        options.bound_size = bound_size;
        options.require_nontrivial = false;
        const auto vp =
            hyde::decomp::select_bound_set(mgr, isf, support, options);
        checksum = fnv1a(checksum, vp.success ? 1u : 0u);
        for (int v : vp.bound) {
          checksum = fnv1a(checksum, static_cast<std::uint64_t>(v));
        }
        checksum = fnv1a(checksum, static_cast<std::uint64_t>(vp.num_classes));
      }
    }
  }
  result.seconds = seconds_since(start);
  result.checksum = checksum;
  return result;
}

/// Whole HYDE flow (decomposition + encoding, no mapping) over a registry
/// circuit.
WorkloadResult bench_flow(const std::string& circuit) {
  const hyde::net::Network input = hyde::mcnc::make_circuit(circuit);

  WorkloadResult result;
  result.name = "flow_" + circuit + "_engine";
  const auto start = std::chrono::steady_clock::now();
  hyde::core::FlowResult flow =
      hyde::core::run_flow(input, hyde::core::hyde_options(5));
  result.seconds = seconds_since(start);

  std::ostringstream blif;
  hyde::net::write_blif(flow.network, blif);
  std::uint64_t checksum = fnv1a_string(0xCBF29CE484222325ull, blif.str());
  checksum = fnv1a(checksum, flow.stats.decomposition_steps);
  checksum = fnv1a(checksum, flow.stats.hyper_groups);
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

/// Greedy-workload checksums of the full and --quick runs, as the committed
/// BENCH_varpart.json rows and the CI smoke run recorded them.
constexpr std::uint64_t kGreedyChecksumX14 = 5587587915482528037ull;
constexpr std::uint64_t kGreedyChecksumX12 = 11899183647479969957ull;

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
                   "usage: varpart_bench [--label=NAME] [--out=FILE] [--quick]\n");
      return 2;
    }
  }

  const int num_vars = quick ? 12 : 14;
  const int functions = quick ? 2 : 4;
  const int rounds = quick ? 1 : 2;
  const std::vector<std::string> circuits =
      quick ? std::vector<std::string>{"rd73", "duke2"}
            : std::vector<std::string>{"5xp1", "rd73", "misex1", "duke2",
                                       "alu2", "vg2"};

  std::vector<WorkloadResult> results;
  results.push_back(bench_greedy_research(num_vars, functions, rounds));
  const std::uint64_t expected =
      quick ? kGreedyChecksumX12 : kGreedyChecksumX14;
  if (results[0].checksum != expected) {
    std::fprintf(stderr,
                 "varpart_bench: checksum mismatch for %s (%llu != %llu)\n",
                 results[0].name.c_str(),
                 static_cast<unsigned long long>(results[0].checksum),
                 static_cast<unsigned long long>(expected));
    return 1;
  }
  for (const std::string& circuit : circuits) {
    results.push_back(bench_flow(circuit));
  }

  std::string json;
  json += "{\n";
  json += "  \"schema\": \"hyde.bench_varpart.v1\",\n";
  json += "  \"engine\": \"" + label + "\",\n";
  json += "  \"cpus\": " +
          std::to_string(std::thread::hardware_concurrency()) + ",\n";
  json += "  \"configs\": [\"oneshot\"],\n";
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
      std::fprintf(stderr, "varpart_bench: cannot open %s\n", out_path.c_str());
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
  }
  return 0;
}
