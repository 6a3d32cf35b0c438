#include "baseline/flows.hpp"

#include <chrono>
#include <cstdint>
#include <utility>

#include "net/verify.hpp"

namespace hyde::baseline {

namespace {

/// The tail every system shares after its flow: mapper cleanup (dedup,
/// collapse into fanouts, dedup; \p resub adds the RK resubstitution pass
/// and a second cleanup), CLB packing when k = 5, LUT count and depth, and
/// the random-vector check against \p input. The cleanup and the packer
/// build per-node truth tables, so both are skipped while a wide
/// pass-through node survives (never the case after core::run_flow).
/// Mapping time runs from entry through packing; \p start dates the whole
/// flow.
BaselineResult map_and_check(const net::Network& input, net::Network network,
                             core::FlowStats stats, int k, bool resub,
                             int verify_vectors, std::uint64_t seed,
                             std::chrono::steady_clock::time_point start) {
  const auto map_start = std::chrono::steady_clock::now();
  BaselineResult result;
  if (network.is_k_feasible(k)) {
    mapper::dedup_shared_nodes(network);
    mapper::collapse_into_fanouts(network, k);
    if (resub) {
      mapper::resubstitute(network);
      mapper::dedup_shared_nodes(network);
      mapper::collapse_into_fanouts(network, k);
    }
    mapper::dedup_shared_nodes(network);
    if (k == 5) result.clbs = mapper::pack_xc3000(network).num_clbs;
  }
  const auto stop = std::chrono::steady_clock::now();
  stats.mapping_seconds +=
      std::chrono::duration<double>(stop - map_start).count();

  result.stats = std::move(stats);
  result.luts = mapper::lut_count(network);
  result.depth = mapper::network_depth(network);
  result.seconds = std::chrono::duration<double>(stop - start).count();
  if (verify_vectors <= 0) {
    result.verified = true;
  } else {
    net::EquivalenceOptions eq_options;
    eq_options.random_vectors = verify_vectors;
    eq_options.seed = seed * 7919 + 17;
    result.verified =
        net::check_equivalence(input, network, eq_options).equivalent;
  }
  result.network = std::move(network);
  return result;
}

}  // namespace

std::string system_name(System system) {
  switch (system) {
    case System::kHyde:
      return "HYDE";
    case System::kImodecLike:
      return "IMODEC-like";
    case System::kFgsynLike:
      return "FGSyn-like";
    case System::kSawadaLike:
      return "RK-noresub";
    case System::kSawadaResubLike:
      return "RK-resub";
  }
  return "?";
}

core::FlowOptions system_flow_options(System system, int k) {
  switch (system) {
    case System::kHyde:
      return core::hyde_options(k);
    case System::kImodecLike:
      return core::imodec_like_options(k);
    case System::kFgsynLike:
      return core::fgsyn_like_options(k);
    case System::kSawadaLike:
    case System::kSawadaResubLike:
      return core::sawada_like_options(k);
  }
  return core::hyde_options(k);
}

BaselineResult run_system(const net::Network& input, System system, int k,
                          int verify_vectors, std::uint64_t seed,
                          core::DecompCache* cache, int cache_max_support,
                          bdd::ReorderMode reorder,
                          double reorder_max_growth) {
  core::FlowOptions options = system_flow_options(system, k);
  options.seed = seed;
  options.cache = cache;
  options.cache_max_support = cache_max_support;
  options.reorder = reorder;
  options.reorder_max_growth = reorder_max_growth;
  return run_system(input, system, options, verify_vectors);
}

BaselineResult run_system(const net::Network& input, System system,
                          const core::FlowOptions& options,
                          int verify_vectors) {
  const auto start = std::chrono::steady_clock::now();
  core::FlowResult flow = core::run_flow(input, options);
  return map_and_check(input, std::move(flow.network), std::move(flow.stats),
                       options.k, system == System::kSawadaResubLike,
                       verify_vectors, options.seed, start);
}

BaselineResult run_windowed_system(const net::Network& input,
                                   const part::WindowedFlowOptions& options,
                                   int verify_vectors) {
  const auto start = std::chrono::steady_clock::now();
  part::WindowedFlowResult windowed = part::run_windowed_flow(input, options);
  return map_and_check(input, std::move(windowed.network),
                       std::move(windowed.stats), options.flow.k,
                       /*resub=*/false, verify_vectors, options.flow.seed,
                       start);
}

}  // namespace hyde::baseline
