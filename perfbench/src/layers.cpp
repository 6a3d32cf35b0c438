#include "layers.hpp"

#include "mapper/lutmap.hpp"
#include "mapper/xc3000.hpp"
#include "mcnc/benchmarks.hpp"
#include "net/blif.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using hyde::baseline::System;

int count_unmapped(const hyde::net::Network& network, int k) {
  int wide = 0;
  for (hyde::net::NodeId id : network.topo_order()) {
    const hyde::net::Node& n = network.node(id);
    if (n.kind == hyde::net::NodeKind::kLogic &&
        static_cast<int>(n.fanins.size()) > k) {
      ++wide;
    }
  }
  return wide;
}

void measure(const hyde::net::Network& network, int k, bool pack,
             LayerOutcome* out) {
  ScopedSpan span("mapper.pack");
  out->luts = hyde::mapper::lut_count(network);
  out->depth = hyde::mapper::network_depth(network);
  out->unmapped_nodes = count_unmapped(network, k);
  if (pack) out->clbs = hyde::mapper::pack_xc3000(network).num_clbs;
}

void verify(const hyde::net::Network& input, const hyde::net::Network& mapped,
            int verify_vectors, std::uint64_t seed, LayerOutcome* out) {
  ScopedSpan span("net.verify");
  hyde::net::EquivalenceOptions options;
  options.random_vectors = verify_vectors;
  options.seed = seed * 7919 + 17;
  const hyde::net::EquivalenceResult result =
      hyde::net::check_equivalence(input, mapped, options);
  out->verified = result.equivalent;
  out->method = result.method;
}

}  // namespace

LayerOutcome traced_job(const hyde::runtime::BatchJob& job, int verify_vectors,
                        hyde::core::DecompCache* cache) {
  hyde::net::Network input;
  {
    ScopedSpan span("setup.input");
    input = hyde::mcnc::make_circuit(job.circuit);
  }
  hyde::core::FlowOptions options =
      hyde::baseline::system_flow_options(job.system, job.k);
  options.seed = job.seed;
  options.cache = cache;
  options.cache_max_support = hyde::runtime::BatchOptions{}.cache_max_support;

  LayerOutcome out;
  hyde::core::FlowResult flow;
  {
    ScopedSpan span("core.run_flow");
    flow = hyde::core::run_flow(input, options);
  }
  {
    ScopedSpan span("mapper.cleanup");
    hyde::mapper::dedup_shared_nodes(flow.network);
    hyde::mapper::collapse_into_fanouts(flow.network, job.k);
  }
  if (job.system == System::kSawadaResubLike) {
    {
      ScopedSpan span("mapper.resub");
      hyde::mapper::resubstitute(flow.network);
    }
    ScopedSpan span("mapper.cleanup");
    hyde::mapper::dedup_shared_nodes(flow.network);
    hyde::mapper::collapse_into_fanouts(flow.network, job.k);
  }
  {
    ScopedSpan span("mapper.cleanup");
    hyde::mapper::dedup_shared_nodes(flow.network);
  }
  out.stats = flow.stats;
  measure(flow.network, job.k, job.k == 5, &out);
  verify(input, flow.network, verify_vectors, job.seed, &out);
  return out;
}

LayerOutcome traced_windowed(const std::string& blif_text,
                             const hyde::part::WindowedFlowOptions& options,
                             int verify_vectors) {
  const int k = options.flow.k;
  hyde::net::Network input;
  {
    ScopedSpan span("net.parse");
    input = hyde::net::read_blif_string(blif_text);
  }
  LayerOutcome out;
  hyde::part::WindowedFlowResult windowed;
  {
    ScopedSpan span("part.run_windowed_flow");
    windowed = hyde::part::run_windowed_flow(input, options);
  }
  const bool feasible = windowed.network.is_k_feasible(k);
  if (feasible) {
    ScopedSpan span("mapper.cleanup");
    hyde::mapper::dedup_shared_nodes(windowed.network);
    hyde::mapper::collapse_into_fanouts(windowed.network, k);
    hyde::mapper::dedup_shared_nodes(windowed.network);
  }
  out.stats = windowed.stats;
  measure(windowed.network, k, k == 5 && feasible, &out);
  verify(input, windowed.network, verify_vectors, options.flow.seed, &out);
  {
    ScopedSpan span("net.write");
    out.blif = hyde::net::write_blif_string(windowed.network);
  }
  return out;
}

}  // namespace perfbench
