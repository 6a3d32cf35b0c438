/// \file layers.hpp
/// \brief The layer calls that baseline::run_system and run_windowed_system
/// are made of, made one by one under a span each.
///
/// Both functions follow their baseline counterparts call for call, with
/// the same options, seeds and verification settings, so their outputs
/// match an untraced run bit for bit.

#pragma once

#include <string>

#include "core/flow.hpp"
#include "net/verify.hpp"
#include "part/windowed.hpp"
#include "runtime/batch.hpp"

namespace perfbench {

struct LayerOutcome {
  int luts = 0;
  int clbs = 0;
  int depth = 0;
  int unmapped_nodes = 0;  ///< logic nodes left with more than k fanins
  bool verified = false;
  hyde::net::EquivalenceMethod method =
      hyde::net::EquivalenceMethod::kRandomSim;
  hyde::core::FlowStats stats;
  std::string blif;   ///< the written network (windowed pass only)
  std::string error;  ///< set by the caller when the calls threw
};

/// One batch job as run_batch runs it (BatchOptions defaults except
/// \p verify_vectors and \p cache), with spans setup.input, core.run_flow,
/// mapper.cleanup, mapper.resub, mapper.pack and net.verify.
LayerOutcome traced_job(const hyde::runtime::BatchJob& job, int verify_vectors,
                        hyde::core::DecompCache* cache);

/// One windowed pass: parse \p blif_text, run_windowed_system's calls, write
/// the result back to BLIF. Spans net.parse, part.run_windowed_flow,
/// mapper.cleanup, mapper.pack, net.verify and net.write.
LayerOutcome traced_windowed(const std::string& blif_text,
                             const hyde::part::WindowedFlowOptions& options,
                             int verify_vectors);

}  // namespace perfbench
