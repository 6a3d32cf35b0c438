/// \file project.hpp
/// \brief Cross-file analysis: the whole scanned tree as one unit.
///
/// Per-file rules (lint.hpp) cannot see that an option knob is never read
/// by the CLI, that two headers include each other, or that an allowlist
/// entry suppresses nothing. This pass lexes every scanned file once, runs
/// the per-file rules over each, then adds:
///
///  - `dead-knob`        a field of FlowOptions / BatchOptions /
///                       EncoderOptions / WindowOptions /
///                       WindowedFlowOptions whose name is never
///                       mentioned in the CLI (examples/hyde_cli.cpp) nor in
///                       the report layer (src/runtime/report.*) is
///                       unreachable: nothing can set it from the outside
///                       and nothing surfaces it. The rule only arms when
///                       both a CLI file and a report file are in the
///                       scanned set, so partial scans (the src/-only CTest)
///                       stay silent instead of declaring everything dead.
///                       Escape: `// hyde-knob-ok` on the field, for knobs
///                       that are deliberately engine-internal.
///  - `include-hygiene`  include cycles among scanned project headers
///                       (resolved by path suffix; `#pragma once` makes a
///                       cycle survivable, which is exactly why it would
///                       otherwise rot unnoticed).
///  - `stale-allowlist`  with prune_hints: an allowlist entry whose path
///                       fragment matches no scanned file, or that
///                       suppressed zero diagnostics in this run, is
///                       reported so suppressions cannot rot silently.

#pragma once

#include <string>
#include <vector>

#include "lint/lint.hpp"

namespace hyde::lint {

/// One file of the scanned tree. `path` is the path diagnostics carry (and
/// the string rule scoping matches against); `content` its full text.
struct ProjectFile {
  std::string path;
  std::string content;
};

/// Lints the whole set: per-file rules plus the cross-file rules above.
/// `allow_path` is the path reported for stale-allowlist findings (pass the
/// allowlist file's path, or empty to label them "<allowlist>").
std::vector<Diagnostic> lint_project(const std::vector<ProjectFile>& files,
                                     const Options& opts,
                                     const std::string& allow_path,
                                     bool prune_hints);

}  // namespace hyde::lint
