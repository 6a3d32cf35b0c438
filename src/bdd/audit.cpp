/// \file audit.cpp
/// \brief Structural invariant auditor for the BDD manager.
///
/// Walks every kernel data structure — node store, unique table, computed
/// table, free list, compose-context registry — and reports each violated
/// invariant with enough detail to locate the corruption. The checks mirror
/// the failure modes of a manually-managed refcounted kernel: stale ids
/// after GC, unique-table canonicity breaks (silent loss of structural
/// equality), refcount drift (premature collection or leaks), and dangling
/// computed-table entries (silently wrong operation results).
///
/// See docs/ANALYSIS.md for the full list of defect classes and the
/// corruption-injection tests that pin each one.

#include <cstdint>
#include <map>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "bdd/bdd.hpp"
#include "bdd/bdd_internal.hpp"

namespace hyde::bdd {

namespace {

using internal::kNil;
using internal::kOne;
using internal::kZero;

const char* kind_name(InvariantViolation::Kind kind) {
  switch (kind) {
    case InvariantViolation::Kind::kNodeStructure:
      return "node-structure";
    case InvariantViolation::Kind::kUniqueTable:
      return "unique-table";
    case InvariantViolation::Kind::kRefCount:
      return "ref-count";
    case InvariantViolation::Kind::kComputedTable:
      return "computed-table";
    case InvariantViolation::Kind::kFreeList:
      return "free-list";
  }
  return "unknown";
}

}  // namespace

std::string InvariantReport::to_string() const {
  std::ostringstream os;
  for (const InvariantViolation& v : violations) {
    os << "[" << kind_name(v.kind) << "] " << v.detail << "\n";
  }
  return os.str();
}

InvariantReport Manager::audit_invariants() const {
  InvariantReport report;
  auto add = [&report](InvariantViolation::Kind kind, const std::string& s) {
    // Cap the report so a badly corrupted manager cannot OOM the auditor.
    if (report.violations.size() < 256) {
      report.violations.push_back({kind, s});
    }
  };
  using Kind = InvariantViolation::Kind;
  const std::uint32_t store = static_cast<std::uint32_t>(nodes_.size());

  auto describe = [](std::uint32_t id) {
    std::ostringstream os;
    os << "node " << id;
    return os.str();
  };
  auto is_live = [this, store](std::uint32_t id) {
    return id < store && (id <= kOne || nodes_[id].var >= 0);
  };

  // --- Node store: constants, child sanity, level ordering ----------------
  if (store < 2 || nodes_[kZero].var != -1 || nodes_[kOne].var != -1) {
    add(Kind::kNodeStructure, "constant nodes 0/1 missing or not constant");
    return report;  // nothing else is meaningful
  }
  for (std::uint32_t id = 2; id < store; ++id) {
    const Node& n = nodes_[id];
    if (n.var < 0) {
      if (n.var != internal::kDeadVar) {
        std::ostringstream os;
        os << describe(id) << " has invalid var tag " << n.var;
        add(Kind::kNodeStructure, os.str());
      }
      continue;  // dead slot: audited with the free list below
    }
    if (n.var >= num_vars_) {
      std::ostringstream os;
      os << describe(id) << " var " << n.var << " >= num_vars " << num_vars_;
      add(Kind::kNodeStructure, os.str());
    }
    if (n.lo == n.hi) {
      std::ostringstream os;
      os << describe(id) << " is redundant (lo == hi == " << n.lo << ")";
      add(Kind::kNodeStructure, os.str());
    }
    for (const std::uint32_t child : {n.lo, n.hi}) {
      if (!is_live(child)) {
        std::ostringstream os;
        os << describe(id) << " child " << child << " is dead or out of range";
        add(Kind::kNodeStructure, os.str());
      } else if (child > kOne && nodes_[child].var <= n.var) {
        std::ostringstream os;
        os << describe(id) << " (var " << n.var << ") -> child " << child
           << " (var " << nodes_[child].var << ") breaks the level order";
        add(Kind::kNodeStructure, os.str());
      }
    }
  }

  // --- Unique table: placement, chain integrity, full coverage ------------
  std::vector<std::uint32_t> chain_hits(store, 0);
  if (unique_buckets_.empty() ||
      (unique_buckets_.size() & (unique_buckets_.size() - 1)) != 0) {
    add(Kind::kUniqueTable, "bucket count is not a nonzero power of two");
  } else {
    const std::size_t mask = unique_buckets_.size() - 1;
    for (std::size_t bucket = 0; bucket < unique_buckets_.size(); ++bucket) {
      std::size_t steps = 0;
      for (std::uint32_t id = unique_buckets_[bucket]; id != kNil;
           id = nodes_[id].next) {
        if (id >= store || id <= kOne) {
          std::ostringstream os;
          os << "bucket " << bucket << " chains to invalid id " << id;
          add(Kind::kUniqueTable, os.str());
          break;
        }
        if (++steps > nodes_.size()) {
          std::ostringstream os;
          os << "bucket " << bucket << " chain does not terminate (cycle)";
          add(Kind::kUniqueTable, os.str());
          break;
        }
        const Node& n = nodes_[id];
        if (n.var < 0) {
          std::ostringstream os;
          os << "bucket " << bucket << " chains through dead " << describe(id);
          add(Kind::kUniqueTable, os.str());
          break;  // dead nodes carry stale next pointers
        }
        ++chain_hits[id];
        if ((internal::triple_hash(n.var, n.lo, n.hi) & mask) != bucket) {
          std::ostringstream os;
          os << describe(id) << " hashed to the wrong bucket " << bucket;
          add(Kind::kUniqueTable, os.str());
        }
      }
    }
    for (std::uint32_t id = 2; id < store; ++id) {
      if (nodes_[id].var < 0) continue;
      if (chain_hits[id] == 0) {
        add(Kind::kUniqueTable, describe(id) + " is live but not reachable "
                                              "from any unique-table bucket");
      } else if (chain_hits[id] > 1) {
        add(Kind::kUniqueTable, describe(id) + " appears in multiple chains");
      }
    }
  }

  // --- Canonicity: no two live nodes share a (var, lo, hi) triple ---------
  {
    // Keyed on the exact triple, not a hash of it: a lossy key would report
    // a false duplicate on collision, which under HYDE_CHECKED aborts a
    // perfectly healthy run.
    std::map<std::tuple<std::int32_t, std::uint32_t, std::uint32_t>,
             std::uint32_t>
        seen;
    for (std::uint32_t id = 2; id < store; ++id) {
      const Node& n = nodes_[id];
      if (n.var < 0) continue;
      const auto [it, inserted] =
          seen.emplace(std::make_tuple(n.var, n.lo, n.hi), id);
      if (!inserted) {
        std::ostringstream os;
        os << "duplicate triple (var " << n.var << ", lo " << n.lo << ", hi "
           << n.hi << ") at nodes " << it->second << " and " << id;
        add(Kind::kUniqueTable, os.str());
      }
    }
  }

  // --- Reference counts ----------------------------------------------------
  {
    if (nodes_[kZero].ext_refs == 0 || nodes_[kOne].ext_refs == 0) {
      add(Kind::kRefCount, "constant nodes must stay permanently referenced");
    }
    std::uint64_t recomputed = 0;
    for (std::uint32_t id = 0; id < store; ++id) {
      recomputed += nodes_[id].ext_refs;
      if (id > kOne && nodes_[id].var < 0 && nodes_[id].ext_refs != 0) {
        std::ostringstream os;
        os << "dead " << describe(id) << " holds " << nodes_[id].ext_refs
           << " external refs";
        add(Kind::kRefCount, os.str());
      }
    }
    if (recomputed != total_ext_refs_) {
      std::ostringstream os;
      os << "stored external refs sum to " << recomputed
         << " but the handles performed " << total_ext_refs_
         << " net acquisitions (refcount drift)";
      add(Kind::kRefCount, os.str());
    }
  }

  // --- Computed table: every occupied slot references live nodes ----------
  for (std::size_t slot = 0; slot < cache_.size(); ++slot) {
    const CacheEntry& e = cache_[slot];
    if (e.a == 0) continue;
    const std::uint64_t tag = e.a >> 32;
    const std::uint32_t f = static_cast<std::uint32_t>(e.a & 0xFFFFFFFFu);
    std::ostringstream os;
    os << "slot " << slot << " (op " << tag << "): ";
    if (tag < internal::kOpIte || tag > internal::kOpLast) {
      add(Kind::kComputedTable, os.str() + "unknown operation tag");
      continue;
    }
    if (!is_live(f)) {
      add(Kind::kComputedTable, os.str() + "operand f " + std::to_string(f) +
                                    " is dead or out of range");
      continue;
    }
    bool result_is_node = true;
    switch (tag) {
      case internal::kOpAnd:
      case internal::kOpOr:
      case internal::kOpXor:
      case internal::kOpDisjoint:
      case internal::kOpExists:
      case internal::kOpForall: {
        // b is a node id (second operand or quantification cube).
        const std::uint64_t g = e.b;
        if (g > 0xFFFFFFFFu || !is_live(static_cast<std::uint32_t>(g))) {
          add(Kind::kComputedTable, os.str() + "operand b " +
                                        std::to_string(g) +
                                        " is dead or out of range");
          continue;
        }
        result_is_node = tag != internal::kOpDisjoint;
        break;
      }
      case internal::kOpIte: {
        const std::uint32_t g = static_cast<std::uint32_t>(e.b >> 32);
        const std::uint32_t h = static_cast<std::uint32_t>(e.b & 0xFFFFFFFFu);
        for (const std::uint32_t operand : {g, h}) {
          if (!is_live(operand)) {
            add(Kind::kComputedTable, os.str() + "ITE operand " +
                                          std::to_string(operand) +
                                          " is dead or out of range");
          }
        }
        break;
      }
      case internal::kOpCofactor: {
        const std::uint64_t var = e.b >> 1;
        if (var >= static_cast<std::uint64_t>(num_vars_)) {
          add(Kind::kComputedTable,
              os.str() + "cofactor variable " + std::to_string(var) +
                  " out of range");
        }
        break;
      }
      case internal::kOpCompose: {
        if (e.b == 0 || e.b > compose_maps_.size()) {
          add(Kind::kComputedTable, os.str() + "compose context " +
                                        std::to_string(e.b) +
                                        " is not registered");
        }
        break;
      }
      case internal::kOpNot: {
        if (e.b != 0) {
          add(Kind::kComputedTable, os.str() + "NOT entry with nonzero b");
        }
        break;
      }
      default:
        break;
    }
    if (result_is_node && !is_live(e.result)) {
      add(Kind::kComputedTable, os.str() + "result " +
                                    std::to_string(e.result) +
                                    " is dead or out of range");
    }
  }

  // --- Compose-context registry: maps reference live substitution nodes ---
  for (std::size_t ctx = 0; ctx < compose_maps_.size(); ++ctx) {
    for (std::size_t v = 0; v < compose_maps_[ctx].size(); ++v) {
      const std::int64_t sub = compose_maps_[ctx][v];
      if (sub < 0) continue;
      if (sub > 0xFFFFFFFFll || !is_live(static_cast<std::uint32_t>(sub))) {
        std::ostringstream os;
        os << "compose context " << ctx + 1 << " maps var " << v
           << " to dead node " << sub;
        add(Kind::kComputedTable, os.str());
      }
    }
  }

  // --- Free list: exactly the dead slots, each exactly once ---------------
  {
    std::vector<std::uint32_t> free_hits(store, 0);
    for (const std::uint32_t id : free_list_) {
      if (id <= kOne || id >= store) {
        std::ostringstream os;
        os << "free list holds invalid id " << id;
        add(Kind::kFreeList, os.str());
        continue;
      }
      ++free_hits[id];
      if (nodes_[id].var >= 0) {
        add(Kind::kFreeList, "free list holds live " + describe(id));
      }
    }
    for (std::uint32_t id = 2; id < store; ++id) {
      if (free_hits[id] > 1) {
        add(Kind::kFreeList, describe(id) + " appears on the free list " +
                                 std::to_string(free_hits[id]) + " times");
      }
      if (nodes_[id].var < 0 && free_hits[id] == 0) {
        add(Kind::kFreeList, "dead " + describe(id) + " missing from the "
                                                      "free list");
      }
    }
  }

  return report;
}

void Manager::check_invariants() const {
  const InvariantReport report = audit_invariants();
  if (!report.ok()) {
    throw std::logic_error("BDD manager invariant audit failed:\n" +
                           report.to_string());
  }
}

}  // namespace hyde::bdd
