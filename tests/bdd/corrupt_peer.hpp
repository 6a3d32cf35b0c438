/// \file corrupt_peer.hpp
/// \brief Corruption-injection hooks for the invariant-auditor tests.
///
/// `ManagerTestPeer` is the single friend of `Manager` reserved for tests:
/// it mutates kernel structures in ways no public API can, so each audit
/// check can be exercised against the exact defect class it guards.

#pragma once

#include <cstdint>

#include "bdd/bdd.hpp"

namespace hyde::bdd {

struct ManagerTestPeer {
  /// Overwrites a node's variable tag in place (breaks ordering/canonicity
  /// without touching the unique table, as real corruption would).
  static void set_var(Manager& m, std::uint32_t id, std::int32_t var) {
    m.nodes_[id].var = var;
  }

  /// Bumps a stored external refcount without going through inc_ref — the
  /// classic drift bug of a manual refcounting kernel.
  static void drift_ext_refs(Manager& m, std::uint32_t id,
                             std::uint32_t delta) {
    m.nodes_[id].ext_refs += delta;
  }

  /// Inserts a raw computed-table entry (key words `a`/`b`, result id),
  /// e.g. one referencing a dead or out-of-range node.
  static void poison_cache(Manager& m, std::uint64_t a, std::uint64_t b,
                           std::uint32_t result) {
    m.cache_insert(a, b, result);
  }

  /// Duplicates a live node's (var, lo, hi) triple into a fresh store slot
  /// and links it into the unique table — a canonicity violation.
  static std::uint32_t clone_node(Manager& m, std::uint32_t id) {
    Manager::Node copy = m.nodes_[id];
    copy.ext_refs = 0;
    const std::uint32_t clone = static_cast<std::uint32_t>(m.nodes_.size());
    m.nodes_.push_back(copy);
    m.unique_insert(clone);
    return clone;
  }

  /// Drops the most recently freed slot from the free list, leaving a dead
  /// node unaccounted for.
  static void lose_free_slot(Manager& m) { m.free_list_.pop_back(); }

  /// Pushes a live node onto the free list (double-free shape).
  static void push_free_slot(Manager& m, std::uint32_t id) {
    m.free_list_.push_back(id);
  }

  static std::size_t free_list_size(const Manager& m) {
    return m.free_list_.size();
  }
};

}  // namespace hyde::bdd
