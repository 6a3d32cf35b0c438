/// \file bdd.hpp
/// \brief A from-scratch ROBDD package (the paper's CUDD/SIS substrate).
///
/// Reduced Ordered Binary Decision Diagrams without complement edges, with a
/// unique table (structural hashing), a single unified computed table shared
/// by every operation (CUDD-style: fixed-size, open-addressed, lossy,
/// allocation-free on the hot path), external reference counting through the
/// RAII `Bdd` handle, and mark-and-sweep garbage collection.
///
/// The variable order is the fixed identity order over the manager's
/// variable indices: variable 0 is at the top, and a node's level is its
/// variable index. Everything the decomposition engine needs is provided:
/// dedicated AND/OR/XOR/NOT kernels, ITE, cofactors, quantification,
/// composition, variable permutation, support, satisfy-count, and conversion
/// to/from `hyde::tt::TruthTable`.
///
/// See docs/BDD.md for the computed-table design (operation tags, lossy
/// replacement, GC invalidation), the tuning knobs and the memory-governance
/// ladder (GC, hard node limit, the windowed flow's split/pass-through).

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "tt/truth_table.hpp"

namespace hyde::bdd {

class Manager;

/// RAII handle to a BDD node. Copying/destroying maintains the manager's
/// external reference counts, so any node reachable from a live `Bdd` is
/// protected from garbage collection.
class Bdd {
 public:
  Bdd() = default;
  Bdd(const Bdd& other);
  Bdd(Bdd&& other) noexcept;
  Bdd& operator=(const Bdd& other);
  Bdd& operator=(Bdd&& other) noexcept;
  ~Bdd();

  /// True iff the handle points at a node (a default-constructed Bdd is null).
  bool is_valid() const { return mgr_ != nullptr; }
  Manager* manager() const { return mgr_; }

  /// Structural equality — canonical ROBDDs make this functional equality.
  bool operator==(const Bdd& rhs) const {
    return mgr_ == rhs.mgr_ && id_ == rhs.id_;
  }

  bool is_zero() const;
  bool is_one() const;
  bool is_constant() const { return is_zero() || is_one(); }

  /// Top variable index; must not be constant.
  int top_var() const;
  /// Low (var=0) child; must not be constant.
  Bdd low() const;
  /// High (var=1) child; must not be constant.
  Bdd high() const;

  /// Raw node index inside the manager; stable until a GC happens only in the
  /// sense that live handles keep it alive. Useful as a hash/dictionary key
  /// while the handle is held.
  std::uint32_t id() const { return id_; }

  // Convenience operator forms of Manager operations (see Manager).
  Bdd operator&(const Bdd& rhs) const;
  Bdd operator|(const Bdd& rhs) const;
  Bdd operator^(const Bdd& rhs) const;
  Bdd operator~() const;
  bool implies(const Bdd& rhs) const;

 private:
  friend class Manager;
  Bdd(Manager* mgr, std::uint32_t id);

  Manager* mgr_ = nullptr;
  std::uint32_t id_ = 0;
#ifdef HYDE_CHECKED
  /// Serial of the owning manager at handle creation; lets check_owned
  /// detect handles that outlived their manager even when a new manager
  /// reuses the same address.
  std::uint64_t mgr_serial_ = 0;
#endif
};

/// Hash functor for using Bdd as an unordered_map key.
struct BddHash {
  std::size_t operator()(const Bdd& b) const {
    return std::hash<std::uint32_t>()(b.id());
  }
};

/// One defect found by Manager::audit_invariants().
struct InvariantViolation {
  enum class Kind {
    kNodeStructure,  ///< bad child id, broken level ordering, lo == hi
    kUniqueTable,    ///< wrong bucket, chain corruption, duplicate triple
    kRefCount,       ///< stored counts disagree with the handle-maintained sum
    kComputedTable,  ///< occupied slot references a dead or invalid node
    kFreeList,       ///< free list and dead-node population disagree
  };
  Kind kind;
  std::string detail;
};

/// Result of a full structural audit (see Manager::audit_invariants()).
struct InvariantReport {
  std::vector<InvariantViolation> violations;

  bool ok() const { return violations.empty(); }
  bool has(InvariantViolation::Kind kind) const {
    for (const InvariantViolation& v : violations) {
      if (v.kind == kind) return true;
    }
    return false;
  }
  /// Multi-line human-readable rendering; empty string when ok().
  std::string to_string() const;
};

/// Point-in-time snapshot of a manager's kernel counters (see
/// Manager::stats()). Cache counters accumulate over the manager's lifetime;
/// table *contents* are invalidated at every GC but the counters are not
/// reset.
struct ManagerStats {
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_inserts = 0;
  /// Lossy replacements: an insert that evicted a live entry with a
  /// different key (the price of the direct-mapped design).
  std::uint64_t cache_overwrites = 0;
  std::size_t cache_capacity = 0;  ///< current slot count (grows on demand)
  std::size_t cache_occupied = 0;  ///< slots holding a valid entry
  std::size_t live_nodes = 0;
  std::size_t store_nodes = 0;     ///< allocated slots incl. dead ones
  std::size_t peak_live_nodes = 0;
  std::size_t unique_buckets = 0;
  int gc_runs = 0;

  double cache_hit_rate() const {
    const std::uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(cache_hits) /
                            static_cast<double>(total);
  }
  double unique_load() const {
    return unique_buckets == 0 ? 0.0
                               : static_cast<double>(live_nodes) /
                                     static_cast<double>(unique_buckets);
  }
};

/// The BDD manager: owns the node store, unique table and computed table.
///
/// Node 0 is the constant 0 and node 1 the constant 1. The manager supports a
/// fixed maximum variable count chosen at construction, which may be grown
/// with `ensure_vars`.
class Manager {
 public:
  explicit Manager(int num_vars = 64);
  Manager(const Manager&) = delete;
  Manager& operator=(const Manager&) = delete;
  ~Manager();

  int num_vars() const { return num_vars_; }
  /// Grows the variable space to at least \p num_vars.
  void ensure_vars(int num_vars);

  Bdd zero() { return make_external(0); }
  Bdd one() { return make_external(1); }
  Bdd constant(bool value) { return value ? one() : zero(); }
  /// The single-variable function x_{index}.
  Bdd var(int index);
  /// The complemented variable !x_{index}.
  Bdd nvar(int index);

  // Dedicated apply kernels (operands of commutative ops are normalized, so
  // f&g and g&f share one computed-table entry).
  Bdd bdd_and(const Bdd& f, const Bdd& g);
  Bdd bdd_or(const Bdd& f, const Bdd& g);
  Bdd bdd_xor(const Bdd& f, const Bdd& g);
  Bdd bdd_not(const Bdd& f);
  /// If-then-else: f ? g : h. Degenerate calls are routed to the dedicated
  /// kernels above so they share cache entries with the operator forms.
  Bdd ite(const Bdd& f, const Bdd& g, const Bdd& h);

  /// True iff f & g == 0, computed without building the conjunction.
  bool disjoint(const Bdd& f, const Bdd& g);
  /// True iff f implies g pointwise.
  bool implies(const Bdd& f, const Bdd& g) { return disjoint(f, bdd_not(g)); }

  /// Cofactor w.r.t. a single variable assignment.
  Bdd cofactor(const Bdd& f, int var, bool value);
  /// Cofactor w.r.t. a set of variable assignments (cube given as pairs).
  Bdd cofactor_cube(const Bdd& f, const std::vector<std::pair<int, bool>>& cube);

  /// Existential quantification over the given variables.
  Bdd exists(const Bdd& f, const std::vector<int>& vars);
  /// Universal quantification over the given variables.
  Bdd forall(const Bdd& f, const std::vector<int>& vars);

  /// Substitutes g for variable \p var inside f.
  Bdd compose(const Bdd& f, int var, const Bdd& g);
  /// Simultaneous substitution: variable v becomes map[v] for every map entry.
  Bdd vector_compose(const Bdd& f, const std::unordered_map<int, Bdd, std::hash<int>>& map);
  /// Renames variables: old variable v becomes perm[v]. Entries absent from
  /// \p perm (value < 0) keep their index. The mapping must be injective on
  /// the support.
  Bdd permute(const Bdd& f, const std::vector<int>& perm);

  /// Indices of variables f depends on, ascending.
  std::vector<int> support(const Bdd& f);
  /// Number of onset minterms over a space of \p num_vars variables.
  double sat_count(const Bdd& f, int num_vars);
  /// Any one onset minterm as (var, value) assignments for the support vars.
  /// Returns false if f is the zero function.
  bool pick_one_minterm(const Bdd& f, std::vector<std::pair<int, bool>>* out);

  /// Number of distinct internal nodes reachable from f (constants excluded).
  std::size_t node_count(const Bdd& f);
  /// Number of 1-paths (the cube count of the disjoint cover the BLIF/PLA
  /// writers emit) — the cost function of cube-minimizing encodings [3].
  double one_path_count(const Bdd& f);
  /// Count of all live (externally reachable) nodes in the manager.
  std::size_t live_node_count() const;
  /// Total nodes ever allocated and currently in the store.
  std::size_t store_size() const { return nodes_.size(); }

  /// Builds a BDD from a truth table; table variable i maps to manager
  /// variable var_map[i] (or i when var_map is empty).
  Bdd from_truth_table(const tt::TruthTable& table,
                       const std::vector<int>& var_map = {});
  /// Evaluates f over the cube spanned by \p vars into a truth table; f must
  /// not depend on variables outside \p vars.
  tt::TruthTable to_truth_table(const Bdd& f, const std::vector<int>& vars);

  /// Evaluates f on a complete assignment (indexed by manager variable).
  bool eval(const Bdd& f, const std::vector<bool>& assignment);

  /// Graphviz dump for debugging.
  std::string to_dot(const Bdd& f, const std::string& name = "bdd");

  /// Runs mark-and-sweep garbage collection; invalidates no live handles.
  /// Clears the computed table (cached results may reference dead nodes).
  void collect_garbage();
  /// Number of GC runs so far (for stats/tests).
  int gc_runs() const { return gc_runs_; }

  /// Snapshot of the kernel counters (computed table, node store, GC).
  ManagerStats stats() const;

  /// Caps the computed table's slot count (rounded down to a power of two,
  /// min 1024). The table starts small and doubles under sustained insert
  /// pressure up to this cap; shrinking below the current size clears it.
  void set_cache_limit(std::size_t max_entries);

  /// Hard cap on live nodes; 0 (the default) means unlimited. Exceeding the
  /// cap makes node creation throw std::length_error — used by callers that
  /// attempt a BDD-based computation and fall back when it blows up (the
  /// windowed flow turns it into its split/pass-through ladder).
  void set_node_limit(std::size_t limit) { node_limit_ = limit; }
  std::size_t node_limit() const { return node_limit_; }

  /// Throws std::invalid_argument if the handle came from another manager.
  /// Under HYDE_CHECKED this additionally detects stale handles whose owning
  /// manager was destroyed and its address reused (the handle carries the
  /// owning manager's serial number).
  void check_owned(const Bdd& f) const;

  /// Exhaustive structural audit of the kernel's data structures: unique
  /// table (canonicity, bucket placement, no duplicate (var, lo, hi)
  /// triples, variable ordering of children), reference counts (recomputed
  /// handle totals vs. stored per-node counts), computed table (occupied
  /// slots reference live nodes only), and free-list integrity. O(store
  /// size) — a debugging tool, not a hot-path check. Under HYDE_CHECKED it
  /// runs automatically after every garbage collection.
  InvariantReport audit_invariants() const;
  /// Throws std::logic_error carrying the report text if the audit fails.
  void check_invariants() const;

 private:
  friend class Bdd;
  friend struct ManagerTestPeer;  // corruption-injection hooks for tests

  struct Node {
    std::int32_t var;   // variable index; -1 for constants
    std::uint32_t lo;
    std::uint32_t hi;
    std::uint32_t next;  // unique-table chain
    std::uint32_t ext_refs = 0;
  };

  /// One slot of the unified computed table. `a` packs the operation tag in
  /// its high half (tags start at 1, so a == 0 marks an empty slot); `b`
  /// carries the remaining operands.
  struct CacheEntry {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::uint32_t result = 0;
  };

  std::uint32_t make_node(std::int32_t var, std::uint32_t lo, std::uint32_t hi);

  // Unified computed table.
  bool cache_lookup(std::uint64_t a, std::uint64_t b, std::uint32_t* result);
  void cache_insert(std::uint64_t a, std::uint64_t b, std::uint32_t result);
  void cache_clear();

  // Recursive kernels (raw node ids; caller must pin operands via handles or
  // the recursion itself — GC only runs at API entry points).
  std::uint32_t ite_rec(std::uint32_t f, std::uint32_t g, std::uint32_t h);
  std::uint32_t and_rec(std::uint32_t f, std::uint32_t g);
  std::uint32_t or_rec(std::uint32_t f, std::uint32_t g);
  std::uint32_t xor_rec(std::uint32_t f, std::uint32_t g);
  std::uint32_t not_rec(std::uint32_t f);
  bool disjoint_rec(std::uint32_t f, std::uint32_t g);
  std::uint32_t cofactor_rec(std::uint32_t f, int var, bool value);
  std::uint32_t quantify_rec(std::uint32_t f, std::uint32_t cube,
                             bool existential);
  std::uint32_t compose_rec(std::uint32_t f, const std::vector<std::int64_t>& map,
                            std::uint64_t ctx);

  /// Positive cube over \p vars (duplicates ignored), bottom-up so each level
  /// is a single make_node.
  std::uint32_t build_cube(const std::vector<int>& vars);
  /// Registers a substitution map for this GC epoch and returns a small id
  /// that keys compose results in the computed table (identical maps share
  /// an id, so repeated vector_compose calls hit the cache).
  std::uint64_t compose_context(const std::vector<std::int64_t>& map);

  void support_rec(std::uint32_t f, std::vector<char>& seen);
  double sat_count_rec(std::uint32_t f,
                       std::unordered_map<std::uint32_t, double>& memo);

  Bdd make_external(std::uint32_t id);
  void inc_ref(std::uint32_t id);
  void dec_ref(std::uint32_t id);
  void maybe_gc();

  std::uint32_t unique_lookup(std::int32_t var, std::uint32_t lo, std::uint32_t hi);
  void unique_insert(std::uint32_t id);
  void rehash_unique(std::size_t new_bucket_count);

  int num_vars_;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> unique_buckets_;

  // Computed table state (lazily allocated; grows by doubling under insert
  // pressure up to cache_max_entries_).
  std::vector<CacheEntry> cache_;
  std::size_t cache_max_entries_ = std::size_t{1} << 20;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  std::uint64_t cache_inserts_ = 0;
  std::uint64_t cache_overwrites_ = 0;
  std::uint64_t inserts_since_grow_ = 0;

  // support() visit marks, indexed by node id: a node is visited in the
  // current call iff its mark equals support_epoch_ (never 0).
  std::vector<std::uint32_t> support_marks_;
  std::uint32_t support_epoch_ = 0;

  // Compose-context registry for the current GC epoch.
  std::vector<std::vector<std::int64_t>> compose_maps_;
  std::unordered_map<std::uint64_t, std::uint32_t> compose_fingerprints_;

  std::size_t gc_threshold_ = 1u << 18;
  std::size_t node_limit_ = 0;
  int gc_runs_ = 0;
  std::size_t peak_live_nodes_ = 2;
  std::vector<std::uint32_t> free_list_;

  /// Running sum of all per-node external reference counts, maintained by
  /// inc_ref/dec_ref. The auditor recomputes the sum from the node store and
  /// flags any drift (a count mutated without going through the handles).
  std::uint64_t total_ext_refs_ = 0;
  /// Process-unique serial for HYDE_CHECKED stale-handle detection.
  std::uint64_t serial_ = 0;
};

}  // namespace hyde::bdd
