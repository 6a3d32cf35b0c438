#include "tt/npn.hpp"

#include <array>
#include <bit>
#include <numeric>
#include <stdexcept>
#include <tuple>
#include <utility>

namespace hyde::tt {

namespace {

/// A table over at most kMaxExactNpnVars = 7 variables: minterm m in bit
/// m % 64 of word m / 64. Word 1 stays zero below 7 variables, and so do the
/// bits of word 0 above minterm 2^n - 1.
using Table = std::array<std::uint64_t, 2>;

/// Substitutes !x_v for x_v in place (swaps the two cofactor halves).
void flip_var(Table& t, int v) {
  if (v == 6) {
    std::swap(t[0], t[1]);
    return;
  }
  const std::uint64_t hi = kVarMask[v];
  const int shift = 1 << v;
  for (std::uint64_t& w : t) w = ((w & hi) >> shift) | ((w & ~hi) << shift);
}

/// Exchanges variables a < b in place.
void swap_vars(Table& t, int a, int b) {
  const std::uint64_t in_a = kVarMask[a];
  const int shift = 1 << a;
  if (b == 6) {
    // Word 0 holds x6 = 0 and word 1 holds x6 = 1: minterms with x_a = 1 in
    // word 0 trade places with their x_a = 0 partners in word 1.
    const std::uint64_t down = (t[0] & in_a) >> shift;
    const std::uint64_t up = (t[1] & ~in_a) << shift;
    t[0] = (t[0] & ~in_a) | up;
    t[1] = (t[1] & in_a) | down;
    return;
  }
  // Minterms with x_a = 1, x_b = 0 trade places with the minterm delta above.
  const int delta = (1 << b) - shift;
  const std::uint64_t mask = in_a & ~kVarMask[b];
  for (std::uint64_t& w : t) {
    const std::uint64_t x = (w ^ (w >> delta)) & mask;
    w ^= x ^ (x << delta);
  }
}

Table load(const TruthTable& t) {
  Table w{};
  for (std::size_t i = 0; i < t.words().size(); ++i) w[i] = t.words()[i];
  return w;
}

TruthTable store(int n, const Table& t) {
  TruthTable r(n);
  for (std::uint64_t m = 0; m < r.size(); ++m) {
    if ((t[m >> 6] >> (m & 63)) & 1) r.set_bit(m, true);
  }
  return r;
}

}  // namespace

NpnCanonization npn_canonize(const Isf& f) {
  const int n = f.num_vars();
  if (n > kMaxExactNpnVars) {
    throw std::invalid_argument("npn_canonize: too many variables for exact "
                                "canonicalization");
  }
  if (!f.is_consistent()) {
    throw std::invalid_argument("npn_canonize: inconsistent ISF");
  }

  // The offset complements within the 2^n minterms only.
  const Table live = {n >= 6 ? ~std::uint64_t{0}
                             : (std::uint64_t{1} << (1u << n)) - 1,
                      n == 7 ? ~std::uint64_t{0} : 0};

  // base holds g(y) = f(x) with x_{q[j]} = y_j for the current permutation q.
  Table base_on = load(f.on);
  Table base_dc = load(f.dc);
  std::array<int, kMaxExactNpnVars> q{};
  std::iota(q.begin(), q.begin() + n, 0);

  // The first candidate (identity, no negation, onset) seeds the best; later
  // candidates replace it only when strictly smaller in (onset, dcset)
  // lexicographic word order, so the earliest minimum wins.
  Table best_on = base_on;
  Table best_dc = base_dc;
  std::array<int, kMaxExactNpnVars> best_q = q;
  std::uint32_t best_negations = 0;
  bool best_output_negated = false;

  const std::uint32_t num_masks = std::uint32_t{1} << n;
  while (true) {
    // Gray-walk the negations so every step is one cofactor-halves swap.
    Table on = base_on;
    Table dc = base_dc;
    std::uint32_t gray = 0;
    for (std::uint32_t idx = 0; idx < num_masks; ++idx) {
      if (idx != 0) {
        const int flipped = std::countr_zero(idx);
        gray ^= std::uint32_t{1} << flipped;
        flip_var(on, flipped);
        flip_var(dc, flipped);
      }
      const Table off = {~(on[0] | dc[0]) & live[0],
                         ~(on[1] | dc[1]) & live[1]};
      for (int o = 0; o < 2; ++o) {
        const Table& cand_on = o == 0 ? on : off;
        if (std::tie(cand_on, dc) >= std::tie(best_on, best_dc)) continue;
        best_on = cand_on;
        best_dc = dc;
        best_q = q;
        best_negations = gray;
        best_output_negated = o != 0;
      }
    }

    // std::next_permutation on q, mirrored on the tables as variable swaps:
    // the pivot swap, then the suffix reversal.
    int i = n - 2;
    while (i >= 0 && q[i] > q[i + 1]) --i;
    if (i < 0) break;
    int j = n - 1;
    while (q[j] < q[i]) --j;
    std::swap(q[i], q[j]);
    swap_vars(base_on, i, j);
    swap_vars(base_dc, i, j);
    for (int a = i + 1, b = n - 1; a < b; ++a, --b) {
      std::swap(q[a], q[b]);
      swap_vars(base_on, a, b);
      swap_vars(base_dc, a, b);
    }
  }

  NpnCanonization best;
  best.canonical = Isf{store(n, best_on), store(n, best_dc)};
  best.transform.perm.assign(best_q.begin(), best_q.begin() + n);
  best.transform.input_negations = best_negations;
  best.transform.output_negated = best_output_negated;
  return best;
}

NpnCanonization npn_canonize(const TruthTable& f) {
  return npn_canonize(Isf{f});
}

Isf npn_apply(const Isf& canonical, const NpnTransform& t) {
  const int n = canonical.num_vars();
  if (static_cast<int>(t.perm.size()) != n) {
    throw std::invalid_argument("npn_apply: transform arity mismatch");
  }
  const auto map_minterm = [&](std::uint64_t x) {
    std::uint64_t y = 0;
    for (int j = 0; j < n; ++j) {
      const bool bit = ((x >> t.perm[static_cast<std::size_t>(j)]) & 1) ^
                       ((t.input_negations >> j) & 1);
      if (bit) y |= std::uint64_t{1} << j;
    }
    return y;
  };
  const TruthTable off = canonical.off();
  const TruthTable& on_src = t.output_negated ? off : canonical.on;
  Isf f;
  f.on = TruthTable::from_lambda(n, [&](std::uint64_t x) {
    return on_src.bit(map_minterm(x));
  });
  f.dc = TruthTable::from_lambda(n, [&](std::uint64_t x) {
    return canonical.dc.bit(map_minterm(x));
  });
  return f;
}

}  // namespace hyde::tt
