/// Tests for exact NPN canonicalization (src/tt/npn).
///
/// The load-bearing properties for the runtime's decomposition cache:
///  - invariance: every member of an NPN class canonicalizes to the same
///    representative (checked with random transforms, completely specified
///    and ISF);
///  - soundness: npn_apply(canonical, transform) recovers the original, so
///    the representative really is NPN-equivalent to the input;
///  - separation: distinct classes never collide — the exhaustive 4-input
///    sweep must produce exactly the 222 known NPN classes;
///  - identity with the reference search (tests/oracle/npn_oracle): the
///    word-table kernel returns the same canonical form *and* the same
///    transform, so cache keys and template replay never change;
///  - reentrancy: concurrent calls, as the batch workers make, agree.

#include "tt/npn.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "oracle/npn_oracle.hpp"
#include "tt/truth_table.hpp"

namespace hyde::tt {
namespace {

TruthTable random_table(int n, std::mt19937_64& rng) {
  return TruthTable::from_lambda(
      n, [&](std::uint64_t) { return (rng() & 1) != 0; });
}

/// Applies an arbitrary NPN transform to f: result input i reads f's variable
/// perm[i], optionally complemented; the output is optionally complemented.
TruthTable transform_table(const TruthTable& f, const std::vector<int>& perm,
                           std::uint32_t negations, bool output_negated) {
  const int n = f.num_vars();
  return TruthTable::from_lambda(n, [&](std::uint64_t m) {
    std::uint64_t original = 0;
    for (int i = 0; i < n; ++i) {
      const bool bit = (((m >> i) ^ (negations >> i)) & 1) != 0;
      if (bit) original |= std::uint64_t{1} << perm[i];
    }
    return output_negated != f.bit(original);
  });
}

TEST(NpnTest, CanonicalFormInvariantUnderRandomTransforms) {
  std::mt19937_64 rng(20260806);
  for (int n = 3; n <= kMaxExactNpnVars; ++n) {
    for (int trial = 0; trial < 20; ++trial) {
      const TruthTable f = random_table(n, rng);
      const NpnCanonization base = npn_canonize(f);

      std::vector<int> perm(n);
      std::iota(perm.begin(), perm.end(), 0);
      std::shuffle(perm.begin(), perm.end(), rng);
      const auto negations = static_cast<std::uint32_t>(rng() & ((1u << n) - 1));
      const bool output_negated = (rng() & 1) != 0;

      const TruthTable g = transform_table(f, perm, negations, output_negated);
      const NpnCanonization other = npn_canonize(g);
      EXPECT_EQ(base.canonical, other.canonical)
          << "n=" << n << " trial=" << trial << " f=" << f.to_bits()
          << " g=" << g.to_bits();
    }
  }
}

TEST(NpnTest, ApplyRecoversOriginal) {
  std::mt19937_64 rng(4242);
  for (int n = 1; n <= kMaxExactNpnVars; ++n) {
    for (int trial = 0; trial < 20; ++trial) {
      const TruthTable f = random_table(n, rng);
      const NpnCanonization canon = npn_canonize(f);
      const Isf back = npn_apply(canon.canonical, canon.transform);
      EXPECT_EQ(back.on, f) << "n=" << n << " f=" << f.to_bits();
      EXPECT_TRUE(back.dc.is_zero());
    }
  }
}

TEST(NpnTest, IsfCanonicalFormInvariantAndRecoverable) {
  std::mt19937_64 rng(777);
  for (int n = 3; n <= kMaxExactNpnVars; ++n) {
    for (int trial = 0; trial < 15; ++trial) {
      // Random consistent ISF: carve a dcset out of the complement of on.
      const TruthTable on = random_table(n, rng);
      const TruthTable dc = random_table(n, rng) & ~on;
      const Isf f{on, dc};
      const NpnCanonization base = npn_canonize(f);
      EXPECT_TRUE(base.canonical.is_consistent());

      std::vector<int> perm(n);
      std::iota(perm.begin(), perm.end(), 0);
      std::shuffle(perm.begin(), perm.end(), rng);
      const auto negations = static_cast<std::uint32_t>(rng() & ((1u << n) - 1));
      const bool output_negated = (rng() & 1) != 0;

      // Output negation swaps onset and offset; the dcset rides along under
      // the input transform only.
      const TruthTable source_on = output_negated ? f.off() : f.on;
      const Isf g{transform_table(source_on, perm, negations, false),
                  transform_table(f.dc, perm, negations, false)};
      ASSERT_TRUE(g.is_consistent());
      const NpnCanonization other = npn_canonize(g);
      EXPECT_EQ(base.canonical, other.canonical)
          << "n=" << n << " trial=" << trial;

      const Isf back = npn_apply(other.canonical, other.transform);
      EXPECT_EQ(back, g);
    }
  }
}

TEST(NpnTest, ExhaustiveFourVariableSweepYields222Classes) {
  // There are exactly 222 NPN equivalence classes of 4-variable functions.
  // Invariance (members map together) plus this count (no two classes merge)
  // pins the canonicalizer to the true partition.
  std::set<std::string> canonicals;
  for (std::uint32_t bits = 0; bits < (1u << 16); ++bits) {
    const TruthTable f = TruthTable::from_lambda(
        4, [bits](std::uint64_t m) { return ((bits >> m) & 1) != 0; });
    canonicals.insert(npn_canonize(f).canonical.on.to_bits());
  }
  EXPECT_EQ(canonicals.size(), 222u);
}

TEST(NpnTest, SmallCasesAndErrors) {
  // Constants: the two 0-var functions form 1 NPN class (output negation).
  const NpnCanonization zero = npn_canonize(TruthTable::zeros(2));
  const NpnCanonization one = npn_canonize(TruthTable::ones(2));
  EXPECT_EQ(zero.canonical, one.canonical);

  // x and !x are one class.
  const TruthTable x = TruthTable::var(3, 1);
  EXPECT_EQ(npn_canonize(x).canonical, npn_canonize(~x).canonical);

  // AND and OR of two variables are one class (De Morgan), XOR is another.
  const TruthTable a = TruthTable::var(2, 0), b = TruthTable::var(2, 1);
  EXPECT_EQ(npn_canonize(a & b).canonical, npn_canonize(a | b).canonical);
  EXPECT_NE(npn_canonize(a & b).canonical, npn_canonize(a ^ b).canonical);

  EXPECT_THROW(npn_canonize(TruthTable::zeros(kMaxExactNpnVars + 1)),
               std::invalid_argument);
  // Inconsistent ISF (overlapping onset/dcset) is rejected.
  EXPECT_THROW(npn_canonize(Isf{TruthTable::ones(2), TruthTable::ones(2)}),
               std::invalid_argument);
}

/// Random consistent ISF with about half the minterms in the onset and a
/// quarter in the dcset.
Isf random_isf(int n, std::mt19937_64& rng) {
  const TruthTable on = random_table(n, rng);
  return Isf{on, random_table(n, rng) & ~on};
}

/// DC-heavy ISF: a sparse onset (~1/4) and most of the rest don't-care.
Isf dc_heavy_isf(int n, std::mt19937_64& rng) {
  const TruthTable on = random_table(n, rng) & random_table(n, rng);
  return Isf{on, (random_table(n, rng) | random_table(n, rng)) & ~on};
}

/// Totally symmetric ISF: every input weight is on, off or don't-care as a
/// whole, so many transforms tie for the minimum.
Isf symmetric_isf(int n, std::mt19937_64& rng) {
  std::vector<int> on_weights, dc_weights;
  for (int w = 0; w <= n; ++w) {
    switch (rng() % 3) {
      case 0: on_weights.push_back(w); break;
      case 1: dc_weights.push_back(w); break;
      default: break;
    }
  }
  return Isf{TruthTable::symmetric(n, on_weights),
             TruthTable::symmetric(n, dc_weights)};
}

void expect_same(const NpnCanonization& got, const NpnCanonization& want,
                 const std::string& what) {
  EXPECT_EQ(got.canonical, want.canonical) << what;
  EXPECT_EQ(got.transform.perm, want.transform.perm) << what;
  EXPECT_EQ(got.transform.input_negations, want.transform.input_negations)
      << what;
  EXPECT_EQ(got.transform.output_negated, want.transform.output_negated)
      << what;
}

void expect_matches_oracle(const Isf& f) {
  expect_same(npn_canonize(f), npn_canonize_reference(f),
              "n=" + std::to_string(f.num_vars()) + " on=" + f.on.to_bits() +
                  " dc=" + f.dc.to_bits());
}

/// Checks `make(n, rng)` inputs for n = 0..7 against the oracle. The
/// reference search costs ~0.15 s per call at 7 variables in an optimized
/// build and seconds under sanitizers, so 7 variables get one trial.
void check_against_oracle(std::uint64_t seed,
                          Isf (*make)(int, std::mt19937_64&)) {
  std::mt19937_64 rng(seed);
  for (int n = 0; n <= kMaxExactNpnVars; ++n) {
    const int trials = n == kMaxExactNpnVars ? 1 : 12;
    for (int trial = 0; trial < trials; ++trial) {
      expect_matches_oracle(make(n, rng));
    }
  }
}

TEST(NpnOracle, RandomIsfsMatchTheReferenceSearch) {
  check_against_oracle(1301, [](int n, std::mt19937_64& rng) {
    return Isf{random_table(n, rng)};
  });
  check_against_oracle(1302, random_isf);
}

TEST(NpnOracle, DcHeavyIsfsMatchTheReferenceSearch) {
  check_against_oracle(1303, dc_heavy_isf);
}

TEST(NpnOracle, SymmetricIsfsMatchTheReferenceSearch) {
  check_against_oracle(1304, symmetric_isf);
}

TEST(NpnOracle, ConstantsAndProjectionsMatchTheReferenceSearch) {
  for (int n = 0; n < kMaxExactNpnVars; ++n) {
    expect_matches_oracle(Isf{TruthTable::zeros(n)});
    expect_matches_oracle(Isf{TruthTable::ones(n)});
    expect_matches_oracle(Isf{TruthTable::zeros(n), TruthTable::ones(n)});
    for (int v = 0; v < n; ++v) {
      expect_matches_oracle(Isf{TruthTable::var(n, v)});
    }
  }
}

TEST(NpnTest, ConcurrentCallsAgree) {
  std::mt19937_64 rng(1305);
  std::vector<Isf> inputs;
  for (int n = 4; n <= kMaxExactNpnVars; ++n) {
    inputs.push_back(random_isf(n, rng));
    inputs.push_back(dc_heavy_isf(n, rng));
    inputs.push_back(symmetric_isf(n, rng));
  }
  std::vector<NpnCanonization> serial;
  for (const Isf& f : inputs) serial.push_back(npn_canonize(f));

  constexpr int kThreads = 4;
  std::vector<std::vector<NpnCanonization>> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&inputs, &out = results[t]] {
      for (const Isf& f : inputs) out.push_back(npn_canonize(f));
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(results[t].size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      expect_same(results[t][i], serial[i],
                  "thread=" + std::to_string(t) +
                      " input=" + std::to_string(i));
    }
  }
}

}  // namespace
}  // namespace hyde::tt
