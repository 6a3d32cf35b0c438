/// \file npn_oracle.hpp
/// \brief Test-only oracle for tt::npn_canonize: the original exhaustive
/// search over TruthTable values (one permute per permutation, one flip_var
/// per Gray step, fresh tables per candidate). The word-table kernel in
/// tt/npn.cpp must return the identical canonical form and the identical
/// transform — same permutation, negations and output polarity — for every
/// input, including the tie-heavy symmetric functions.

#pragma once

#include "tt/npn.hpp"

namespace hyde::tt {

/// npn_canonize by the reference enumeration: permutations in
/// std::next_permutation order, negations in Gray order, onset before
/// offset; a candidate replaces the best only when strictly smaller.
NpnCanonization npn_canonize_reference(const Isf& f);

}  // namespace hyde::tt
