/// \file xc3000.hpp
/// \brief Xilinx XC3000 CLB packing (the xl_partition -tm stand-in).
///
/// An XC3000 CLB realizes either one function of up to 5 inputs or two
/// functions of up to 4 inputs each sharing at most 5 distinct input
/// signals, neither reading the other. Packing a 5-feasible network is
/// therefore a maximum-matching problem on the pairing graph of ≤4-input
/// nodes, solved exactly without building the whole graph. With c(v) the
/// number of distinct fanins of v, the edges split in two:
///
///  - **dense** edges, c(u)+c(v) ≤ 5: the union fits whatever the fanins
///    are, so u and v pair unless one reads the other. These are implied by
///    the fanin counts and are never stored: a vertex's dense neighbours are
///    the width buckets 0…5−c(v) minus its fanins and readers;
///  - **sparse** edges, c(u)+c(v) > 5: the pair must share fanins, so the
///    edges are enumerated from a fanin → readers index over each node's
///    sorted fanin array (at most 5 entries).
///
/// Both phases drive graph::AugmentingPathSearch (graph/matching.hpp), the
/// Edmonds blossom search that also backs graph::max_cardinality_matching;
/// the packer only chooses roots and the order in which edges are offered.
/// The starting matching is augment_from_every_root over the sparse edges
/// alone. A second search then runs from every free vertex over both kinds
/// of edge, reading dense neighbours off the buckets. Cheap edges go first:
/// every even vertex has its sparse edges and its free dense neighbours
/// (widest first) offered before the next full bucket scan. A root with a
/// free neighbour is thus matched at once, which does the work of a greedy
/// pass, and a search that can succeed rarely scans many buckets. A search
/// that fails leaves a Hungarian tree whose vertices lie on no later
/// augmenting path (Edmonds), so they are dropped. When no free vertex has
/// an augmenting path the matching is maximum (Berge), and every maximum
/// matching has the same size, so the counts equal those of a blossom over
/// the explicit all-pairs graph (kept as the test oracle
/// `pack_xc3000_reference`, tests/oracle/pack_oracle.hpp).

#pragma once

#include <vector>

#include "net/network.hpp"

namespace hyde::mapper {

struct ClbPacking {
  int num_clbs = 0;   ///< total CLBs used
  int paired = 0;     ///< CLBs hosting two functions
  int singles = 0;    ///< CLBs hosting one function
};

/// Packs a 5-feasible network into XC3000 CLBs. Throws std::invalid_argument
/// if some node has more than 5 inputs.
ClbPacking pack_xc3000(const net::Network& network);

}  // namespace hyde::mapper
