// Topology-pattern search inside a candidate group (Alg. 2 line 4) and
// whole-group pattern classification (Table II).
//
// Patterns are found on the group's induced subgraph and reported in local
// node ids: cycles via bounded enumeration, paths as maximal endpoint-to-
// endpoint simple chains, trees as BFS trees hanging from branching roots
// in the acyclic remainder.
//
// Both entry points run on a materialized `Graph` or on a non-materializing
// `SubgraphView` (what the candidate stage and TPGCL pass) — the two
// produce identical patterns, since a view exposes the exact local graph
// its materialization would (tests/traversal_equivalence_test.cc).
#ifndef GRGAD_SAMPLING_PATTERN_SEARCH_H_
#define GRGAD_SAMPLING_PATTERN_SEARCH_H_

#include <vector>

#include "src/core/types.h"
#include "src/graph/graph.h"
#include "src/graph/subgraph_view.h"

namespace grgad {

/// Patterns found inside one candidate group (local node ids).
struct FoundPatterns {
  /// Each tree is a node list with the root first, then BFS order.
  std::vector<std::vector<int>> trees;
  /// Each path is an ordered node sequence (>= 3 nodes).
  std::vector<std::vector<int>> paths;
  /// Each cycle is an ordered ring (>= 3 nodes).
  std::vector<std::vector<int>> cycles;

  bool empty() const { return trees.empty() && paths.empty() &&
                              cycles.empty(); }
};

/// Pattern-search knobs. The pattern taxonomy is disjoint: a chain counts
/// only as a path (its nodes are never tree roots), and a path must have
/// degree-2 interiors (a leaf-to-leaf walk through a branching node is not
/// a path pattern — the branching node anchors a tree pattern instead).
struct PatternSearchOptions {
  int cycle_max_len = 12;
  int max_cycles = 8;
  int max_paths = 8;
  int max_trees = 4;
  /// Minimum degree of a tree-pattern root (>= 3 keeps chains out).
  int min_tree_children = 3;
};

/// Finds Tree/Path/Cycle patterns in the (small) graph `group_graph`.
FoundPatterns SearchPatterns(const Graph& group_graph,
                             const PatternSearchOptions& options = {});
/// Same patterns, straight off a subgraph view (no materialization).
FoundPatterns SearchPatterns(const SubgraphView& group_view,
                             const PatternSearchOptions& options = {});

/// Classifies a group's dominant topology pattern (Table II):
///  - acyclic + max degree <= 2          -> kPath
///  - acyclic + branching                -> kTree
///  - cyclic and >= half the nodes lie on cycles -> kCycle
///  - otherwise                          -> kMixed
TopologyPattern ClassifyGroupPattern(const Graph& group_graph);
TopologyPattern ClassifyGroupPattern(const SubgraphView& group_view);

}  // namespace grgad

#endif  // GRGAD_SAMPLING_PATTERN_SEARCH_H_
