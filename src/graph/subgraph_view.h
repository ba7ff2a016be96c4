// Non-materializing induced-subgraph view (candidate groups, Alg. 2 input).
//
// The seed pipeline materialized every candidate group through
// Graph::InducedSubgraph — a GraphBuilder run (edge sort + CSR build) plus a
// gathered attribute Matrix per group, repeated for every pattern search,
// augmentation, and TPGCL batch build. A SubgraphView exposes the same local
// graph (identical local-id assignment, identical sorted neighbor rows,
// identical edge enumeration order) directly over the host's CSR: Reset()
// re-targets the view at a new node list reusing all internal scratch, the
// global→local remap is epoch-stamped so re-targeting costs O(group), not
// O(host), and attributes are read through the host rows instead of copied.
// SearchPatterns / ClassifyGroupPattern / Augment / the TPGCL batch builder
// accept views in place of induced copies (the candidate stage uses views);
// tests/traversal_equivalence_test.cc pins view ≡ InducedSubgraph.
#ifndef GRGAD_GRAPH_SUBGRAPH_VIEW_H_
#define GRGAD_GRAPH_SUBGRAPH_VIEW_H_

#include <span>
#include <vector>

#include "src/graph/graph.h"

namespace grgad {

/// A borrowed view of the subgraph of `host` induced by a node list.
///
/// Valid while the host outlives it and until the next Reset(). Local node
/// ids follow the first-occurrence order of the node list (exactly
/// Graph::InducedSubgraph's assignment); neighbor rows are sorted by local
/// id, matching the materialized CSR.
class SubgraphView {
 public:
  SubgraphView() = default;
  SubgraphView(const SubgraphView&) = delete;
  SubgraphView& operator=(const SubgraphView&) = delete;

  /// Re-targets the view at the subgraph of `host` induced by `nodes`
  /// (deduplicated, order preserved). Reuses internal scratch; O(sum of
  /// in-group degrees) after the remap table has grown to the host size.
  void Reset(const Graph& host, std::span<const int> nodes);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  /// Undirected edges inside the group.
  int num_edges() const { return static_cast<int>(adj_.size() / 2); }

  /// Local-id neighbors of local node v, ascending.
  std::span<const int> Neighbors(int v) const {
    GRGAD_DCHECK(v >= 0 && v < num_nodes());
    return {adj_.data() + offsets_[v],
            static_cast<size_t>(offsets_[v + 1] - offsets_[v])};
  }

  int Degree(int v) const {
    GRGAD_DCHECK(v >= 0 && v < num_nodes());
    return offsets_[v + 1] - offsets_[v];
  }

  /// True iff the local edge {u, v} exists. O(log deg(u)).
  bool HasEdge(int u, int v) const;

  /// Host node id of a local id (the mapping() of the materialized graph).
  int GlobalId(int local) const {
    GRGAD_DCHECK(local >= 0 && local < num_nodes());
    return nodes_[local];
  }
  std::span<const int> GlobalIds() const { return nodes_; }

  /// Local id of a host node, -1 when outside the view.
  int LocalId(int global) const {
    GRGAD_DCHECK(host_ != nullptr);
    GRGAD_DCHECK(global >= 0 && global < host_->num_nodes());
    return remap_stamp_[global] == remap_epoch_ ? remap_[global] : -1;
  }

  const Graph& host() const {
    GRGAD_DCHECK(host_ != nullptr);
    return *host_;
  }

  bool has_attributes() const {
    return host_ != nullptr && host_->has_attributes();
  }
  size_t attr_dim() const { return host_ == nullptr ? 0 : host_->attr_dim(); }
  /// Host attribute row of local node v (no copy).
  const double* AttrRow(int v) const {
    return host().attributes().RowPtr(GlobalId(v));
  }

  /// Visits every local undirected edge as visitor(u, v) with u < v, in
  /// exactly the order Materialize().Edges() would report.
  template <typename Visitor>
  void ForEachEdge(Visitor&& visitor) const {
    for (int u = 0; u < num_nodes(); ++u) {
      for (int i = offsets_[u]; i < offsets_[u + 1]; ++i) {
        const int v = adj_[i];
        if (v > u) visitor(u, v);
      }
    }
  }

  /// The equivalent materialized graph (host.InducedSubgraph of the node
  /// list) — for tests and callers that need an owning Graph.
  Graph Materialize() const;

 private:
  const Graph* host_ = nullptr;
  std::vector<int> nodes_;    ///< local -> host id, first-occurrence order.
  std::vector<int> offsets_;  ///< CSR offsets into adj_, length n+1.
  std::vector<int> adj_;      ///< Local-id rows, sorted ascending.
  // Epoch-stamped host->local remap: sized to the host once, reset in O(1).
  std::vector<int> remap_;
  std::vector<uint32_t> remap_stamp_;
  uint32_t remap_epoch_ = 0;
};

}  // namespace grgad

#endif  // GRGAD_GRAPH_SUBGRAPH_VIEW_H_
