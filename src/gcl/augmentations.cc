#include "src/gcl/augmentations.h"

#include <algorithm>
#include <set>

namespace grgad {

const char* ToString(AugmentationKind kind) {
  switch (kind) {
    case AugmentationKind::kPba: return "PBA";
    case AugmentationKind::kPpa: return "PPA";
    case AugmentationKind::kNodeDrop: return "ND";
    case AugmentationKind::kEdgeRemove: return "ER";
    case AugmentationKind::kFeatureMask: return "FM";
  }
  return "?";
}

bool ParseAugmentationKind(const std::string& name, AugmentationKind* out) {
  for (AugmentationKind kind :
       {AugmentationKind::kPba, AugmentationKind::kPpa,
        AugmentationKind::kNodeDrop, AugmentationKind::kEdgeRemove,
        AugmentationKind::kFeatureMask}) {
    if (name == ToString(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

namespace {

// The augmentation bodies are generic over the group representation: a
// materialized Graph or a borrowed SubgraphView (what TPGCL passes). Both
// expose num_nodes/Neighbors/ForEachEdge/attr_dim; only attribute-row
// access differs.
const double* AttrRowOf(const Graph& g, int v) {
  return g.attributes().RowPtr(v);
}
const double* AttrRowOf(const SubgraphView& g, int v) { return g.AttrRow(v); }

/// Editable copy of a small attributed graph.
struct MutableGroup {
  int n = 0;
  std::vector<std::vector<double>> attrs;      // n rows
  std::vector<std::pair<int, int>> edges;      // u < v

  template <typename G>
  static MutableGroup From(const G& g) {
    MutableGroup m;
    m.n = g.num_nodes();
    m.attrs.resize(m.n);
    const int d = static_cast<int>(g.attr_dim());
    for (int v = 0; v < m.n; ++v) {
      m.attrs[v].resize(d);
      if (d == 0) continue;
      const double* row = AttrRowOf(g, v);
      for (int j = 0; j < d; ++j) m.attrs[v][j] = row[j];
    }
    // Streamed off the CSR in Edges() order — no O(E) intermediate vector.
    m.edges.reserve(g.num_edges());
    g.ForEachEdge([&m](int u, int v) { m.edges.emplace_back(u, v); });
    return m;
  }

  /// Adds a node with the given attributes, connected to `neighbors`.
  int AddNode(std::vector<double> attr, const std::vector<int>& neighbors) {
    const int id = n++;
    attrs.push_back(std::move(attr));
    for (int w : neighbors) {
      edges.emplace_back(std::min(id, w), std::max(id, w));
    }
    return id;
  }

  /// Removes the given nodes (and incident edges), compacting ids. Keeps at
  /// least one node: if everything would vanish, node 0 survives.
  void RemoveNodes(const std::set<int>& drop_in) {
    std::set<int> drop = drop_in;
    if (static_cast<int>(drop.size()) >= n) drop.erase(drop.begin());
    std::vector<int> remap(n, -1);
    int next = 0;
    std::vector<std::vector<double>> new_attrs;
    for (int v = 0; v < n; ++v) {
      if (drop.count(v)) continue;
      remap[v] = next++;
      new_attrs.push_back(std::move(attrs[v]));
    }
    std::vector<std::pair<int, int>> new_edges;
    for (const auto& [u, v] : edges) {
      if (remap[u] >= 0 && remap[v] >= 0) {
        new_edges.emplace_back(remap[u], remap[v]);
      }
    }
    n = next;
    attrs = std::move(new_attrs);
    edges = std::move(new_edges);
  }

  Graph Build() const {
    GraphBuilder builder(n);
    for (const auto& [u, v] : edges) builder.AddEdge(u, v);
    const size_t d = attrs.empty() ? 0 : attrs[0].size();
    Matrix x(n, d);
    for (int v = 0; v < n; ++v) x.SetRow(v, attrs[v]);
    return builder.Build(std::move(x));
  }
};

/// Mean attribute vector over `nodes` of `g`.
template <typename G>
std::vector<double> MeanAttr(const G& g, const std::vector<int>& nodes) {
  const int d = static_cast<int>(g.attr_dim());
  std::vector<double> out(d, 0.0);
  if (nodes.empty() || d == 0) return out;
  for (int v : nodes) {
    const double* row = AttrRowOf(g, v);
    for (int j = 0; j < d; ++j) out[j] += row[j];
  }
  for (double& x : out) x /= static_cast<double>(nodes.size());
  return out;
}

template <typename G>
Graph AugmentPba(const G& group, const FoundPatterns& patterns, Rng* rng) {
  MutableGroup m = MutableGroup::From(group);
  std::set<int> drop;
  // Trees: drop the root (Alg. 2 line 7).
  for (const auto& tree : patterns.trees) drop.insert(tree[0]);
  // Paths: drop the middle node (line 12).
  for (const auto& path : patterns.paths) drop.insert(path[path.size() / 2]);
  // Cycles: drop two random nodes (line 17).
  for (const auto& cycle : patterns.cycles) {
    const auto picks = rng->SampleWithoutReplacement(cycle.size(), 2);
    drop.insert(cycle[picks[0]]);
    drop.insert(cycle[picks[1]]);
  }
  if (drop.empty() && group.num_nodes() > 1) {
    // Patternless group: break it by dropping a random node anyway, so the
    // negative view is never the identity.
    drop.insert(static_cast<int>(rng->UniformInt(
        static_cast<uint64_t>(group.num_nodes()))));
  }
  m.RemoveNodes(drop);
  return m.Build();
}

template <typename G>
Graph AugmentPpa(const G& group, const FoundPatterns& patterns, Rng* rng) {
  MutableGroup m = MutableGroup::From(group);
  // Trees: add a child to the root whose attributes average the existing
  // children (line 8).
  for (const auto& tree : patterns.trees) {
    const int root = tree[0];
    std::vector<int> children;
    for (int w : group.Neighbors(root)) children.push_back(w);
    m.AddNode(MeanAttr(group, children.empty()
                                  ? std::vector<int>{root}
                                  : children),
              {root});
  }
  // Paths: prolong at an endpoint with the path-average attributes (l. 13).
  for (const auto& path : patterns.paths) {
    const int endpoint = rng->Bernoulli(0.5) ? path.front() : path.back();
    m.AddNode(MeanAttr(group, path), {endpoint});
  }
  // Cycles: bridge two random members through a new node (line 18).
  for (const auto& cycle : patterns.cycles) {
    const auto picks = rng->SampleWithoutReplacement(cycle.size(), 2);
    m.AddNode(MeanAttr(group, cycle),
              {cycle[picks[0]], cycle[picks[1]]});
  }
  return m.Build();
}

template <typename G>
Graph AugmentNodeDrop(const G& group, Rng* rng) {
  MutableGroup m = MutableGroup::From(group);
  const int k = std::max(1, static_cast<int>(0.15 * group.num_nodes()));
  std::set<int> drop;
  const auto picks = rng->SampleWithoutReplacement(
      static_cast<size_t>(group.num_nodes()),
      std::min<size_t>(k, group.num_nodes()));
  drop.insert(picks.begin(), picks.end());
  m.RemoveNodes(drop);
  return m.Build();
}

template <typename G>
Graph AugmentEdgeRemove(const G& group, Rng* rng) {
  MutableGroup m = MutableGroup::From(group);
  if (m.edges.empty()) return m.Build();
  const int k = std::max(1, static_cast<int>(0.15 * m.edges.size()));
  const auto picks = rng->SampleWithoutReplacement(
      m.edges.size(), std::min<size_t>(k, m.edges.size()));
  std::set<size_t> drop(picks.begin(), picks.end());
  std::vector<std::pair<int, int>> kept;
  for (size_t e = 0; e < m.edges.size(); ++e) {
    if (!drop.count(e)) kept.push_back(m.edges[e]);
  }
  m.edges = std::move(kept);
  return m.Build();
}

template <typename G>
Graph AugmentFeatureMask(const G& group, Rng* rng) {
  MutableGroup m = MutableGroup::From(group);
  const int d = static_cast<int>(group.attr_dim());
  if (d == 0) return m.Build();
  const int k = std::max(1, static_cast<int>(0.2 * d));
  const auto dims = rng->SampleWithoutReplacement(
      static_cast<size_t>(d), std::min<size_t>(k, d));
  for (auto& row : m.attrs) {
    for (size_t j : dims) row[j] = 0.0;
  }
  return m.Build();
}

template <typename G>
Graph AugmentImpl(const G& group, AugmentationKind kind,
                  const FoundPatterns& patterns, Rng* rng) {
  GRGAD_CHECK(rng != nullptr);
  GRGAD_CHECK_GT(group.num_nodes(), 0);
  switch (kind) {
    case AugmentationKind::kPba:
      return AugmentPba(group, patterns, rng);
    case AugmentationKind::kPpa:
      return AugmentPpa(group, patterns, rng);
    case AugmentationKind::kNodeDrop:
      return AugmentNodeDrop(group, rng);
    case AugmentationKind::kEdgeRemove:
      return AugmentEdgeRemove(group, rng);
    case AugmentationKind::kFeatureMask:
      return AugmentFeatureMask(group, rng);
  }
  GRGAD_CHECK(false);
  return Graph();
}

}  // namespace

Graph Augment(const Graph& group, AugmentationKind kind,
              const FoundPatterns& patterns, Rng* rng) {
  return AugmentImpl(group, kind, patterns, rng);
}

Graph Augment(const SubgraphView& group, AugmentationKind kind,
              const FoundPatterns& patterns, Rng* rng) {
  return AugmentImpl(group, kind, patterns, rng);
}

}  // namespace grgad
