#include "src/sampling/group_sampler.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <utility>

#include "src/graph/algorithms.h"
#include "src/graph/graphsnn.h"
#include "src/graph/traversal_workspace.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace grgad {

namespace {

/// Euclidean attribute distance between adjacent nodes.
double AttrDistance(const Graph& g, int u, int v) {
  const double* a = g.attributes().RowPtr(u);
  const double* b = g.attributes().RowPtr(v);
  double s = 0.0;
  for (size_t j = 0; j < g.attr_dim(); ++j) {
    const double d = a[j] - b[j];
    s += d * d;
  }
  return std::sqrt(s);
}

/// Reconstructs the parent-pointer path src -> dst (inclusive); empty when
/// dst unreachable.
std::vector<int> PathFromParents(const std::vector<int>& parent, int src,
                                 int dst) {
  if (parent[dst] == -1) return {};
  std::vector<int> path = {dst};
  for (int u = dst; u != src; u = parent[u]) {
    path.push_back(parent[u]);
    if (path.size() > parent.size()) return {};  // Corrupt parents guard.
  }
  std::reverse(path.begin(), path.end());
  return path;
}

/// PathFromParents over a workspace's stamped parents (same guards).
std::vector<int> PathFromWorkspace(const TraversalWorkspace& ws, int src,
                                   int dst) {
  if (ws.Parent(dst) == -1) return {};
  std::vector<int> path = {dst};
  for (int u = dst; u != src; u = ws.Parent(u)) {
    path.push_back(ws.Parent(u));
    if (path.size() > static_cast<size_t>(ws.size())) return {};
  }
  std::reverse(path.begin(), path.end());
  return path;
}

/// The per-candidate normalization the seed's emit() applied before its
/// dedup check: truncate oversized raw groups (in emission order), sort,
/// drop repeats, and enforce the size bounds. True when the group survives.
bool NormalizeGroup(const GroupSamplerOptions& options,
                    std::vector<int>* group) {
  if (static_cast<int>(group->size()) < options.min_group_size) return false;
  if (static_cast<int>(group->size()) > options.max_group_size) {
    group->resize(options.max_group_size);
  }
  std::sort(group->begin(), group->end());
  group->erase(std::unique(group->begin(), group->end()), group->end());
  return static_cast<int>(group->size()) >= options.min_group_size;
}

/// Seeded uniform subsample when over budget (keeps per-anchor diversity).
void SubsampleIfOver(const GroupSamplerOptions& options,
                     std::vector<std::vector<int>>* out) {
  if (options.max_groups <= 0 ||
      static_cast<int>(out->size()) <= options.max_groups) {
    return;
  }
  Rng rng(options.seed ^ 0x73616d70ULL);
  const auto keep = rng.SampleWithoutReplacement(
      out->size(), static_cast<size_t>(options.max_groups));
  std::vector<size_t> order(keep.begin(), keep.end());
  std::sort(order.begin(), order.end());
  std::vector<std::vector<int>> sampled;
  sampled.reserve(order.size());
  for (size_t idx : order) sampled.push_back(std::move((*out)[idx]));
  *out = std::move(sampled);
}

/// GraphSNN path costs in g.Edges() index order (empty unless requested).
std::vector<double> SnnPathCosts(const Graph& g,
                                 const GroupSamplerOptions& options) {
  if (options.path_mode != PathSearchMode::kGraphSnnWeighted) return {};
  const std::vector<double> snn = GraphSnnEdgeWeights(g, /*lambda=*/1.0);
  std::vector<double> costs(snn.size());
  for (size_t e = 0; e < snn.size(); ++e) {
    costs[e] = 1.0 / (options.graphsnn_cost_eps + snn[e]);
  }
  return costs;
}

/// One anchor's search in Sample(): BFS tree + one weighted search + cycle
/// DFS, all on the two leased workspaces, emitting normalized candidates in
/// exactly the seed's per-anchor order into `out`.
void SampleAnchor(const Graph& g, const GroupSamplerOptions& options,
                  const std::vector<int>& anchors, int anchor_index,
                  bool use_attr_paths, std::span<const double> slot_costs,
                  const std::vector<double>& snn_costs,
                  TraversalWorkspace* bfs_ws, TraversalWorkspace* alt_ws,
                  std::vector<std::vector<int>>* out) {
  const int v = anchors[anchor_index];
  auto emit = [&options, out](std::vector<int> group) {
    if (NormalizeGroup(options, &group)) out->push_back(std::move(group));
  };
  // One BFS serves pair discovery (hop distances) for every µ; the weighted
  // parents come from a single Dijkstra — or, in GraphSNN mode, a single
  // Bellman–Ford (the seed re-ran Bellman–Ford per anchor *pair*).
  BuildBfsTree(g, v, options.pair_radius, bfs_ws);
  bool weighted_ok = true;
  if (use_attr_paths) {
    Dijkstra(g, v, slot_costs, /*max_cost=*/0.0, alt_ws);
  } else if (options.path_mode == PathSearchMode::kGraphSnnWeighted) {
    weighted_ok = BellmanFord(g, v, snn_costs, alt_ws);
  }
  // Nearby anchors, ordered by (weighted or hop) distance.
  std::vector<std::pair<double, int>> nearby;
  for (int mu : anchors) {
    if (mu == v || bfs_ws->Hop(mu) == kUnreachable) continue;
    const double d = use_attr_paths
                         ? alt_ws->Dist(mu)
                         : static_cast<double>(bfs_ws->Hop(mu));
    nearby.emplace_back(d, mu);
  }
  std::sort(nearby.begin(), nearby.end());

  // --- Line 5: PathSearch(v, µ) for the nearest anchors. ---
  std::vector<int> tree_union;
  int fanout_used = 0;
  int paths_emitted = 0;
  for (const auto& [d, mu] : nearby) {
    if (paths_emitted >= options.max_paths_per_anchor) break;
    std::vector<int> path;
    if (use_attr_paths) {
      path = PathFromWorkspace(*alt_ws, v, mu);
    } else if (options.path_mode == PathSearchMode::kGraphSnnWeighted) {
      if (weighted_ok) path = PathFromWorkspace(*alt_ws, v, mu);
    } else {
      path = PathFromWorkspace(*bfs_ws, v, mu);
    }
    if (path.empty() ||
        static_cast<int>(path.size()) > options.max_group_size) {
      continue;
    }
    emit(path);
    ++paths_emitted;
    // --- Line 7: TreeSearch(v, µ): union of the paths to the nearest
    // anchors forms the hierarchical structure between them. ---
    if (fanout_used < options.tree_fanout) {
      tree_union.insert(tree_union.end(), path.begin(), path.end());
      ++fanout_used;
      if (fanout_used >= 2) emit(tree_union);
    }
  }
  // --- Line 10: CycleSearch(v). --- (The weighted results are consumed;
  // the cycle DFS may reuse that workspace.)
  for (const auto& cycle :
       CyclesThrough(g, v, options.cycle_max_len, options.max_cycles_per_anchor,
                     options.cycle_max_steps, alt_ws)) {
    emit(cycle);
  }
}

/// Open-addressed exact-duplicate filter over normalized candidate groups.
/// Replaces the merge's std::set: keys live in the output vector itself
/// (the table stores indices into it), so admitting N candidates costs N
/// hash probes plus the output pushes — no per-distinct-candidate tree-node
/// allocation, the last per-call red-black-tree growth on the hot path.
/// First-occurrence admit order is preserved, which is what the bitwise
/// Sample == SampleReference contract hangs on.
class FlatGroupSet {
 public:
  /// `expected` pre-sizes the table so a normal admit sequence never
  /// rehashes (capacity = next power of two above 2x expected).
  explicit FlatGroupSet(size_t expected) {
    size_t cap = 16;
    while (cap < 2 * (expected + 1)) cap <<= 1;
    slots_.assign(cap, kEmpty);
  }

  /// Appends `group` to `out` iff no equal group was admitted before.
  template <typename G>
  void Admit(G&& group, std::vector<std::vector<int>>* out) {
    if ((size_ + 1) * 10 >= slots_.size() * 7) Rehash(*out);
    const size_t mask = slots_.size() - 1;
    size_t i = Hash(group) & mask;
    while (slots_[i] != kEmpty) {
      if ((*out)[slots_[i]] == group) return;
      i = (i + 1) & mask;
    }
    slots_[i] = static_cast<uint32_t>(out->size());
    out->push_back(std::forward<G>(group));
    ++size_;
  }

 private:
  static constexpr uint32_t kEmpty = 0xffffffffu;

  /// FNV-1a over the group's node ids. Groups are sorted by normalization,
  /// so equal node sets hash (and compare) equal.
  static uint64_t Hash(const std::vector<int>& group) {
    uint64_t h = 14695981039346656037ULL;
    for (int v : group) {
      h ^= static_cast<uint64_t>(static_cast<uint32_t>(v));
      h *= 1099511628211ULL;
    }
    return h;
  }

  void Rehash(const std::vector<std::vector<int>>& out) {
    std::vector<uint32_t> old = std::move(slots_);
    slots_.assign(old.size() * 2, kEmpty);
    const size_t mask = slots_.size() - 1;
    for (uint32_t idx : old) {
      if (idx == kEmpty) continue;
      size_t i = Hash(out[idx]) & mask;
      while (slots_[i] != kEmpty) i = (i + 1) & mask;
      slots_[i] = idx;
    }
  }

  std::vector<uint32_t> slots_;  ///< Index-into-out slots; kEmpty = vacant.
  size_t size_ = 0;
};

/// The sampler's weighted-search workspace pool: these instances carry the
/// worst-case Dijkstra-heap reserve, so they are kept apart from the
/// shared Global() pool whose BFS-only users never need it.
TraversalWorkspacePool& WeightedPool() {
  static TraversalWorkspacePool* pool = new TraversalWorkspacePool();
  return *pool;
}

}  // namespace

GroupSampler::GroupSampler(GroupSamplerOptions options) : options_(options) {}

void GroupSampler::TrimWorkspaces() {
  TraversalWorkspacePool::Global().Trim();
  WeightedPool().Trim();
}

void GroupSampler::PrewarmWorkspaces(const Graph& g,
                                     const GroupSamplerOptions& options,
                                     int count) {
  // Mirror ResampleAnchors' own Prewarm calls exactly: the BFS pool needs
  // n-sized buffers, the weighted pool additionally the worst-case Dijkstra
  // heap reserve when attribute-distance path search is in effect.
  const int instances = std::max(count, ParallelismDegree());
  const bool use_attr_paths =
      options.path_mode == PathSearchMode::kAttributeDistance &&
      g.has_attributes();
  TraversalWorkspacePool::Global().Prewarm(instances, g.num_nodes());
  WeightedPool().Prewarm(
      instances, g.num_nodes(),
      use_attr_paths ? static_cast<size_t>(g.num_adj_slots()) + 1 : 0);
}

std::vector<std::vector<int>> GroupSampler::Sample(
    const Graph& g, const std::vector<int>& anchors) const {
  return Sample(g, anchors, nullptr);
}

std::vector<std::vector<int>> GroupSampler::Sample(
    const Graph& g, const std::vector<int>& anchors,
    SampleTelemetry* telemetry) const {
  // Sample IS resample-everything + finalize: the incremental refresh path
  // reuses the exact same two stages with a smaller index set, which is why
  // its merged output can be bitwise identical to this one.
  std::vector<int> all(anchors.size());
  std::iota(all.begin(), all.end(), 0);
  std::vector<std::vector<std::vector<int>>> per_anchor;
  ResampleAnchors(g, anchors, all, &per_anchor, telemetry);
  return FinalizeCandidates(g, anchors, per_anchor, telemetry);
}

void GroupSampler::ResampleAnchors(
    const Graph& g, const std::vector<int>& anchors,
    const std::vector<int>& anchor_indices,
    std::vector<std::vector<std::vector<int>>>* per_anchor,
    SampleTelemetry* telemetry) const {
  Timer phase_timer;
  for (int a : anchors) GRGAD_CHECK(a >= 0 && a < g.num_nodes());
  for (int idx : anchor_indices) {
    GRGAD_CHECK(idx >= 0 && idx < static_cast<int>(anchors.size()));
  }
  per_anchor->resize(anchors.size());

  const std::vector<double> snn_costs = SnnPathCosts(g, options_);
  const bool use_attr_paths =
      options_.path_mode == PathSearchMode::kAttributeDistance &&
      g.has_attributes();
  // Per-adjacency-slot Dijkstra costs, computed ONCE per call: the seed
  // re-evaluated the eps + ||x_u - x_v|| functor (a d-dim norm) on every
  // relaxation attempt of every anchor's Dijkstra. Slot (u, i) holds the
  // exact value the seed would compute relaxing u -> Neighbors(u)[i].
  std::vector<double> slot_costs;
  if (use_attr_paths) {
    slot_costs.resize(g.num_adj_slots());
    ParallelFor(static_cast<size_t>(g.num_nodes()), 64,
                [&](size_t begin, size_t end) {
                  for (size_t u = begin; u < end; ++u) {
                    auto nb = g.Neighbors(static_cast<int>(u));
                    double* costs =
                        slot_costs.data() + g.AdjOffset(static_cast<int>(u));
                    for (size_t i = 0; i < nb.size(); ++i) {
                      costs[i] = options_.attribute_cost_eps +
                                 AttrDistance(g, static_cast<int>(u), nb[i]);
                    }
                  }
                });
  }

  // --- candidates/search: anchors fan out over the persistent pool with
  // leased per-worker workspaces (two per chunk: BFS + weighted/cycles).
  // The two roles lease from separate pools so only the weighted pool pays
  // the worst-case Dijkstra-heap reserve (~2E entries; the bound keeps the
  // steady state allocation-free no matter which worker leases which
  // workspace, and BFS-only workspaces never carry it). Chunk partitioning
  // never changes per-anchor results, so the merge below is bitwise
  // identical at any GRGAD_THREADS. ---
  TraversalWorkspacePool& bfs_pool = TraversalWorkspacePool::Global();
  TraversalWorkspacePool& weighted_pool = WeightedPool();
  bfs_pool.Prewarm(ParallelismDegree(), g.num_nodes());
  weighted_pool.Prewarm(
      ParallelismDegree(), g.num_nodes(),
      use_attr_paths ? static_cast<size_t>(g.num_adj_slots()) + 1 : 0);
  ParallelFor(anchor_indices.size(), 1, [&](size_t begin, size_t end) {
    TraversalWorkspacePool::Lease bfs_ws = bfs_pool.Acquire();
    TraversalWorkspacePool::Lease alt_ws = weighted_pool.Acquire();
    for (size_t i = begin; i < end; ++i) {
      // Stop poll per anchor: a fired token (deadline, cancel) abandons the
      // remaining chunk; the caller sees stop_requested() and discards the
      // partial result, so skipped anchors never surface.
      if (options_.cancel.stop_requested()) return;
      const int ai = anchor_indices[i];
      std::vector<std::vector<int>>& list = (*per_anchor)[ai];
      list.clear();
      SampleAnchor(g, options_, anchors, ai, use_attr_paths, slot_costs,
                   snn_costs, bfs_ws.get(), alt_ws.get(), &list);
    }
  });
  if (telemetry != nullptr) {
    telemetry->search_seconds = phase_timer.ElapsedSeconds();
  }
}

std::vector<std::vector<int>> GroupSampler::FinalizeCandidates(
    const Graph& g, const std::vector<int>& anchors,
    const std::vector<std::vector<std::vector<int>>>& per_anchor,
    SampleTelemetry* telemetry) const {
  Timer phase_timer;
  GRGAD_CHECK_EQ(per_anchor.size(), anchors.size());

  // --- candidates/components: bridged connected components of the anchor
  // set (extension), workspace-backed. ---
  std::vector<std::vector<int>> component_groups;
  if (options_.include_anchor_components) {
    std::vector<uint8_t> is_anchor(g.num_nodes(), 0);
    for (int a : anchors) is_anchor[a] = 1;
    std::vector<int> expanded = anchors;
    for (int u = 0; u < g.num_nodes(); ++u) {
      if (is_anchor[u]) continue;
      int anchor_neighbors = 0;
      for (int w : g.Neighbors(u)) anchor_neighbors += is_anchor[w];
      if (anchor_neighbors >= 2) expanded.push_back(u);
    }
    std::sort(expanded.begin(), expanded.end());
    TraversalWorkspacePool::Lease ws =
        TraversalWorkspacePool::Global().Acquire();
    for (auto& component : ComponentsOfSubset(g, expanded, ws.get())) {
      if (NormalizeGroup(options_, &component)) {
        component_groups.push_back(std::move(component));
      }
    }
  }
  if (telemetry != nullptr) {
    telemetry->components_seconds = phase_timer.ElapsedSeconds();
    phase_timer.Reset();
  }

  // --- candidates/select: deterministic ascending-anchor merge. Replaying
  // the per-anchor candidate lists in anchor order through the global dedup
  // reproduces the seed's single-threaded emission stream bit for bit. The
  // per-anchor lists are copied in, never consumed: the refresh path keeps
  // them cached and replays this merge after every delta. ---
  size_t total = component_groups.size();
  for (const auto& list : per_anchor) total += list.size();
  std::vector<std::vector<int>> out;
  // Pre-reserve from the exact pre-dedup candidate count (dedup only
  // shrinks), instead of growing through repeated reallocation.
  out.reserve(total);
  FlatGroupSet seen(total);
  for (const auto& list : per_anchor) {
    for (const auto& group : list) seen.Admit(group, &out);
  }
  for (auto& group : component_groups) seen.Admit(std::move(group), &out);
  SubsampleIfOver(options_, &out);
  if (telemetry != nullptr) {
    telemetry->select_seconds = phase_timer.ElapsedSeconds();
  }
  return out;
}

std::vector<std::vector<int>> GroupSampler::SampleReference(
    const Graph& g, const std::vector<int>& anchors) const {
  std::vector<std::vector<int>> out;
  FlatGroupSet seen(/*expected=*/64);  // Exact-duplicate filter; grows.
  // Same normalization helper + dedup structure as Sample — the bitwise
  // Sample == SampleReference contract hangs on the two sharing them.
  auto emit = [&](std::vector<int> group) {
    if (NormalizeGroup(options_, &group)) seen.Admit(std::move(group), &out);
  };

  std::vector<uint8_t> is_anchor(g.num_nodes(), 0);
  for (int a : anchors) {
    GRGAD_CHECK(a >= 0 && a < g.num_nodes());
    is_anchor[a] = 1;
  }

  const std::vector<double> snn_costs = SnnPathCosts(g, options_);
  const bool use_attr_paths =
      options_.path_mode == PathSearchMode::kAttributeDistance &&
      g.has_attributes();
  auto attr_cost = [&g, this](int u, int v) {
    return options_.attribute_cost_eps + AttrDistance(g, u, v);
  };

  for (int v : anchors) {
    // Stop poll per anchor (see ResampleAnchors): partial output is
    // discarded by the caller once it observes the fired token.
    if (options_.cancel.stop_requested()) break;
    // One BFS serves pair discovery (hop distances) for every µ; the
    // weighted parents come from a single Dijkstra per anchor.
    const BfsTree bfs = BuildBfsTree(g, v, options_.pair_radius);
    std::vector<double> wdist;
    std::vector<int> wparent;
    if (use_attr_paths) {
      Dijkstra(g, v, attr_cost, &wdist, &wparent);
    }
    // Nearby anchors, ordered by (weighted or hop) distance.
    std::vector<std::pair<double, int>> nearby;
    for (int mu : anchors) {
      if (mu == v || bfs.depth[mu] == kUnreachable) continue;
      const double d = use_attr_paths ? wdist[mu]
                                      : static_cast<double>(bfs.depth[mu]);
      nearby.emplace_back(d, mu);
    }
    std::sort(nearby.begin(), nearby.end());

    // --- Line 5: PathSearch(v, µ) for the nearest anchors. ---
    std::vector<int> tree_union;
    int fanout_used = 0;
    int paths_emitted = 0;
    for (const auto& [d, mu] : nearby) {
      if (paths_emitted >= options_.max_paths_per_anchor) break;
      std::vector<int> path;
      if (use_attr_paths) {
        path = PathFromParents(wparent, v, mu);
      } else if (options_.path_mode == PathSearchMode::kGraphSnnWeighted) {
        path = BellmanFordPath(g, v, mu, snn_costs);
      } else {
        path = PathFromParents(bfs.parent, v, mu);
      }
      if (path.empty() ||
          static_cast<int>(path.size()) > options_.max_group_size) {
        continue;
      }
      emit(path);
      ++paths_emitted;
      // --- Line 7: TreeSearch(v, µ): union of the paths to the nearest
      // anchors forms the hierarchical structure between them. ---
      if (fanout_used < options_.tree_fanout) {
        tree_union.insert(tree_union.end(), path.begin(), path.end());
        ++fanout_used;
        if (fanout_used >= 2) emit(tree_union);
      }
    }
    // --- Line 10: CycleSearch(v). ---
    const auto cycles = CyclesThrough(g, v, options_.cycle_max_len,
                                      options_.max_cycles_per_anchor,
                                      options_.cycle_max_steps);
    for (const auto& cycle : cycles) emit(cycle);
  }

  // --- Extension: bridged connected components of the anchor set. ---
  if (options_.include_anchor_components) {
    std::vector<int> expanded = anchors;
    for (int u = 0; u < g.num_nodes(); ++u) {
      if (is_anchor[u]) continue;
      int anchor_neighbors = 0;
      for (int w : g.Neighbors(u)) anchor_neighbors += is_anchor[w];
      if (anchor_neighbors >= 2) expanded.push_back(u);
    }
    std::sort(expanded.begin(), expanded.end());
    for (auto& component : ComponentsOfSubset(g, expanded)) {
      emit(std::move(component));
    }
  }
  SubsampleIfOver(options_, &out);
  return out;
}

}  // namespace grgad
