// Candidate-group sampling (paper Alg. 1): starting from MH-GAE's anchor
// nodes, sample path, tree, and cycle groups that may be anomalous.
//
// For every anchor pair (v, µ) within reach: PathSearch finds the cheapest
// v–µ path — by hop count, or (default) by attribute-distance edge costs
// via Dijkstra, the weighted-search reading of the paper's Bellman–Ford
// citation (criminal groups share coherent attributes, so cheap edges trace
// the group instead of shortcutting through the background). TreeSearch
// emits the union of the search-tree paths from v to its nearest anchors —
// the hierarchical structure *between* anchors. CycleSearch enumerates
// simple cycles through each anchor. Additionally (extension, on by
// default), the connected components of the anchor set itself — bridged
// across single non-anchor gaps — are emitted, mirroring how Sub-GAD
// methods consolidate anomalous nodes.
//
// Overlapping and near-duplicate candidates are intentionally kept (§V-C1
// notes they help TPGCL); only exact duplicates are dropped. When more than
// `max_groups` candidates accumulate, a seeded uniform subsample is
// returned so every anchor contributes, rather than truncating the anchor
// loop.
//
// Execution: anchors fan out over the persistent thread pool with pooled
// per-worker TraversalWorkspaces, per-adjacency-slot Dijkstra costs
// precomputed once per call, and one Bellman–Ford per anchor; per-anchor
// candidate lists are then merged in ascending anchor order, so the output
// — groups, order, and the seeded subsample draw — is bitwise identical to
// the frozen serial seed loop (GroupSampler::SampleReference) at any
// GRGAD_THREADS (tests/candidate_determinism_test.cc).
#ifndef GRGAD_SAMPLING_GROUP_SAMPLER_H_
#define GRGAD_SAMPLING_GROUP_SAMPLER_H_

#include <vector>

#include "src/graph/graph.h"
#include "src/util/cancel.h"

namespace grgad {

/// Path-search edge-cost mode.
enum class PathSearchMode {
  kUnweighted,          ///< Hop count (BFS back-pointers).
  kAttributeDistance,   ///< Dijkstra with cost eps + ||x_u - x_v||.
  kGraphSnnWeighted,    ///< Bellman–Ford with cost 1 / (eps + Ã_uv).
};

/// Alg. 1 knobs.
struct GroupSamplerOptions {
  /// Tree search: union of paths from an anchor to its `tree_fanout`
  /// nearest anchors (within pair_radius hops).
  int tree_fanout = 10;
  /// Path candidates emitted per anchor (nearest anchors first); keeps the
  /// candidate pool from being dominated by one dense anchor cluster.
  int max_paths_per_anchor = 8;
  /// Candidate size bounds; larger path/tree results are truncated.
  int min_group_size = 3;
  int max_group_size = 32;
  /// Cycle search: maximum cycle length, per-anchor cycle budget, and a DFS
  /// step budget per anchor (simple-path enumeration is exponential in
  /// cycle_max_len on dense regions; the budget truncates deterministically).
  int cycle_max_len = 12;
  int max_cycles_per_anchor = 16;
  int64_t cycle_max_steps = 60000;
  /// Anchor pairs are only expanded when within this hop distance (pairs
  /// farther apart than the size cap cannot yield a valid group).
  int pair_radius = 32;
  /// Cap on returned candidates (0 = unlimited); enforced by seeded
  /// subsampling, not by truncating the anchor loop.
  int max_groups = 2048;
  /// Seed for the subsampling draw.
  uint64_t seed = 13;
  /// Path-search cost model.
  PathSearchMode path_mode = PathSearchMode::kAttributeDistance;
  double attribute_cost_eps = 0.25;
  double graphsnn_cost_eps = 0.25;
  /// Extension: also emit connected components of the anchor set, bridging
  /// single non-anchor gaps between two anchors.
  bool include_anchor_components = true;
  /// Cooperative stop token, polled once per anchor. When it fires mid-call
  /// the sampler abandons the remaining anchors and returns early; the
  /// partial result must not be consumed — callers that handed out the
  /// token check stop_requested() and unwind (the pipeline maps the reason
  /// to a typed Status).
  CancelToken cancel;
};

/// Optional per-phase wall-time breakdown of one Sample() call, surfaced by
/// the candidate stage as "candidates/*" sub-stage timings under --profile.
struct SampleTelemetry {
  double search_seconds = 0.0;      ///< Per-anchor traversal fan-out.
  double components_seconds = 0.0;  ///< Anchor-component extension.
  double select_seconds = 0.0;      ///< Dedup merge + seeded subsample.
};

/// Candidate-group sampler (Alg. 1).
class GroupSampler {
 public:
  explicit GroupSampler(GroupSamplerOptions options = {});

  /// Samples candidate groups from `anchors`; each group is a sorted list of
  /// node ids in `g`. Exact duplicates are removed; overlaps are kept.
  std::vector<std::vector<int>> Sample(const Graph& g,
                                       const std::vector<int>& anchors) const;

  /// Sample with an optional per-phase timing breakdown (nullptr skips the
  /// clock reads entirely).
  std::vector<std::vector<int>> Sample(const Graph& g,
                                       const std::vector<int>& anchors,
                                       SampleTelemetry* telemetry) const;

  /// Sample()'s per-anchor fan-out, restricted to `anchor_indices`:
  /// recomputes the pre-dedup candidate lists of exactly those anchors into
  /// (*per_anchor)[index] (the outer vector is resized to anchors.size();
  /// entries of untouched anchors are preserved). This is the building
  /// block the incremental-refresh path uses to re-sample only dirty
  /// anchors while reusing cached lists for the clean ones —
  /// ResampleAnchors over ALL indices followed by FinalizeCandidates is
  /// exactly Sample(), so a cached-plus-dirty merge is bitwise identical
  /// to a from-scratch Sample() at any GRGAD_THREADS.
  void ResampleAnchors(
      const Graph& g, const std::vector<int>& anchors,
      const std::vector<int>& anchor_indices,
      std::vector<std::vector<std::vector<int>>>* per_anchor,
      SampleTelemetry* telemetry = nullptr) const;

  /// Sample()'s tail over (possibly cached) per-anchor candidate
  /// lists: the anchor-component extension, the deterministic
  /// ascending-anchor dedup merge, and the seeded subsample. Pure over its
  /// inputs — the per-anchor lists are copied, never consumed, so callers
  /// can keep them cached across refreshes.
  std::vector<std::vector<int>> FinalizeCandidates(
      const Graph& g, const std::vector<int>& anchors,
      const std::vector<std::vector<std::vector<int>>>& per_anchor,
      SampleTelemetry* telemetry = nullptr) const;

  /// Releases the pooled traversal workspaces (the shared BFS pool and the
  /// sampler's weighted-search pool), dropping buffer capacity retained
  /// from the largest graph sampled so far. For long-lived processes
  /// switching to much smaller graphs; the next Sample() re-warms.
  static void TrimWorkspaces();

  /// Pre-grows both pools for `g`-sized traversals under `options` — the
  /// exact Prewarm calls Sample() issues, so a subsequent
  /// Sample() over `g` performs zero workspace heap allocations
  /// (TraversalWorkspace::TotalHeapAllocs stays flat). `count` below the
  /// parallelism degree is raised to it: Sample() leases one workspace pair
  /// per worker, so fewer instances would still grow on the first call.
  /// Call with no leases outstanding.
  static void PrewarmWorkspaces(const Graph& g,
                                const GroupSamplerOptions& options, int count);

  /// The frozen serial seed sampler: one anchor at a time, fresh traversal
  /// buffers per call, per-pair Bellman–Ford. Output is bitwise identical
  /// to Sample(); kept only as the comparison side of the determinism
  /// tests and micro_benchmarks. Never call it from product code.
  std::vector<std::vector<int>> SampleReference(
      const Graph& g, const std::vector<int>& anchors) const;

 private:
  GroupSamplerOptions options_;
};

}  // namespace grgad

#endif  // GRGAD_SAMPLING_GROUP_SAMPLER_H_
