/// @file pipeline.h
/// @brief The traced composition: the multilevel pipeline driven from the
/// benchmark through each layer's public entry point, with a span around
/// every call.
///
/// It reproduces `run_multilevel_pipeline` (partition/stages.cc) with the
/// engines the presets select: `coarsen()`'s level loop and stop rules, the
/// recursive-bisection initial partitioner, and the "lp" or "lp+fm"
/// refinement stack, all seeded through `SeedSequence`. The p=1 parity check
/// (`check_parity` in workloads.h) holds it bit-identical to `Partitioner`
/// and `PartitionSession`, so the per-layer numbers come from the same
/// program as the end-to-end ones.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "coarsening/coarsener.h"
#include "coarsening/multilevel_hierarchy.h"
#include "partition/context.h"
#include "trace.h"

namespace terabench {

using terapart::BlockID;
using terapart::EdgeID;
using terapart::EdgeWeight;
using terapart::NodeID;

/// (n, m) of one graph of the hierarchy; m counts directed edges as
/// `CsrGraph::m()` does.
using LevelShape = std::pair<NodeID, EdgeID>;

struct ComposedRun {
  std::vector<BlockID> partition;
  EdgeWeight cut = 0;
  /// Cut of the initial partition on the coarsest graph. Projection keeps a
  /// cut, so this is also the cut refinement starts from on the input graph.
  EdgeWeight initial_cut = 0;
  bool balanced = false;
  /// The input graph, then every coarse level, coarsest last (the layout of
  /// `PartitionResult::levels`).
  std::vector<LevelShape> levels;
};

/// The hierarchy the "lp" coarsening engine builds for `ctx` (pinned k and
/// seed included), with spans "lp_cluster" and "contract_clustering" at
/// every level. Throws std::invalid_argument for a context whose engines the
/// composition does not reproduce.
template <typename Graph>
[[nodiscard]] terapart::GraphHierarchy compose_coarsening(const Graph &graph,
                                                          const terapart::Context &ctx,
                                                          Tracer *tracer);

/// Initial partitioning and uncoarsening against `hierarchy`, with spans
/// "initial_partition", "project", "lp_refine", "fm_refine" and "rebalance".
template <typename Graph>
[[nodiscard]] ComposedRun compose_partition(const Graph &graph, const terapart::Context &ctx,
                                            const terapart::MultilevelHierarchy &hierarchy,
                                            Tracer *tracer);

} // namespace terabench
