#include "pipeline.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "coarsening/contraction.h"
#include "coarsening/lp_clustering.h"
#include "common/random.h"
#include "compression/compressed_graph.h"
#include "initial/initial_partitioner.h"
#include "parallel/scheduler.h"
#include "partition/engine_registry.h"
#include "partition/metrics.h"
#include "partition/partitioned_graph.h"
#include "refinement/lp_refiner.h"
#include "refinement/rebalancer.h"

namespace terabench {

using terapart::BlockWeight;
using terapart::ClusterID;
using terapart::CompressedGraph;
using terapart::Context;
using terapart::CsrGraph;
using terapart::MultilevelHierarchy;
using terapart::NodeWeight;
using terapart::PartitionedGraph;
using terapart::SeedSequence;

namespace {

void require_reproducible_engines(const Context &ctx) {
  const std::string refinement = terapart::resolved_refinement_engine(ctx);
  if (ctx.coarsening_engine != "lp" || ctx.initial_engine != "bisection" ||
      (refinement != "lp" && refinement != "lp+fm")) {
    throw std::invalid_argument("terabench composes only the lp / bisection / lp[+fm] engines");
  }
}

/// One refinement engine pass (refinement/refinement_engine.cc).
template <typename Graph>
void refine(const Graph &graph, PartitionedGraph &partitioned, const BlockWeight bound,
            const Context &ctx, const std::uint64_t seed, const int level, Tracer *tracer) {
  traced(tracer, "lp_refine", level,
         [&] { return terapart::lp_refine(graph, partitioned, bound, ctx.lp_refinement, seed); });
  if (terapart::resolved_refinement_engine(ctx) == "lp+fm") {
    traced(tracer, "fm_refine", level, [&] {
      return terapart::fm_refine(graph, partitioned, bound, ctx.fm, SeedSequence::fm_stage(seed));
    });
    traced(tracer, "rebalance", level,
           [&] { return terapart::rebalance(graph, partitioned, bound); });
  }
}

/// The stage's level bound: it must admit the level's heaviest vertex.
template <typename Graph>
BlockWeight level_bound(const Graph &graph, const BlockWeight max_block_weight) {
  return std::max<BlockWeight>(max_block_weight, graph.max_node_weight());
}

/// Projects `coarse` through `mapping` onto `finer` and wraps it for
/// refinement.
template <typename Graph>
PartitionedGraph project(const Graph &finer, const std::vector<NodeID> &mapping,
                         const std::vector<BlockID> &coarse, const BlockID k) {
  std::vector<BlockID> partition(finer.n());
  terapart::par::for_each_dynamic<NodeID>(0, finer.n(),
                                          [&](const NodeID u) { partition[u] = coarse[mapping[u]]; });
  return PartitionedGraph(finer, k, std::move(partition));
}

} // namespace

template <typename Graph>
terapart::GraphHierarchy compose_coarsening(const Graph &graph, const Context &ctx,
                                            Tracer *tracer) {
  require_reproducible_engines(ctx);
  // CoarsenStage::run and coarsen(): the pinned k and seed, the stopping
  // size, U = epsilon * W / k, and the per-level seed `coarsening() + level`.
  const BlockID k = ctx.hierarchy_k != 0 ? ctx.hierarchy_k : std::max<BlockID>(1, ctx.k);
  const std::uint64_t seed = SeedSequence(ctx.hierarchy_seed.value_or(ctx.seed)).coarsening();
  const terapart::CoarseningConfig &config = ctx.coarsening;
  const NodeID target_n = std::min<NodeID>(config.contraction_limit_factor * std::max<BlockID>(2, k),
                                           std::max<NodeID>(config.min_coarsest_n, 2 * k));

  terapart::GraphHierarchy hierarchy;
  int level = 0;
  const auto step = [&](const auto &current) -> bool {
    if (current.n() <= target_n || level >= config.max_levels) {
      return false;
    }
    const auto max_cluster_weight = std::max<NodeWeight>(
        1, static_cast<NodeWeight>(config.epsilon *
                                   static_cast<double>(current.total_node_weight()) /
                                   static_cast<double>(std::max<BlockID>(k, 2))));
    terapart::LpClusteringStats stats;
    const std::vector<ClusterID> clustering = traced(tracer, "lp_cluster", level, [&] {
      return terapart::lp_cluster(current, config.lp, max_cluster_weight,
                                  seed + static_cast<std::uint64_t>(level), &stats);
    });
    hierarchy.clustering_stats.bumped_vertices += stats.bumped_vertices;
    hierarchy.clustering_stats.moves += stats.moves;
    terapart::ContractionResult result = traced(tracer, "contract_clustering", level, [&] {
      return terapart::contract_clustering(current, clustering, config.contraction);
    });
    hierarchy.degraded_contraction |= result.degraded_buffered_fallback;
    const NodeID coarse_n = result.graph.n();
    const bool converged =
        coarse_n >= static_cast<NodeID>(config.convergence_threshold * current.n());
    if (converged && coarse_n >= current.n()) {
      return false;
    }
    hierarchy.graphs.push_back(std::move(result.graph));
    hierarchy.mappings.push_back(std::move(result.mapping));
    ++level;
    return !converged;
  };
  if (step(graph)) {
    while (step(hierarchy.graphs.back())) {
    }
  }
  return hierarchy;
}

template <typename Graph>
ComposedRun compose_partition(const Graph &graph, const Context &ctx,
                              const MultilevelHierarchy &hierarchy, Tracer *tracer) {
  require_reproducible_engines(ctx);
  ComposedRun run;
  const BlockID k = std::max<BlockID>(1, ctx.k);
  run.levels.emplace_back(graph.n(), graph.m());
  for (std::size_t level = 0; level < hierarchy.num_levels(); ++level) {
    run.levels.emplace_back(hierarchy.graph(level).n(), hierarchy.graph(level).m());
  }
  if (graph.n() == 0 || k == 1) {
    run.partition.assign(graph.n(), 0);
    run.balanced = true;
    return run;
  }
  const SeedSequence seeds(ctx.seed);
  const BlockWeight max_block_weight =
      terapart::metrics::max_block_weight(graph.total_node_weight(), k, ctx.epsilon);
  const std::size_t num_levels = hierarchy.num_levels();
  const int coarsest_level = static_cast<int>(num_levels);

  std::vector<BlockID> partition;
  if (!hierarchy.empty()) {
    const CsrGraph &coarsest = hierarchy.coarsest();
    partition = traced(tracer, "initial_partition", coarsest_level, [&] {
      return terapart::initial_partition(coarsest, k, ctx.epsilon, ctx.initial,
                                         seeds.initial_partitioning());
    });
    run.initial_cut = terapart::metrics::edge_cut(coarsest, partition);

    // UncoarsenStage::run: refine the coarsest level, then project and
    // refine down to level 1, then project onto the input graph.
    PartitionedGraph coarsest_partitioned = traced(tracer, "project", coarsest_level, [&] {
      return PartitionedGraph(coarsest, k, std::move(partition));
    });
    refine(coarsest, coarsest_partitioned, level_bound(coarsest, max_block_weight), ctx,
           seeds.refinement(num_levels, num_levels), coarsest_level, tracer);
    partition = coarsest_partitioned.take_partition();
    for (std::size_t level = num_levels; level-- > 1;) {
      const CsrGraph &finer = hierarchy.graph(level - 1);
      PartitionedGraph partitioned = traced(tracer, "project", static_cast<int>(level), [&] {
        return project(finer, hierarchy.mapping(level), partition, k);
      });
      refine(finer, partitioned, level_bound(finer, max_block_weight), ctx,
             seeds.refinement(level, num_levels), static_cast<int>(level), tracer);
      partition = partitioned.take_partition();
    }
  } else {
    // No hierarchy: the initial partitioner runs on the input itself, which
    // InitialStage materializes as CSR when it is compressed.
    partition = traced(tracer, "initial_partition", 0, [&] {
      if constexpr (Graph::is_compressed()) {
        const CsrGraph materialized = terapart::decompress_graph(graph, "graph/initial");
        return terapart::initial_partition(materialized, k, ctx.epsilon, ctx.initial,
                                           seeds.initial_partitioning());
      } else {
        return terapart::initial_partition(graph, k, ctx.epsilon, ctx.initial,
                                           seeds.initial_partitioning());
      }
    });
    run.initial_cut = terapart::metrics::edge_cut(graph, partition);
  }

  PartitionedGraph partitioned = traced(tracer, "project", 0, [&] {
    return hierarchy.empty() ? PartitionedGraph(graph, k, std::move(partition))
                             : project(graph, hierarchy.mapping(0), partition, k);
  });
  refine(graph, partitioned, max_block_weight, ctx, seeds.refinement(0, num_levels), 0, tracer);
  // Balance is mandatory on the input graph.
  traced(tracer, "rebalance", 0,
         [&] { return terapart::rebalance(graph, partitioned, max_block_weight); });
  run.partition = partitioned.take_partition();
  run.cut = terapart::metrics::edge_cut(graph, run.partition);
  const auto weights = terapart::metrics::block_weights(graph, run.partition, k);
  run.balanced = terapart::metrics::is_balanced(weights, graph.total_node_weight(), k, ctx.epsilon);
  return run;
}

template terapart::GraphHierarchy compose_coarsening<CsrGraph>(const CsrGraph &, const Context &,
                                                               Tracer *);
template terapart::GraphHierarchy compose_coarsening<CompressedGraph>(const CompressedGraph &,
                                                                      const Context &, Tracer *);
template ComposedRun compose_partition<CsrGraph>(const CsrGraph &, const Context &,
                                                 const MultilevelHierarchy &, Tracer *);
template ComposedRun compose_partition<CompressedGraph>(const CompressedGraph &, const Context &,
                                                        const MultilevelHierarchy &, Tracer *);

} // namespace terabench
