/// @file workloads.h
/// @brief The three workloads, their pinned inputs, the timed closed loop,
/// the traced run and the p=1 parity check.
///
/// Workloads (one caller; the next op starts when the previous returns):
///  - web: a compressible web-like graph at k=64, preset terapart. One op
///    compresses the in-memory CSR and partitions the compressed graph, the
///    paper's default path. FM is bypassed.
///  - rhg-dense: a power-law graph whose coarsening stalls on a nearly dense
///    coarsest graph, so sequential initial partitioning dominates. Its hubs
///    (degree up to about 9.7k) stay just under the default LP bump
///    threshold of 10,000, so coarsening.lp.bumped_vertices reads 0 here
///    unless that threshold or the generator changes. Same op as web.
///  - web-strong-serve: the web graph, compressed once, served by a
///    PartitionSession with preset strong (LP+FM, sparse gain tables) whose
///    hierarchy is built during set-up. One op is one request, cycling
///    k = 8, 16, 32, 64, so compression and coarsening are skipped and
///    initial partitioning and FM dominate. Its time and cut samples are
///    whole cycles of k.
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "graph/csr_graph.h"
#include "partition/facade.h"

namespace terabench {

/// n, m (directed, as CsrGraph::m()) and a hash of the CSR arrays.
struct InputIdentity {
  terapart::NodeID n = 0;
  terapart::EdgeID m = 0;
  std::uint64_t hash = 0;

  friend bool operator==(const InputIdentity &, const InputIdentity &) = default;
};

struct WorkloadSpec {
  std::string_view name;
  /// Generator spec with every parameter spelled out, so a change of a
  /// parser default cannot silently change the input.
  std::string_view graph;
  std::uint64_t graph_seed = 1;
  terapart::Preset preset = terapart::Preset::kTeraPart;
  terapart::BlockID k = 64; ///< for a served workload, the session's base k
  double epsilon = 0.03;
  /// Served by a PartitionSession: one op is one request, k cycling through
  /// kServedKs.
  bool served = false;
  /// The input this spec must generate; any other input is an error.
  InputIdentity expected;
};

inline constexpr terapart::BlockID kServedKs[] = {8, 16, 32, 64};

/// The workload named `name` at full or smoke size; nullptr if unknown.
[[nodiscard]] const WorkloadSpec *find_workload(std::string_view name, bool smoke);
[[nodiscard]] std::vector<std::string_view> workload_names();

[[nodiscard]] InputIdentity identify(const terapart::CsrGraph &graph);

/// Generates the workload's graph, accounted under "bench/source" in the
/// MemoryTracker so that peaks can exclude it, and checks its identity.
/// Throws std::runtime_error on an identity mismatch.
[[nodiscard]] terapart::CsrGraph make_source(const WorkloadSpec &spec);

/// Partitioner seed of op `op` of a run with workload seed `seed`.
[[nodiscard]] std::uint64_t op_seed(std::uint64_t seed, std::uint64_t op);

/// The context of an op: the workload's preset, k, epsilon and `threads`.
[[nodiscard]] terapart::Context make_context(const WorkloadSpec &spec, terapart::BlockID k,
                                             std::uint64_t seed, int threads);

/// Output checks of one op: balance, `validate_partition` against the input
/// CSR with the reported cut recomputed. Returns an empty string when valid.
[[nodiscard]] std::string check_output(const terapart::CsrGraph &source,
                                       std::span<const terapart::BlockID> partition,
                                       terapart::BlockID k, terapart::EdgeWeight cut,
                                       bool balanced);

/// Runs the traced composition and the public entry points side by side at
/// p=1 on `spec` and compares partitions, cuts and every level's (n, m).
/// Returns an empty string on parity, otherwise what differed.
[[nodiscard]] std::string check_parity(const WorkloadSpec &spec, std::uint64_t seed);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOptions {
  const WorkloadSpec *spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 4;
  /// Where the traced run writes its spans (empty: not written).
  std::filesystem::path trace_out;
};

struct RunOutcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t degraded = 0;
  std::vector<std::string> errors;
  InputIdentity input;
  /// Wall seconds of every untraced op, in run order.
  std::vector<double> op_seconds;
  std::vector<Metric> metrics;
};

/// One benchmark run: set-up, then the closed loop for `seconds`. Untraced,
/// ops go through Partitioner / PartitionSession and the end-to-end metrics
/// are reported; traced, the parity check runs first and ops alternate
/// between the traced composition and the untraced path, and the per-layer
/// metrics are reported.
[[nodiscard]] RunOutcome run_workload(const RunOptions &options);

} // namespace terabench
