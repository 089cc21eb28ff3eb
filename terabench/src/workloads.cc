#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>

#include "common/memory_tracker.h"
#include "common/random.h"
#include "compression/parallel_compressor.h"
#include "generators/generators.h"
#include "parallel/thread_pool.h"
#include "partition/validation.h"
#include "pipeline.h"
#include "stats.h"

namespace terabench {

using terapart::BlockID;
using terapart::CompressedGraph;
using terapart::Context;
using terapart::CsrGraph;
using terapart::MemoryTracker;
using terapart::MultilevelHierarchy;
using terapart::PartitionResult;
using terapart::PartitionSession;
using terapart::Preset;

namespace {

using Clock = std::chrono::steady_clock;
constexpr double kMiB = 1024.0 * 1024.0;
constexpr const char *kSourceCategory = "bench/source";
/// Untraced runs set up this many times; setup_s is the median.
constexpr int kSetupReps = 3;

double seconds_since(const Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// The web graph is shared by web and web-strong-serve. The pinned identities
// were recorded from these specs with graph seed 1.
constexpr WorkloadSpec kFull[] = {
    {"web", "gen:weblike:n=400000,deg=16,intra=0.75,host=64", 1, Preset::kTeraPart, 64, 0.03,
     false, {400000, 5212086, 0x463b2e0af1f00d8dULL}},
    {"rhg-dense", "gen:rhg:n=400000,deg=16,gamma=2.8,locality=0.5", 1, Preset::kTeraPart, 64,
     0.03, false, {400000, 6209070, 0xcaa0a99abbe7b101ULL}},
    {"web-strong-serve", "gen:weblike:n=400000,deg=16,intra=0.75,host=64", 1, Preset::kStrong,
     64, 0.03, true, {400000, 5212086, 0x463b2e0af1f00d8dULL}},
};

constexpr WorkloadSpec kSmoke[] = {
    {"web", "gen:weblike:n=20000,deg=16,intra=0.75,host=64", 1, Preset::kTeraPart, 64, 0.03,
     false, {20000, 261454, 0xf2b338ff6f0a3aa9ULL}},
    {"rhg-dense", "gen:rhg:n=20000,deg=16,gamma=2.8,locality=0.5", 1, Preset::kTeraPart, 64,
     0.03, false, {20000, 309466, 0xae94ade3af1f675bULL}},
    {"web-strong-serve", "gen:weblike:n=20000,deg=16,intra=0.75,host=64", 1, Preset::kStrong, 64,
     0.03, true, {20000, 261454, 0xf2b338ff6f0a3aa9ULL}},
};

template <typename T> std::vector<T> to_vector(const std::span<const T> values) {
  return std::vector<T>(values.begin(), values.end());
}

void hash_words(std::uint64_t &hash, const auto span) {
  for (const auto word : span) {
    hash ^= static_cast<std::uint64_t>(word);
    hash *= 0x100000001b3ULL; // FNV-1a over whole words
  }
}

/// Everything an op runs against, built once per set-up.
struct Setup {
  CsrGraph source;
  /// Served workloads: the graph compressed once, the session over it, and
  /// (traced runs) the hierarchy built by the traced composition.
  std::unique_ptr<CompressedGraph> compressed;
  std::unique_ptr<PartitionSession> session;
  std::unique_ptr<MultilevelHierarchy> composed_hierarchy;
};

struct OpSample {
  std::uint64_t op = 0;
  double seconds = 0.0;
  double peak_bytes = 0.0;
  terapart::EdgeWeight cut = 0;
  bool degraded = false;
  std::string error; ///< empty when the output checks passed
};

double peak_without_source() {
  const MemoryTracker &tracker = MemoryTracker::global();
  return static_cast<double>(tracker.peak() - tracker.current(kSourceCategory));
}

BlockID op_k(const WorkloadSpec &spec, const std::uint64_t op) {
  return spec.served ? kServedKs[op % std::size(kServedKs)] : spec.k;
}

/// One op through the public entry points, as a user would run it.
OpSample untraced_op(const Setup &setup, const RunOptions &options, const std::uint64_t op) {
  const WorkloadSpec &spec = *options.spec;
  const BlockID k = op_k(spec, op);
  const std::uint64_t seed = op_seed(options.seed, op);
  OpSample sample;
  sample.op = op;
  PartitionResult result;
  if (spec.served) {
    MemoryTracker::global().reset_peak();
    const auto start = Clock::now();
    result = setup.session->partition(k, spec.epsilon, seed);
    sample.seconds = seconds_since(start);
  } else {
    const terapart::Partitioner partitioner(make_context(spec, k, seed, options.threads));
    MemoryTracker::global().reset_peak();
    const auto start = Clock::now();
    const CompressedGraph compressed = terapart::compress_graph_parallel(setup.source);
    result = partitioner.partition(compressed);
    sample.seconds = seconds_since(start);
  }
  sample.peak_bytes = peak_without_source();
  sample.cut = result.cut;
  sample.degraded = result.degraded.any();
  sample.error = check_output(setup.source, result.partition, k, result.cut, result.balanced);
  return sample;
}

/// What a traced op leaves besides its spans.
struct TracedOp {
  std::uint64_t op = 0;
  ComposedRun run;
  std::uint64_t hierarchy_bytes = 0;
  double input_bytes = 0.0;
  double compressed_used_bytes = 0.0;
  double lp_peak = 0.0;
  double contraction_peak = 0.0;
  double gain_table_peak = 0.0;
};

/// Sum of the per-category peaks whose name starts with `prefix`.
double category_peaks(const std::vector<MemoryTracker::CategorySnapshot> &snapshot,
                      const std::string_view prefix) {
  double bytes = 0.0;
  for (const auto &category : snapshot) {
    if (category.name.starts_with(prefix)) {
      bytes += static_cast<double>(category.peak);
    }
  }
  return bytes;
}

/// One op through the traced composition.
TracedOp traced_op(const Setup &setup, const RunOptions &options, const std::uint64_t op,
                   Tracer &tracer, std::string &error) {
  const WorkloadSpec &spec = *options.spec;
  const BlockID k = op_k(spec, op);
  const std::uint64_t seed = op_seed(options.seed, op);
  TracedOp traced_run;
  traced_run.op = op;
  tracer.set_op(op);
  MemoryTracker::global().reset_peak();
  if (spec.served) {
    const Context ctx = setup.session->request_context(k, spec.epsilon, seed);
    traced_run.run = traced(&tracer, "op", -1, [&] {
      return compose_partition(*setup.compressed, ctx, *setup.composed_hierarchy, &tracer);
    });
    traced_run.hierarchy_bytes = setup.composed_hierarchy->memory_bytes();
    traced_run.input_bytes = static_cast<double>(setup.compressed->memory_bytes());
    traced_run.compressed_used_bytes = static_cast<double>(setup.compressed->used_bytes());
  } else {
    const Context ctx = make_context(spec, k, seed, options.threads);
    traced(&tracer, "op", -1, [&] {
      const CompressedGraph compressed = traced(&tracer, "compress_graph_parallel", -1, [&] {
        return terapart::compress_graph_parallel(setup.source);
      });
      const MultilevelHierarchy hierarchy(compose_coarsening(compressed, ctx, &tracer));
      traced_run.run = compose_partition(compressed, ctx, hierarchy, &tracer);
      traced_run.hierarchy_bytes = hierarchy.memory_bytes();
      traced_run.input_bytes = static_cast<double>(compressed.memory_bytes());
      traced_run.compressed_used_bytes = static_cast<double>(compressed.used_bytes());
    });
  }
  const auto snapshot = MemoryTracker::global().snapshot_with_peaks();
  traced_run.lp_peak = category_peaks(snapshot, "lp/");
  traced_run.contraction_peak = category_peaks(snapshot, "contraction/");
  traced_run.gain_table_peak = category_peaks(snapshot, "fm/gain_table");
  error = check_output(setup.source, traced_run.run.partition, k, traced_run.run.cut,
                       traced_run.run.balanced);
  return traced_run;
}

std::unique_ptr<Setup> set_up(const RunOptions &options, Tracer *tracer) {
  const WorkloadSpec &spec = *options.spec;
  auto setup = std::make_unique<Setup>(Setup{make_source(spec), {}, {}, {}});
  if (!spec.served) {
    // The warm-up op: the first op of a process pays for page faults and
    // pool start-up, so it is part of set-up and not timed.
    const OpSample warm_up = untraced_op(*setup, options, 0);
    if (!warm_up.error.empty()) {
      throw std::runtime_error("warm-up op failed: " + warm_up.error);
    }
    return setup;
  }
  if (tracer != nullptr) {
    tracer->set_op(0);
  }
  setup->compressed = std::make_unique<CompressedGraph>(traced(
      tracer, "compress_graph_parallel", -1,
      [&] { return terapart::compress_graph_parallel(setup->source); }));
  const std::uint64_t base_seed = op_seed(options.seed, 0);
  setup->session = std::make_unique<PartitionSession>(
      *setup->compressed, make_context(spec, spec.k, base_seed, options.threads));
  // Builds the retained hierarchy and serves the warm-up request.
  const PartitionResult warm_up = setup->session->partition(spec.k);
  const std::string error =
      check_output(setup->source, warm_up.partition, spec.k, warm_up.cut, warm_up.balanced);
  if (!error.empty()) {
    throw std::runtime_error("warm-up request failed: " + error);
  }
  if (tracer != nullptr) {
    const Context pinned = setup->session->request_context(spec.k, spec.epsilon, base_seed);
    setup->composed_hierarchy = traced(tracer, "session_build", -1, [&] {
      return std::make_unique<MultilevelHierarchy>(
          compose_coarsening(*setup->compressed, pinned, tracer));
    });
  }
  return setup;
}

/// Samples of named metrics, kept in first-insertion order.
class MetricSamples {
public:
  void add(const std::string &name, const double value, const std::string &unit) {
    auto it = _index.find(name);
    if (it == _index.end()) {
      it = _index.emplace(name, _metrics.size()).first;
      _metrics.push_back({name, unit, {}});
    }
    _metrics[it->second].values.push_back(value);
  }

  [[nodiscard]] std::vector<Metric> medians() const {
    std::vector<Metric> out;
    for (const auto &metric : _metrics) {
      out.push_back({metric.name, median(metric.values), metric.unit});
    }
    return out;
  }

private:
  struct Entry {
    std::string name;
    std::string unit;
    std::vector<double> values;
  };
  std::vector<Entry> _metrics;
  std::map<std::string, std::size_t> _index;
};

/// Self-time sums of one op's spans, by layer.
struct LayerTimes {
  double op = 0.0; ///< duration of the op's root span
  Counters counters{};
  double compression = 0.0;
  double top_lp = 0.0;
  double top_contraction = 0.0;
  double coarse_lp = 0.0;
  double coarse_contraction = 0.0;
  double initial = 0.0;
  double lp_refine = 0.0;
  double fm_refine = 0.0;
  double rebalance = 0.0;
  double project = 0.0;
  double session_build = 0.0;
};

std::map<std::uint64_t, LayerTimes> layer_times(const std::vector<Span> &spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::uint64_t, LayerTimes> by_op;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span &span = spans[i];
    LayerTimes &times = by_op[span.op];
    const std::string &name = span.name;
    if (name == "op") {
      times.op = span.duration();
      times.counters = span.counters;
    } else if (name == "compress_graph_parallel") {
      times.compression += self[i];
    } else if (name == "lp_cluster") {
      (span.level == 0 ? times.top_lp : times.coarse_lp) += self[i];
    } else if (name == "contract_clustering") {
      (span.level == 0 ? times.top_contraction : times.coarse_contraction) += self[i];
    } else if (name == "initial_partition") {
      times.initial += self[i];
    } else if (name == "lp_refine") {
      times.lp_refine += self[i];
    } else if (name == "fm_refine") {
      times.fm_refine += self[i];
    } else if (name == "rebalance") {
      times.rebalance += self[i];
    } else if (name == "project") {
      times.project += self[i];
    } else if (name == "session_build") {
      times.session_build = span.duration();
    }
  }
  return by_op;
}

std::vector<Metric> per_layer_metrics(const WorkloadSpec &spec, const std::vector<TracedOp> &ops,
                                      const std::vector<Span> &spans,
                                      const std::map<std::uint64_t, double> &untraced_seconds) {
  const std::map<std::uint64_t, LayerTimes> by_op = layer_times(spans);
  const LayerTimes setup = by_op.contains(0) ? by_op.at(0) : LayerTimes{};
  MetricSamples samples;
  std::vector<double> overheads;
  for (const TracedOp &traced_run : ops) {
    const LayerTimes &t = by_op.at(traced_run.op);
    const ComposedRun &run = traced_run.run;
    const double input_m = static_cast<double>(run.levels.front().second);
    const double input_edges = input_m / 2.0;
    const auto counter = [&](const std::string_view name) {
      return static_cast<double>(t.counters[counter_index(name)]);
    };
    // Each traced op has an untraced twin on the same k and seed.
    if (const auto twin = untraced_seconds.find(traced_run.op); twin != untraced_seconds.end()) {
      overheads.push_back(ratio(t.op, twin->second) - 1.0);
    }
    // A served op never compresses: its graph was compressed during set-up.
    samples.add("compression.s", spec.served ? setup.compression : t.compression, "s");
    samples.add("compression.bytes_per_edge", traced_run.compressed_used_bytes / input_m,
                "B/edge");
    samples.add("coarsening.top.lp.s", t.top_lp, "s");
    samples.add("coarsening.top.contraction.s", t.top_contraction, "s");
    samples.add("coarsening.coarse.lp.s", t.coarse_lp, "s");
    samples.add("coarsening.coarse.contraction.s", t.coarse_contraction, "s");
    samples.add("coarsening.levels", static_cast<double>(run.levels.size() - 1), "count");
    samples.add("coarsening.coarsest_n", static_cast<double>(run.levels.back().first), "count");
    samples.add("coarsening.coarsest_m_frac",
                static_cast<double>(run.levels.back().second) / input_m, "ratio");
    samples.add("coarsening.lp.moves", counter("coarsening.lp.moves"), "count");
    samples.add("coarsening.lp.bumped_vertices", counter("coarsening.lp.bumped_vertices"),
                "count");
    samples.add("coarsening.lp.peak_mib", traced_run.lp_peak / kMiB, "MiB");
    samples.add("coarsening.contraction.peak_mib", traced_run.contraction_peak / kMiB, "MiB");
    samples.add("initial.s", t.initial, "s");
    samples.add("initial.share", ratio(t.initial, t.op), "ratio");
    samples.add("initial.cut_frac", static_cast<double>(run.initial_cut) / input_edges, "ratio");
    samples.add("refinement.lp.s", t.lp_refine, "s");
    samples.add("refinement.lp.moves", counter("refinement.lp.moves"), "count");
    samples.add("refinement.fm.s", t.fm_refine, "s");
    samples.add("refinement.rebalance.s", t.rebalance, "s");
    const double fm_moves = counter("refinement.fm.moves");
    const double fm_rollbacks = counter("refinement.fm.rollbacks");
    samples.add("refinement.fm.moves", fm_moves, "count");
    samples.add("refinement.fm.rollbacks", fm_rollbacks, "count");
    samples.add("refinement.fm.gain_queries", counter("refinement.fm.gain_queries"), "count");
    samples.add("refinement.fm.useful_ratio", useful_ratio(fm_moves, fm_rollbacks), "ratio");
    samples.add("refinement.fm.gain_table_peak_mib", traced_run.gain_table_peak / kMiB, "MiB");
    samples.add("refinement.project.s", t.project, "s");
    samples.add("refinement.cut_reduction",
                cut_reduction(static_cast<double>(run.initial_cut), static_cast<double>(run.cut)),
                "ratio");
    samples.add("scheduler.tasks", counter("scheduler.tasks"), "count");
    samples.add("scheduler.steals", counter("scheduler.steals"), "count");
    samples.add("scheduler.steal_success",
                ratio(counter("scheduler.steals"), counter("scheduler.steal_attempts")), "ratio");
    samples.add("memory.input_mib", traced_run.input_bytes / kMiB, "MiB");
    samples.add("memory.hierarchy_mib", static_cast<double>(traced_run.hierarchy_bytes) / kMiB,
                "MiB");
    samples.add("session.build_s", setup.session_build, "s");
    samples.add("session.retained_mib",
                spec.served ? static_cast<double>(traced_run.hierarchy_bytes) / kMiB : 0.0, "MiB");
  }
  std::vector<Metric> metrics = samples.medians();
  metrics.push_back({"trace.overhead", median(overheads), "ratio"});
  return metrics;
}

} // namespace

const WorkloadSpec *find_workload(const std::string_view name, const bool smoke) {
  for (const WorkloadSpec &spec : smoke ? std::span(kSmoke) : std::span(kFull)) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

std::vector<std::string_view> workload_names() {
  std::vector<std::string_view> names;
  for (const WorkloadSpec &spec : kFull) {
    names.push_back(spec.name);
  }
  return names;
}

InputIdentity identify(const CsrGraph &graph) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  hash_words(hash, graph.raw_nodes());
  hash_words(hash, graph.raw_edges());
  hash_words(hash, graph.raw_node_weights());
  hash_words(hash, graph.raw_edge_weights());
  return {graph.n(), graph.m(), hash};
}

CsrGraph make_source(const WorkloadSpec &spec) {
  CsrGraph source;
  {
    const CsrGraph generated =
        terapart::gen::by_spec(std::string(spec.graph.substr(4)), spec.graph_seed);
    source = CsrGraph(to_vector(generated.raw_nodes()), to_vector(generated.raw_edges()),
                      to_vector(generated.raw_node_weights()),
                      to_vector(generated.raw_edge_weights()), kSourceCategory);
  }
  const InputIdentity identity = identify(source);
  if (identity != spec.expected) {
    const auto describe = [](const InputIdentity &input) {
      char text[96];
      std::snprintf(text, sizeof(text), "n=%u m=%" PRIu64 " hash=0x%016" PRIx64, input.n,
                    static_cast<std::uint64_t>(input.m), input.hash);
      return std::string(text);
    };
    throw std::runtime_error(std::string(spec.graph) + " generated " + describe(identity) +
                             ", but the workload pins " + describe(spec.expected));
  }
  return source;
}

std::uint64_t op_seed(const std::uint64_t seed, const std::uint64_t op) {
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + op;
  return terapart::splitmix64(state) >> 33;
}

Context make_context(const WorkloadSpec &spec, const BlockID k, const std::uint64_t seed,
                     const int threads) {
  auto built = terapart::ContextBuilder(spec.preset)
                   .k(k)
                   .epsilon(spec.epsilon)
                   .seed(seed)
                   .threads(threads)
                   .build();
  if (!built) {
    throw std::invalid_argument(built.error().to_string());
  }
  return std::move(built).value();
}

std::string check_output(const CsrGraph &source, const std::span<const BlockID> partition,
                         const BlockID k, const terapart::EdgeWeight cut, const bool balanced) {
  const terapart::PartitionValidationResult validation =
      terapart::validate_partition(source, partition, k, cut);
  if (!validation.ok) {
    return validation.message;
  }
  return balanced ? std::string() : std::string("partition is not balanced");
}

std::string check_parity(const WorkloadSpec &spec, const std::uint64_t seed) {
  const int threads = terapart::par::num_threads();
  terapart::par::set_num_threads(1);
  std::string differences;
  const auto compare = [&](const PartitionResult &expected, const ComposedRun &composed,
                           const std::string &what) {
    std::vector<LevelShape> levels;
    for (const terapart::LevelStats &level : expected.levels) {
      levels.emplace_back(level.n, level.m);
    }
    if (levels != composed.levels) {
      differences += what + ": level shapes differ; ";
    }
    if (expected.cut != composed.cut) {
      differences += what + ": cut " + std::to_string(expected.cut) + " vs composed " +
                     std::to_string(composed.cut) + "; ";
    }
    if (expected.partition != composed.partition) {
      differences += what + ": partitions differ; ";
    }
  };
  try {
    const CsrGraph source = make_source(spec);
    const CompressedGraph compressed = terapart::compress_graph_parallel(source);
    if (spec.served) {
      PartitionSession session(compressed, make_context(spec, spec.k, op_seed(seed, 0), 1));
      std::unique_ptr<MultilevelHierarchy> hierarchy;
      for (std::uint64_t op = 0; op < std::size(kServedKs); ++op) {
        const BlockID k = op_k(spec, op);
        const std::uint64_t request_seed = op_seed(seed, op);
        const PartitionResult expected = session.partition(k, spec.epsilon, request_seed);
        const Context ctx = session.request_context(k, spec.epsilon, request_seed);
        if (hierarchy == nullptr) {
          hierarchy = std::make_unique<MultilevelHierarchy>(
              compose_coarsening(compressed, ctx, nullptr));
        }
        compare(expected, compose_partition(compressed, ctx, *hierarchy, nullptr),
                "request k=" + std::to_string(k));
      }
    } else {
      for (std::uint64_t op = 1; op <= 2; ++op) {
        const Context ctx = make_context(spec, spec.k, op_seed(seed, op), 1);
        const PartitionResult expected = terapart::Partitioner(ctx).partition(compressed);
        const MultilevelHierarchy hierarchy(compose_coarsening(compressed, ctx, nullptr));
        compare(expected, compose_partition(compressed, ctx, hierarchy, nullptr),
                "op " + std::to_string(op));
      }
    }
  } catch (const std::exception &e) {
    differences += std::string("parity run threw: ") + e.what();
  }
  terapart::par::set_num_threads(threads);
  return differences;
}

RunOutcome run_workload(const RunOptions &options) {
  const WorkloadSpec &spec = *options.spec;
  RunOutcome outcome;
  terapart::par::set_num_threads(options.threads);
  const auto fail = [&](const std::string &error) {
    ++outcome.failed;
    if (outcome.errors.size() < 8) {
      outcome.errors.push_back(error);
    }
  };

  if (options.trace) {
    const std::string parity = check_parity(*find_workload(spec.name, true), options.seed);
    if (!parity.empty()) {
      outcome.correct = false;
      outcome.errors.push_back("p=1 parity: " + parity);
    }
    terapart::par::set_num_threads(options.threads);
  }

  Tracer tracer;
  std::unique_ptr<Setup> setup;
  std::vector<double> setup_seconds;
  for (int rep = 0; rep < (options.trace ? 1 : kSetupReps); ++rep) {
    setup.reset();
    const auto start = Clock::now();
    setup = set_up(options, options.trace ? &tracer : nullptr);
    setup_seconds.push_back(seconds_since(start));
  }
  outcome.input = identify(setup->source);
  const double input_edges = static_cast<double>(setup->source.m()) / 2.0;

  // Traced runs pair every traced op with an untraced one on the same k and
  // seed, so trace.overhead compares like with like. Served runs end on a
  // whole cycle of k values, so every k weighs the same in the medians.
  std::vector<OpSample> samples;
  std::vector<TracedOp> traced_ops;
  const auto deadline = Clock::now() + std::chrono::duration<double>(options.seconds);
  for (std::uint64_t op = 1;; ++op) {
    const std::string label = "op " + std::to_string(op);
    if (options.trace) {
      ++outcome.attempted;
      try {
        std::string error;
        traced_ops.push_back(traced_op(*setup, options, op, tracer, error));
        if (!error.empty()) {
          fail(label + " (traced): " + error);
        }
      } catch (const std::exception &e) {
        fail(label + " (traced) threw: " + e.what());
      }
    }
    ++outcome.attempted;
    try {
      OpSample sample = untraced_op(*setup, options, op);
      outcome.degraded += sample.degraded ? 1 : 0;
      if (!sample.error.empty()) {
        fail(label + ": " + sample.error);
      }
      samples.push_back(std::move(sample));
    } catch (const std::exception &e) {
      fail(label + " threw: " + e.what());
    }
    const bool cycle_done = !spec.served || op % std::size(kServedKs) == 0;
    if (Clock::now() >= deadline && cycle_done) {
      break;
    }
  }

  double total_seconds = 0.0;
  double peak_bytes = 0.0;
  std::map<std::uint64_t, double> seconds_by_op;
  for (const OpSample &sample : samples) {
    outcome.op_seconds.push_back(sample.seconds);
    seconds_by_op[sample.op] = sample.seconds;
    total_seconds += sample.seconds;
    peak_bytes = std::max(peak_bytes, sample.peak_bytes);
  }
  // A served op's cost depends on its k, and the median of a mix of four
  // k values jumps between them; so a served sample is one whole cycle of k,
  // its mean op time and mean cut.
  const std::size_t group = spec.served ? std::size(kServedKs) : 1;
  std::vector<double> op_seconds;
  std::vector<double> cuts;
  for (std::size_t begin = 0; begin + group <= samples.size(); begin += group) {
    double seconds = 0.0;
    double cut = 0.0;
    for (std::size_t i = begin; i < begin + group; ++i) {
      seconds += samples[i].seconds;
      cut += static_cast<double>(samples[i].cut);
    }
    op_seconds.push_back(seconds / static_cast<double>(group));
    cuts.push_back(cut / static_cast<double>(group));
  }
  if (options.trace) {
    outcome.metrics = per_layer_metrics(spec, traced_ops, tracer.spans(), seconds_by_op);
    if (!options.trace_out.empty() && !write_chrome_trace(tracer.spans(), options.trace_out)) {
      outcome.errors.push_back("could not write " + options.trace_out.string());
    }
  } else {
    outcome.metrics = {
        {"partition_s", median(op_seconds), "s"},
        {"edges_per_s", ratio(static_cast<double>(samples.size()) * input_edges, total_seconds),
         "edges/s"},
        {"peak_mib", peak_bytes / kMiB, "MiB"},
        {"cut_frac", median(cuts) / input_edges, "ratio"},
        {"valid_frac",
         ratio(static_cast<double>(outcome.attempted - outcome.failed),
               static_cast<double>(outcome.attempted)),
         "ratio"},
        {"setup_s", median(setup_seconds), "s"},
    };
  }
  return outcome;
}

} // namespace terabench
