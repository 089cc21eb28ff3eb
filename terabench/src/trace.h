/// @file trace.h
/// @brief In-memory spans around the benchmark's calls into each layer.
///
/// A span carries a name, a level (the hierarchy level the call worked on,
/// -1 when none), its start and end on one steady clock, its parent span and
/// the op it belongs to, plus the deltas of the `MetricsRegistry::global()`
/// counters the call caused. Spans are only appended while the run
/// measures; `write_chrome_trace` writes them once the run has ended.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace terabench {

/// The registry counters every span records deltas of.
inline constexpr std::array<std::string_view, 9> kCounterNames = {
    "scheduler.tasks",     "scheduler.steals",     "scheduler.steal_attempts",
    "coarsening.lp.moves", "coarsening.lp.bumped_vertices",
    "refinement.lp.moves", "refinement.fm.moves",  "refinement.fm.rollbacks",
    "refinement.fm.gain_queries"};

using Counters = std::array<std::uint64_t, kCounterNames.size()>;

/// Index of `name` in kCounterNames (a compile-time lookup at call sites).
[[nodiscard]] constexpr std::size_t counter_index(const std::string_view name) {
  for (std::size_t i = 0; i < kCounterNames.size(); ++i) {
    if (kCounterNames[i] == name) {
      return i;
    }
  }
  return kCounterNames.size();
}

struct Span {
  std::string name;
  int level = -1;
  double start_s = 0.0; ///< seconds since the tracer was created
  double end_s = 0.0;
  int parent = -1; ///< index into Tracer::spans(), -1 for a root
  std::uint64_t op = 0;
  Counters counters{}; ///< registry counter deltas over the span

  [[nodiscard]] double duration() const { return end_s - start_s; }
  [[nodiscard]] std::uint64_t counter(const std::string_view name) const {
    return counters[counter_index(name)];
  }
};

class Tracer {
public:
  Tracer() : _origin(std::chrono::steady_clock::now()) {}

  /// Ops are numbered by the caller; 0 is set-up.
  void set_op(const std::uint64_t op) { _op = op; }

  /// Opens a span under the innermost open one and returns its index.
  int begin(std::string name, int level = -1);
  /// Closes the innermost open span, which must be `index`.
  void end(int index);

  [[nodiscard]] const std::vector<Span> &spans() const { return _spans; }

private:
  [[nodiscard]] double now() const;

  std::chrono::steady_clock::time_point _origin;
  std::uint64_t _op = 0;
  std::vector<Span> _spans;
  std::vector<int> _open;
  std::vector<Counters> _open_counters;
};

/// Runs `fn()` inside a span when `tracer` is non-null, and plainly otherwise.
template <typename Fn>
decltype(auto) traced(Tracer *tracer, std::string name, const int level, Fn &&fn) {
  if (tracer == nullptr) {
    return fn();
  }
  struct Closer {
    Tracer *tracer;
    int index;
    ~Closer() { tracer->end(index); }
  } closer{tracer, tracer->begin(std::move(name), level)};
  return fn();
}

/// Self time of every span: its duration minus the part of its interval that
/// its direct children cover (overlapping children are merged, parts outside
/// the parent are clipped).
[[nodiscard]] std::vector<double> self_times(const std::vector<Span> &spans);

/// Writes the spans as Chrome trace-event JSON (one complete event each).
/// Returns false when the file cannot be written.
bool write_chrome_trace(const std::vector<Span> &spans, const std::filesystem::path &path);

} // namespace terabench
