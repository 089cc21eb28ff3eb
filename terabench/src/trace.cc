#include "trace.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "common/assert.h"
#include "common/json.h"
#include "common/metrics_registry.h"

namespace terabench {

namespace {

Counters read_counters() {
  const terapart::MetricsRegistry &registry = terapart::MetricsRegistry::global();
  Counters counters{};
  for (std::size_t i = 0; i < kCounterNames.size(); ++i) {
    counters[i] = registry.counter(kCounterNames[i]);
  }
  return counters;
}

} // namespace

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - _origin).count();
}

int Tracer::begin(std::string name, const int level) {
  Span span;
  span.name = std::move(name);
  span.level = level;
  span.parent = _open.empty() ? -1 : _open.back();
  span.op = _op;
  const auto index = static_cast<int>(_spans.size());
  _spans.push_back(std::move(span));
  _open.push_back(index);
  _open_counters.push_back(read_counters());
  // Start last, so reading the counters is charged to the parent.
  _spans.back().start_s = now();
  return index;
}

void Tracer::end(const int index) {
  const double end = now();
  TP_ASSERT(!_open.empty() && _open.back() == index);
  Span &span = _spans[static_cast<std::size_t>(index)];
  span.end_s = end;
  const Counters now_counters = read_counters();
  for (std::size_t i = 0; i < kCounterNames.size(); ++i) {
    span.counters[i] = now_counters[i] - _open_counters.back()[i];
  }
  _open.pop_back();
  _open_counters.pop_back();
}

std::vector<double> self_times(const std::vector<Span> &spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span &span : spans) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(span.start_s, span.end_s);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span &span = spans[i];
    std::vector<std::pair<double, double>> &intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double reach = span.start_s; // end of the covered prefix so far
    for (const auto &[start, end] : intervals) {
      const double from = std::max(start, reach);
      const double to = std::min(end, span.end_s);
      if (to > from) {
        covered += to - from;
      }
      reach = std::max(reach, std::min(end, span.end_s));
    }
    self[i] = span.duration() - covered;
  }
  return self;
}

bool write_chrome_trace(const std::vector<Span> &spans, const std::filesystem::path &path) {
  namespace json = terapart::json;
  json::Value events = json::Value::array();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span &span = spans[i];
    json::Value event = json::Value::object();
    event["name"] = span.name;
    event["ph"] = "X";
    event["ts"] = span.start_s * 1e6;
    event["dur"] = span.duration() * 1e6;
    event["pid"] = 1;
    event["tid"] = 1;
    json::Value &args = event["args"];
    args["id"] = static_cast<std::uint64_t>(i);
    args["parent"] = span.parent;
    args["op"] = span.op;
    args["level"] = span.level;
    for (std::size_t c = 0; c < kCounterNames.size(); ++c) {
      args[kCounterNames[c]] = span.counters[c];
    }
    events.push_back(std::move(event));
  }
  json::Value root = json::Value::object();
  root["traceEvents"] = std::move(events);
  std::ofstream out(path);
  out << root.dump(-1) << "\n";
  return static_cast<bool>(out);
}

} // namespace terabench
