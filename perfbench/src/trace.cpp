#include "trace.hpp"

#include <algorithm>
#include <tuple>

#include "photecc/math/json.hpp"

namespace perfbench {

Tracer::Tracer(std::size_t keep_requests) : keep_requests_(keep_requests) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

std::uint32_t Tracer::begin(std::string_view name, std::uint32_t parent,
                            std::uint64_t request) {
  const std::int64_t start = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.name = name;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.request = request;
  span.start_ns = start;
  span.end_ns = start;
  spans_.push_back(span);
  return span.id;
}

void Tracer::end(std::uint32_t id) {
  const std::int64_t end = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1].end_ns = end;
}

void Tracer::count(std::uint32_t id, std::string_view name, double value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Span& span = spans_[id - 1];
  if (span.count_size < span.counts.size())
    span.counts[span.count_size++] = {name, value};
  counts_[std::string(name)] += value;
}

double Tracer::finish_request() {
  std::vector<Span> spans;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans.swap(spans_);
  }
  attribute(spans);
  double root_s = 0.0;
  for (const Span& span : spans)
    if (span.parent == 0)
      root_s += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  if (requests_ < keep_requests_)
    kept_.insert(kept_.end(), spans.begin(), spans.end());
  ++requests_;
  return root_s;
}

void Tracer::attribute(const std::vector<Span>& spans) {
  // Event sweep: starts before ends at equal times, parents (lower ids)
  // start first and end last, so zero-length and touching spans nest.
  struct Event {
    std::int64_t t;
    int kind;  // 0 = start, 1 = end
    std::int64_t order;
    std::size_t span;
  };
  std::vector<Event> events;
  events.reserve(spans.size() * 2);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    events.push_back({spans[i].start_ns, 0, spans[i].id, i});
    events.push_back({spans[i].end_ns, 1, -std::int64_t{spans[i].id}, i});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return std::tie(a.t, a.kind, a.order) < std::tie(b.t, b.kind, b.order);
  });

  // A span is a leaf while it is active with no active child; the time
  // between events is split equally among the current leaves.  Each
  // leaf banks the running per-leaf share since it became one.
  std::vector<int> active_children(spans.size(), 0);
  std::vector<double> entered(spans.size(), 0.0);
  std::vector<double> self(spans.size(), 0.0);
  std::size_t leaves = 0;
  double per_leaf = 0.0;
  std::int64_t last = events.empty() ? 0 : events.front().t;
  const auto become_leaf = [&](std::size_t i) {
    entered[i] = per_leaf;
    ++leaves;
  };
  const auto leave_leaf = [&](std::size_t i) {
    self[i] += per_leaf - entered[i];
    --leaves;
  };
  for (const Event& event : events) {
    if (leaves > 0)
      per_leaf += static_cast<double>(event.t - last) /
                  static_cast<double>(leaves);
    last = event.t;
    const Span& span = spans[event.span];
    const std::size_t parent =
        span.parent == 0 ? spans.size() : span.parent - 1;
    if (event.kind == 0) {
      if (parent < spans.size() && active_children[parent]++ == 0)
        leave_leaf(parent);
      become_leaf(event.span);
    } else {
      leave_leaf(event.span);
      if (parent < spans.size() && --active_children[parent] == 0)
        become_leaf(parent);
    }
  }

  std::map<std::string_view, LayerTotals> per_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTotals& totals = per_name[spans[i].name];
    totals.self_ns += self[i];
    totals.duration_ns +=
        static_cast<double>(spans[i].end_ns - spans[i].start_ns);
  }
  for (const auto& [name, request_totals] : per_name) {
    LayerTotals& totals = layers_[std::string(name)];
    totals.self_ns += request_totals.self_ns;
    totals.duration_ns += request_totals.duration_ns;
    ++totals.requests;
  }
}

double Tracer::self_ms_per_request(const std::string& name) const {
  const auto it = layers_.find(name);
  if (it == layers_.end() || it->second.requests == 0) return 0.0;
  return it->second.self_ns * 1e-6 /
         static_cast<double>(it->second.requests);
}

double Tracer::count_total(const std::string& name) const {
  const auto it = counts_.find(name);
  return it == counts_.end() ? 0.0 : it->second;
}

void Tracer::dump(std::ostream& os) const {
  namespace json = photecc::math::json;
  for (const Span& span : kept_) {
    os << "{\"name\":" << json::escape(span.name) << ",\"id\":" << span.id
       << ",\"parent\":" << span.parent << ",\"request\":" << span.request
       << ",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns;
    if (span.count_size > 0) {
      os << ",\"counts\":{";
      for (std::size_t i = 0; i < span.count_size; ++i) {
        if (i) os << ',';
        os << json::escape(span.counts[i].first) << ':'
           << json::number(span.counts[i].second);
      }
      os << '}';
    }
    os << "}\n";
  }
}

}  // namespace perfbench
