// Span tracing for the traced run.  Spans are recorded by the benchmark
// around its calls into each layer's public functions: name, start,
// end, parent span and request id, plus named counts.  A request's
// spans are reduced to per-layer self times when the request finishes;
// the spans of the first few requests are kept for the JSONL dump.
//
// Self time partitions wall time: at every instant the elapsed time is
// split equally among the innermost active spans, so concurrent
// children (worker threads) share the interval and the self times of
// one request always add up to its root span's duration.
#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One recorded span.  Names are string literals (static lifetime).
struct Span {
  std::string_view name;
  std::uint32_t id = 0;      ///< 1-based within its request
  std::uint32_t parent = 0;  ///< 0 = root of the request
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::size_t count_size = 0;
  std::array<std::pair<std::string_view, double>, 6> counts{};
};

/// Per-name totals over every finished request.
struct LayerTotals {
  double self_ns = 0.0;
  double duration_ns = 0.0;  ///< summed span durations (thread time)
  std::size_t requests = 0;  ///< finished requests that had this span
};

class Tracer {
 public:
  /// Keeps every span of the first `keep_requests` requests for dump().
  explicit Tracer(std::size_t keep_requests);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span; thread-safe.  Returns its id for children and end().
  std::uint32_t begin(std::string_view name, std::uint32_t parent,
                      std::uint64_t request);
  void end(std::uint32_t id);
  /// Attaches a count to an open or closed span of the current request
  /// and adds it to the run total of `name`.
  void count(std::uint32_t id, std::string_view name, double value);

  /// Reduces the current request's spans to self times and starts the
  /// next request.  Returns the root span's duration in seconds.
  double finish_request();

  [[nodiscard]] const std::map<std::string, LayerTotals>& layers() const {
    return layers_;
  }
  /// Total self time of `name` per request that had it, in ms (0 when
  /// no request had it).
  [[nodiscard]] double self_ms_per_request(const std::string& name) const;
  /// Count total of `name` (0 when never counted).
  [[nodiscard]] double count_total(const std::string& name) const;

  /// Writes the kept spans as JSONL.
  void dump(std::ostream& os) const;

 private:
  std::int64_t now_ns() const;
  void attribute(const std::vector<Span>& spans);

  const Clock::time_point epoch_ = Clock::now();
  const std::size_t keep_requests_;
  std::size_t requests_ = 0;

  std::mutex mutex_;
  std::vector<Span> spans_;  ///< guarded by mutex_: the current request

  std::vector<Span> kept_;
  std::map<std::string, LayerTotals> layers_;
  std::map<std::string, double> counts_;
};

/// RAII span; a null tracer makes it a no-op, so one code path serves
/// the timed and the traced runs.
class Scope {
 public:
  Scope(Tracer* tracer, std::string_view name, std::uint32_t parent,
        std::uint64_t request)
      : tracer_(tracer),
        id_(tracer ? tracer->begin(name, parent, request) : 0) {}
  ~Scope() {
    if (tracer_) tracer_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
  void count(std::string_view name, double value) {
    if (tracer_) tracer_->count(id_, name, value);
  }

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_HPP
