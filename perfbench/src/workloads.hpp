// The four workloads.  Each one drives the public API the way a
// researcher's script does: one closed-loop client, one operation at a
// time, inputs made from the seed before they are needed.
#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct Config {
  std::uint64_t seed = 1;
  /// Tiny sizes for the benchmark's own smoke test.
  bool smoke = false;
};

/// One timed operation.  `seconds` covers only the program calls;
/// checks run after it.
struct OpResult {
  double seconds = 0.0;
  double cells = 0.0;
  bool ok = false;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Threads an operation runs on (the harness gives it that many
  /// cores at a time).
  [[nodiscard]] virtual std::size_t threads() const = 0;
  /// The program calls a user pays before the first operation: service
  /// construction, code-menu construction, cache priming.  Timed by the
  /// caller.  The first call builds the state the operations use; later
  /// calls build a throwaway copy, so set-up can be sampled during the
  /// run.  Inputs are made beforehand (in the constructor).
  virtual void setup() = 0;
  /// Checks the last set-up's outputs; returns failed checks.
  virtual std::size_t check_setup() = 0;
  /// Drops the throwaway copy and the outputs check_setup() read
  /// (untimed).
  virtual void discard() = 0;
  /// Operation `index`, traced when `tracer` is set.
  virtual OpResult run(std::size_t index, Tracer* tracer) = 0;
  /// Untimed preparation of the traced pipeline (e.g. priming its
  /// cache), called once before the first traced operation.
  virtual void start_trace() {}
  /// Checks that need the whole run; returns failed checks.
  virtual std::size_t finish() { return 0; }
  /// Cache metrics of the traced pipeline (serve.cache_evictions per
  /// traced operation, serve.cache_hit_ratio); empty when there is no
  /// cache.
  [[nodiscard]] virtual std::map<std::string, double> cache_metrics(
      std::size_t traced_ops) const {
    (void)traced_ops;
    return {};
  }
  /// Writes the first `count` inputs, one per line, for the
  /// determinism test.
  virtual void dump_inputs(std::size_t count, std::ostream& os) = 0;
};

/// The workload names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      const Config& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_HPP
