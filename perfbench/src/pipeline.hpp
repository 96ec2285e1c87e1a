// The serve pipeline rebuilt from public calls, with a span around
// each layer: parse_request -> spec::from_json_value -> canonicalize ->
// PlanCache::find -> (spec::lower -> LoweredPlan / SweepRunner ->
// render -> write -> PlanCache::insert) or a cached write.
//
// It mirrors serve::Service::handle_line for valid sweep requests.  The
// record bodies are re-rendered here because Service keeps them
// private, so the traced run compares sampled responses byte for byte
// with Service's; a drift from service.cpp fails the run.
#ifndef PERFBENCH_PIPELINE_HPP
#define PERFBENCH_PIPELINE_HPP

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>

#include "photecc/serve/cache.hpp"
#include "photecc/serve/service.hpp"
#include "trace.hpp"

namespace perfbench {

class TracedService {
 public:
  /// `options.threads` must be nonzero (the spec's own thread count is
  /// never consulted).
  explicit TracedService(photecc::serve::ServiceOptions options);

  /// Answers one sweep request line, recording spans under `request`
  /// when `tracer` is set; throws on anything Service would answer
  /// with an error record.
  void handle_line(const std::string& line, std::ostream& out,
                   Tracer* tracer, std::uint64_t request);

  [[nodiscard]] const photecc::serve::PlanCache& cache() const noexcept {
    return cache_;
  }
  [[nodiscard]] std::size_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::size_t lookups() const noexcept { return lookups_; }

 private:
  photecc::serve::ServiceOptions options_;
  photecc::serve::PlanCache cache_;
  std::size_t hits_ = 0;
  std::size_t lookups_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_PIPELINE_HPP
