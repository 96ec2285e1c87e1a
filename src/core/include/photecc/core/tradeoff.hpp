// Power/performance trade-off exploration (paper Section V-C, Fig. 6b):
// sweep (code, BER) combinations, collect (Pchannel, CT) points and
// extract the Pareto front (both objectives minimised).
#ifndef PHOTECC_CORE_TRADEOFF_HPP
#define PHOTECC_CORE_TRADEOFF_HPP

#include <cstddef>
#include <vector>

#include "photecc/core/channel_power.hpp"

namespace photecc::core {

/// Full sweep result: one SchemeMetrics per (code, BER target).
struct TradeoffSweep {
  std::vector<SchemeMetrics> points;

  /// Indices of `points` forming the Pareto front in (Pchannel, CT),
  /// both minimised, considering only feasible points.  Sorted by CT.
  [[nodiscard]] std::vector<std::size_t> pareto_front() const;
};

/// Evaluates every code at every BER target (BER-major, code-minor
/// order), sequentially on the calling thread.  For multi-axis or
/// parallel sweeps use explore::ScenarioGrid, whose LoweredPlan runs the
/// same per-cell evaluation.
TradeoffSweep sweep_tradeoff(const link::MwsrChannel& channel,
                             const std::vector<ecc::BlockCodePtr>& codes,
                             const std::vector<double>& ber_targets,
                             const SystemConfig& config = {});

/// True when `a` is dominated by `b` (b no worse on both objectives and
/// strictly better on at least one).  Infeasible points are dominated by
/// every feasible point.
bool is_dominated(const SchemeMetrics& a, const SchemeMetrics& b);

/// Pareto front of an arbitrary point set (indices into `points`).
std::vector<std::size_t> pareto_front_indices(
    const std::vector<SchemeMetrics>& points);

}  // namespace photecc::core

#endif  // PHOTECC_CORE_TRADEOFF_HPP
