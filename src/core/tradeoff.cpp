#include "photecc/core/tradeoff.hpp"

#include <algorithm>

namespace photecc::core {

bool is_dominated(const SchemeMetrics& a, const SchemeMetrics& b) {
  if (!b.feasible) return false;
  if (!a.feasible) return true;
  const bool no_worse =
      b.p_channel_w <= a.p_channel_w && b.ct <= a.ct;
  const bool strictly_better =
      b.p_channel_w < a.p_channel_w || b.ct < a.ct;
  return no_worse && strictly_better;
}

std::vector<std::size_t> pareto_front_indices(
    const std::vector<SchemeMetrics>& points) {
  std::vector<std::size_t> front;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!points[i].feasible) continue;
    bool dominated = false;
    for (std::size_t j = 0; j < points.size() && !dominated; ++j) {
      if (j != i && is_dominated(points[i], points[j])) dominated = true;
    }
    if (!dominated) front.push_back(i);
  }
  std::sort(front.begin(), front.end(),
            [&](std::size_t lhs, std::size_t rhs) {
              if (points[lhs].ct != points[rhs].ct)
                return points[lhs].ct < points[rhs].ct;
              return points[lhs].p_channel_w < points[rhs].p_channel_w;
            });
  return front;
}

std::vector<std::size_t> TradeoffSweep::pareto_front() const {
  return pareto_front_indices(points);
}

TradeoffSweep sweep_tradeoff(const link::MwsrChannel& channel,
                             const std::vector<ecc::BlockCodePtr>& codes,
                             const std::vector<double>& ber_targets,
                             const SystemConfig& config) {
  TradeoffSweep sweep;
  if (codes.empty() || ber_targets.empty()) return sweep;
  // Lower once: the plan hoists the worst-channel scan and per-code
  // constants, so each cell only runs the (code, BER) inversion and the
  // closed-form tail — bit-identical to per-cell evaluate_scheme.
  const ChannelSweepPlan plan{channel, codes, config};
  sweep.points.reserve(codes.size() * ber_targets.size());
  for (const double ber : ber_targets)
    for (std::size_t c = 0; c < codes.size(); ++c)
      sweep.points.push_back(plan.evaluate(c, ber));
  return sweep;
}

}  // namespace photecc::core
