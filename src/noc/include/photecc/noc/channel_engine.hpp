// The per-channel discrete-event engine of NetworkSimulator (K
// channels with per-channel managers, menus and thermal timelines).
//
// One call simulates one MWSR channel: round-robin arbitration over
// per-writer virtual-channel queues, laser gating/wake, closed-loop
// thermal integration and drift-triggered recalibration, and the
// paper's per-transfer energy model.  The engine itself holds no
// totals — every statistic is written through one or more ChannelSinks.
//
// The multi-sink design keeps the aggregate exact: a network run hands
// each channel BOTH its per-channel sink and the shared aggregate sink,
// so the aggregate accumulates message by message in channel order.
// Summing per-channel subtotals after the fact would regroup the
// additions ((a+b)+(c+d) instead of ((a+b)+c)+d) and drift in the last
// ulp.
#ifndef PHOTECC_NOC_CHANNEL_ENGINE_HPP
#define PHOTECC_NOC_CHANNEL_ENGINE_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "photecc/core/manager.hpp"
#include "photecc/env/environment.hpp"
#include "photecc/math/stats.hpp"
#include "photecc/noc/message.hpp"
#include "photecc/noc/network.hpp"

namespace photecc::noc {

/// Accumulation target of one channel run.  Null members are skipped,
/// so a sink can collect only what its owner finalises (e.g. the
/// aggregate sink of a heterogeneous network skips phase accumulators).
struct ChannelSink {
  NocStats* stats = nullptr;
  /// Delivered latencies, appended in completion order; the owner sorts
  /// and finalises mean/max/p95 after all channels ran.
  std::vector<double>* latencies = nullptr;
  std::map<TrafficClass, math::RunningStats>* class_latency = nullptr;
  std::uint64_t* total_payload_bits = nullptr;
  std::vector<DeliveredMessage>* log = nullptr;
  /// Phase accumulators sized to the params' phase windows; only valid
  /// when the sink's owner shares the channel's timeline.
  std::vector<NocPhaseStats>* phase_stats = nullptr;
  std::vector<math::RunningStats>* phase_latency = nullptr;
};

/// Static inputs of one channel run.
struct ChannelParams {
  /// Writer virtual-channel queues, one per message source tile.  This
  /// is an addressing size, independent of the photonic oni_count the
  /// link budget was solved with.
  std::size_t queue_count = 0;
  std::size_t wavelengths = 0;
  double f_mod_hz = 0.0;
  bool laser_gating = true;
  double laser_wake_s = 0.0;
  double arbitration_s = 0.0;
  double flight_time_s = 0.0;
  double horizon_s = 0.0;
  std::size_t channel_index = 0;  ///< stamped on DeliveredMessage rows
  bool keep_log = false;
  /// Closed-loop environment; `timeline` must outlive the call and
  /// `windows` must be timeline->phase_windows(horizon_s) when has_env.
  bool has_env = false;
  const env::EnvironmentTimeline* timeline = nullptr;
  const std::vector<env::EnvironmentTimeline::PhaseWindow>* windows = nullptr;
  /// Per-class requirements; classes not present use the default.
  const std::map<TrafficClass, ClassRequirements>* class_requirements =
      nullptr;
  const ClassRequirements* default_requirements = nullptr;
};

/// Simulates one channel's schedule (sorted in place by creation time)
/// and accumulates into every sink.
///
/// `manager` resolves every grant (its config supplies the
/// recalibration latency charged to drift-triggered re-solves).  The
/// caller owns it, so one cache can serve several channels: that is
/// exact only when they share one LinkManager AND run without an
/// environment timeline — every grant then samples the same constant
/// t = 0 environment, nothing drifts, and a shared cache answers each
/// distinct request with one cold solve for all of them.  A channel
/// under a timeline needs its own manager, because its closed loop
/// (integrator state, drift, recalibration count) diverges from every
/// other channel's; its recalibration totals are read from the
/// manager's stats at the end of the run and added to the sinks.
///
/// `baseline_feasible` classifies a drop as thermal when the request
/// is feasible at the t = 0 baseline; it is consulted only on drops
/// under an environment timeline, and the caller owns any caching
/// (NetworkSimulator shares one cache across channels that share one
/// manager).
void run_channel(std::vector<Message>& messages, const ChannelParams& params,
                 core::RecalibratingManager& manager,
                 const std::function<bool(const core::CommunicationRequest&)>&
                     baseline_feasible,
                 const std::vector<ChannelSink>& sinks);

/// Finalises a sink's accumulated statistics after its last channel
/// ran: sorts `latencies` (in place) and fills mean/max/p95, per-class
/// mean latencies, per-phase mean latencies (moving `phase_stats` into
/// stats.phases when non-null), and the total-energy sum.
void finalize_stats(
    NocStats& stats, std::vector<double>& latencies,
    const std::map<TrafficClass, math::RunningStats>& class_latency,
    std::vector<NocPhaseStats>* phase_stats,
    const std::vector<math::RunningStats>* phase_latency);

}  // namespace photecc::noc

#endif  // PHOTECC_NOC_CHANNEL_ENGINE_HPP
