// Discrete-event simulator of an MWSR ONoC with the Optical Link
// Energy/Performance Manager in the loop: N tiles sharing K MWSR
// broadcast channels.
//
//  * a NetworkTopology maps tiles to channels (interleaved or blocked).
//    The paper's Fig. 2a topology — one reader channel per ONI — is
//    topology = {n, n}; K can also be much smaller than N;
//  * a writer with a pending message requests the destination tile's
//    channel; a round-robin arbiter over per-tile virtual-channel queues
//    grants it (token-style, with a fixed arbitration overhead per
//    grant), and the channel's manager selects the coding scheme and
//    laser setting for the transfer from the message's traffic class;
//  * every channel may override the manager's coding-scheme menu, its
//    ring load and its thermal environment timeline — hot-spot readers
//    can run strong codes while cool edge channels stay uncoded.
//    Channels without overrides share one manager; those of them
//    without an environment timeline also share one solve cache (one
//    menu solve per distinct request per run, see channel_engine.hpp).
//
// Energy accounting follows the paper's power model: the laser burns
// Plaser(scheme) per wavelength while transmitting; with laser gating
// enabled (ref [9]) it is off when the channel idles, otherwise it keeps
// burning at the idle operating point.
//
// Each channel runs through the channel engine (see channel_engine.hpp)
// with two sinks — its own NocStats and the network aggregate — so
// aggregated statistics accumulate message by message in channel order.
#ifndef PHOTECC_NOC_NETWORK_HPP
#define PHOTECC_NOC_NETWORK_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "photecc/core/manager.hpp"
#include "photecc/env/environment.hpp"
#include "photecc/math/rng.hpp"
#include "photecc/noc/message.hpp"
#include "photecc/noc/traffic.hpp"

namespace photecc::noc {

/// Per-traffic-class communication requirements handed to the manager.
struct ClassRequirements {
  double target_ber = 1e-9;
  core::Policy policy = core::Policy::kMinEnergy;
  std::optional<double> max_ct;
  std::optional<double> max_channel_power_w;
};

/// Outcome of one delivered message.
struct DeliveredMessage {
  Message message;
  /// Index of the channel that delivered it (the destination ONI when
  /// the topology has one channel per tile).
  std::size_t channel = 0;
  double start_time_s = 0.0;       ///< transmission start (after grant)
  double completion_time_s = 0.0;
  double latency_s = 0.0;          ///< completion - creation
  std::string scheme;              ///< code chosen by the manager
  double energy_j = 0.0;           ///< laser + MR + codec for this transfer
  bool deadline_missed = false;
  /// Environment activity sampled when this transfer was configured.
  double activity = 0.0;
  /// True when this transfer forced a drift-triggered manager re-solve
  /// (activity past the hysteresis band); the cold first solve of a
  /// request is not flagged.
  bool recalibrated = false;
};

/// Statistics of one environment phase window (see
/// env::EnvironmentTimeline::phase_windows); filled only when the
/// channel runs with an environment timeline.
struct NocPhaseStats {
  std::string label;
  double start_s = 0.0;
  double end_s = 0.0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t deadline_misses = 0;
  double mean_latency_s = 0.0;

  [[nodiscard]] bool operator==(const NocPhaseStats&) const = default;
};

/// Aggregate statistics of one run.
struct NocStats {
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;       ///< no feasible scheme
  /// Drops caused by a thermal infeasibility window: the request is
  /// feasible at the timeline's t = 0 baseline but not at the sampled
  /// environment (subset of `dropped`; zero without a timeline).
  std::uint64_t dropped_thermal = 0;
  std::uint64_t deadline_misses = 0;
  double mean_latency_s = 0.0;
  double max_latency_s = 0.0;
  /// 95th-percentile latency by the nearest-rank definition: the value
  /// at 1-indexed rank ceil(0.95 * N) of the sorted latencies (no
  /// interpolation; for N = 20 that is the 19th smallest).
  double p95_latency_s = 0.0;
  double total_energy_j = 0.0;
  double laser_energy_j = 0.0;
  double mr_energy_j = 0.0;
  double codec_energy_j = 0.0;
  double idle_laser_energy_j = 0.0;  ///< burned while idle (no gating)
  double busy_time_s = 0.0;          ///< summed channel busy time
  double horizon_s = 0.0;
  /// Closed-loop accounting (zero without an environment timeline):
  /// manager re-solves triggered by drift, and their summed cost.
  /// recalibration_energy_j is part of total_energy_j.
  std::uint64_t recalibrations = 0;
  double recalibration_energy_j = 0.0;
  double recalibration_latency_s = 0.0;
  /// Highest / end-of-horizon activity sampled on any channel (the
  /// hottest channel's view); filled only when a timeline is declared.
  double peak_activity = 0.0;
  double final_activity = 0.0;
  /// Per-phase breakdown over the timeline's phase windows (empty
  /// without an environment timeline).
  std::vector<NocPhaseStats> phases;
  /// Scheme usage histogram (scheme name -> transfers).
  std::map<std::string, std::uint64_t> scheme_usage;
  /// Mean latency per traffic class.
  std::map<TrafficClass, double> class_mean_latency_s;

  /// Energy per delivered payload bit [J].
  [[nodiscard]] double energy_per_bit_j(std::uint64_t payload_bits) const {
    return payload_bits ? total_energy_j / static_cast<double>(payload_bits)
                        : 0.0;
  }

  /// Exact (bitwise on doubles) equality — the back-compat contract of
  /// the network refactor is pinned with this.
  [[nodiscard]] bool operator==(const NocStats&) const = default;
};

/// Tile-to-channel map of the shared-channel network.
struct NetworkTopology {
  /// How tiles are distributed over the channels.
  enum class Mapping {
    kInterleaved,  ///< tile t reads channel t % K (neighbours spread)
    kBlocked,      ///< contiguous blocks of ceil(N/K) tiles per channel
  };

  std::size_t tile_count = 16;
  std::size_t channel_count = 4;
  Mapping mapping = Mapping::kInterleaved;

  /// Throws std::invalid_argument on an unusable geometry.
  void validate() const;

  /// Channel that delivers messages addressed to `tile`.
  [[nodiscard]] std::size_t channel_of_tile(std::size_t tile) const;

  /// Tiles whose inbound traffic `channel` carries, ascending.
  [[nodiscard]] std::vector<std::size_t> tiles_of_channel(
      std::size_t channel) const;

  [[nodiscard]] bool operator==(const NetworkTopology&) const = default;
};

/// Per-channel overrides; fields left at their defaults inherit the
/// network-wide configuration.
struct NetworkChannelConfig {
  /// Thermal environment of this channel's waveguide/reader region
  /// (hot-spot readers vs cool edges); overrides base_link's timeline.
  std::optional<env::EnvironmentTimeline> environment;
  /// Coding menu offered to this channel's manager; empty inherits the
  /// network menu.  A one-element menu pins the channel to that code.
  std::vector<ecc::BlockCodePtr> scheme_menu;
  /// Photonic ONI count the channel's link budget is solved with
  /// (rings/drops on the waveguide); 0 inherits tile_count.
  std::size_t oni_count = 0;
};

/// Network configuration: the topology plus the homogeneous baseline
/// every channel starts from and the per-channel overrides.
struct NetworkConfig {
  NetworkTopology topology{};
  link::MwsrParams base_link{};  ///< oni_count is resolved per channel
  core::SystemConfig system{};
  /// Network-wide scheme menu (empty: the paper's three schemes).
  std::vector<ecc::BlockCodePtr> scheme_menu;
  /// Per-channel overrides; empty means K default channels, otherwise
  /// exactly topology.channel_count entries.
  std::vector<NetworkChannelConfig> channels;
  /// Per-class requirements; classes not present use the default.
  std::map<TrafficClass, ClassRequirements> class_requirements;
  ClassRequirements default_requirements{};
  /// Turn lasers off between transfers (ref [9]).
  bool laser_gating = true;
  double laser_wake_s = 10e-9;     ///< gating wake-up latency
  double arbitration_s = 2e-9;     ///< per-grant arbitration overhead
  double flight_time_s = 0.8e-9;   ///< time of flight over the waveguide
  /// Closed-loop recalibration knobs, active on channels with an
  /// environment timeline.  Without a timeline the manager solves at
  /// the static operating point and recalibration costs nothing.
  core::RecalibrationConfig recalibration{};
};

/// Network statistics: the aggregate view plus the per-channel
/// breakdown.  `aggregate` is finalised over the whole event stream
/// (global latency order, energies summed message by message in
/// channel order).
struct NetworkStats {
  NocStats aggregate;
  std::vector<NocStats> channels;
  /// Delivered payload bits per channel (aggregate total is in
  /// NetworkRunResult::total_payload_bits).
  std::vector<std::uint64_t> channel_payload_bits;
};

/// Result of a network run.
struct NetworkRunResult {
  NetworkStats stats;
  std::uint64_t total_payload_bits = 0;
  /// Per-message log in delivery order (channel-major); each entry's
  /// `channel` field names the delivering channel.  Filled when
  /// keep_log is set.
  std::vector<DeliveredMessage> log;
};

/// The NoC simulator.
class NetworkSimulator {
 public:
  explicit NetworkSimulator(NetworkConfig config);

  /// Runs the tile-addressed schedule produced by `traffic` (sources
  /// and destinations are tile indices) up to `horizon_s`.
  [[nodiscard]] NetworkRunResult run(const TrafficGenerator& traffic,
                                     double horizon_s, std::uint64_t seed,
                                     bool keep_log = false) const;

  /// Runs a pre-built tile-addressed message schedule.
  [[nodiscard]] NetworkRunResult run(std::vector<Message> schedule,
                                     double horizon_s,
                                     bool keep_log = false) const;

  /// Seed for per-channel derived workloads: `base` itself for a
  /// single-channel network, math::derive_seed(base, channel)
  /// otherwise.  Composite seeding must go through derive_seed — see
  /// the contract in traffic.hpp.
  [[nodiscard]] static std::uint64_t channel_seed(std::uint64_t base,
                                                  std::size_t channel_count,
                                                  std::size_t channel) {
    return channel_count <= 1 ? base : math::derive_seed(base, channel);
  }

  [[nodiscard]] const NetworkConfig& config() const noexcept {
    return config_;
  }
  /// The manager owning channel `ch`'s link budget and code menu.
  [[nodiscard]] const core::LinkManager& manager(std::size_t ch) const {
    return *managers_.at(ch);
  }

 private:
  NetworkConfig config_;
  /// Resolved per-channel state (post override-inheritance).  Channels
  /// without overrides share one manager.
  std::vector<std::shared_ptr<core::LinkManager>> managers_;
  std::vector<bool> has_env_;
};

}  // namespace photecc::noc

#endif  // PHOTECC_NOC_NETWORK_HPP
