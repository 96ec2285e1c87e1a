// The tiled photonic network: topology mapping, the pinned one-channel-
// per-ONI reduction, per-channel statistics, and heterogeneous
// per-channel coding/environment behaviour.
#include "photecc/noc/network.hpp"

#include <bit>
#include <cstdint>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "photecc/ecc/registry.hpp"
#include "photecc/math/hash.hpp"
#include "photecc/noc/traffic.hpp"

namespace photecc::noc {
namespace {

Message make_message(std::uint64_t id, std::size_t src, std::size_t dst,
                     std::uint64_t bits, double t,
                     TrafficClass cls = TrafficClass::kBestEffort) {
  Message m;
  m.id = id;
  m.source = src;
  m.destination = dst;
  m.payload_bits = bits;
  m.creation_time_s = t;
  m.traffic_class = cls;
  return m;
}

/// fnv1a64 over a canonical byte rendering: integers as 8 little-endian
/// bytes, doubles by their IEEE-754 bit patterns, strings length-prefixed.
/// Bitwise, so any last-ulp drift changes the value.
class Fingerprint {
 public:
  void add(std::uint64_t v) {
    char bytes[8];
    for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>(v >> (8 * i));
    hash_ = math::fnv1a64(std::string_view(bytes, 8), hash_);
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    hash_ = math::fnv1a64(s, hash_);
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = math::kFnv1a64OffsetBasis;
};

/// Every NocStats field, plus the run's payload total.
std::uint64_t stats_fingerprint(const NocStats& s,
                                std::uint64_t total_payload_bits) {
  Fingerprint f;
  f.add(s.delivered);
  f.add(s.dropped);
  f.add(s.dropped_thermal);
  f.add(s.deadline_misses);
  f.add(s.mean_latency_s);
  f.add(s.max_latency_s);
  f.add(s.p95_latency_s);
  f.add(s.total_energy_j);
  f.add(s.laser_energy_j);
  f.add(s.mr_energy_j);
  f.add(s.codec_energy_j);
  f.add(s.idle_laser_energy_j);
  f.add(s.busy_time_s);
  f.add(s.horizon_s);
  f.add(s.recalibrations);
  f.add(s.recalibration_energy_j);
  f.add(s.recalibration_latency_s);
  f.add(s.peak_activity);
  f.add(s.final_activity);
  f.add(static_cast<std::uint64_t>(s.phases.size()));
  for (const NocPhaseStats& p : s.phases) {
    f.add(p.label);
    f.add(p.start_s);
    f.add(p.end_s);
    f.add(p.delivered);
    f.add(p.dropped);
    f.add(p.deadline_misses);
    f.add(p.mean_latency_s);
  }
  f.add(static_cast<std::uint64_t>(s.scheme_usage.size()));
  for (const auto& [scheme, count] : s.scheme_usage) {
    f.add(scheme);
    f.add(count);
  }
  f.add(static_cast<std::uint64_t>(s.class_mean_latency_s.size()));
  for (const auto& [cls, latency] : s.class_mean_latency_s) {
    f.add(static_cast<std::uint64_t>(cls));
    f.add(latency);
  }
  f.add(total_payload_bits);
  return f.value();
}

/// Every field of every delivered-message row, in log order.
std::uint64_t log_fingerprint(const std::vector<DeliveredMessage>& log) {
  Fingerprint f;
  f.add(static_cast<std::uint64_t>(log.size()));
  for (const DeliveredMessage& d : log) {
    f.add(d.message.id);
    f.add(static_cast<std::uint64_t>(d.message.source));
    f.add(static_cast<std::uint64_t>(d.message.destination));
    f.add(d.message.payload_bits);
    f.add(d.message.creation_time_s);
    f.add(static_cast<std::uint64_t>(d.message.traffic_class));
    f.add(static_cast<std::uint64_t>(d.message.deadline_s.has_value()));
    f.add(d.message.deadline_s.value_or(0.0));
    f.add(static_cast<std::uint64_t>(d.channel));
    f.add(d.start_time_s);
    f.add(d.completion_time_s);
    f.add(d.latency_s);
    f.add(d.scheme);
    f.add(d.energy_j);
    f.add(static_cast<std::uint64_t>(d.deadline_missed));
    f.add(d.activity);
    f.add(static_cast<std::uint64_t>(d.recalibrated));
  }
  return f.value();
}

TEST(NetworkTopology, InterleavedMappingSpreadsNeighbours) {
  NetworkTopology topo;
  topo.tile_count = 8;
  topo.channel_count = 4;
  topo.mapping = NetworkTopology::Mapping::kInterleaved;
  topo.validate();
  EXPECT_EQ(topo.channel_of_tile(0), 0u);
  EXPECT_EQ(topo.channel_of_tile(1), 1u);
  EXPECT_EQ(topo.channel_of_tile(5), 1u);
  EXPECT_EQ(topo.tiles_of_channel(2), (std::vector<std::size_t>{2, 6}));
}

TEST(NetworkTopology, BlockedMappingKeepsNeighboursTogether) {
  NetworkTopology topo;
  topo.tile_count = 8;
  topo.channel_count = 4;
  topo.mapping = NetworkTopology::Mapping::kBlocked;
  topo.validate();
  EXPECT_EQ(topo.channel_of_tile(0), 0u);
  EXPECT_EQ(topo.channel_of_tile(1), 0u);
  EXPECT_EQ(topo.channel_of_tile(7), 3u);
  EXPECT_EQ(topo.tiles_of_channel(1), (std::vector<std::size_t>{2, 3}));
}

TEST(NetworkTopology, EveryTileBelongsToExactlyOneChannel) {
  for (const auto mapping : {NetworkTopology::Mapping::kInterleaved,
                             NetworkTopology::Mapping::kBlocked}) {
    NetworkTopology topo;
    topo.tile_count = 13;  // deliberately not divisible by K
    topo.channel_count = 5;
    topo.mapping = mapping;
    topo.validate();
    std::size_t covered = 0;
    for (std::size_t ch = 0; ch < topo.channel_count; ++ch) {
      for (const std::size_t tile : topo.tiles_of_channel(ch)) {
        EXPECT_EQ(topo.channel_of_tile(tile), ch);
        ++covered;
      }
    }
    EXPECT_EQ(covered, topo.tile_count);
  }
}

TEST(NetworkTopology, RejectsUnusableGeometries) {
  NetworkTopology topo;
  topo.tile_count = 1;
  EXPECT_THROW(topo.validate(), std::invalid_argument);
  topo.tile_count = 4;
  topo.channel_count = 0;
  EXPECT_THROW(topo.validate(), std::invalid_argument);
  topo.channel_count = 5;
  EXPECT_THROW(topo.validate(), std::invalid_argument);
}

// The paper's Fig. 2a topology is a network with one channel per ONI.
// A dedicated single-channel simulator ran it until the network engine
// absorbed it; these fingerprints were captured from that simulator on
// the same inputs, and the network must keep reproducing them bit for
// bit — stats and the full message log.  Drift means floating-point
// accumulation order, event ordering or stat finalisation changed: a
// bug, not a reason to re-pin.
constexpr std::uint64_t kPerOniStatsFingerprint = 0xa1a25ef1f090583dULL;
constexpr std::uint64_t kPerOniLogFingerprint = 0x96a2a60fecd06a2fULL;
constexpr std::uint64_t kPerOniEnvStatsFingerprint = 0x1fbc9c879a8f3122ULL;
constexpr std::uint64_t kPerOniEnvLogFingerprint = 0xc9bcd591be7f1b69ULL;

TEST(NetworkSimulator, OneChannelPerTileReproducesNocSimulatorBitForBit) {
  constexpr std::size_t kOnis = 8;
  NetworkConfig config;
  config.topology = {kOnis, kOnis};
  const NetworkSimulator network(config);

  const UniformRandomTraffic traffic(kOnis, 4e8, 4096);
  const double horizon = 10e-6;
  const auto schedule = traffic.generate(horizon, 42);
  const NetworkRunResult run = network.run(schedule, horizon, true);

  EXPECT_EQ(stats_fingerprint(run.stats.aggregate, run.total_payload_bits),
            kPerOniStatsFingerprint);
  EXPECT_EQ(log_fingerprint(run.log), kPerOniLogFingerprint);
  EXPECT_EQ(run.log.size(), 4026u);
  // In the reduction a message's channel is its destination ONI.
  for (const DeliveredMessage& d : run.log)
    EXPECT_EQ(d.channel, d.message.destination);
}

// Same reduction under a time-varying environment: recalibration,
// thermal drops and phase statistics all flow through the same engine.
TEST(NetworkSimulator, EnvironmentReductionIsBitForBitToo) {
  constexpr std::size_t kOnis = 6;
  // Uncoded-only at BER 1e-11: the ramp opens a thermal window, so the
  // reduction also covers drops, thermal classification and
  // recalibration accounting.
  NetworkConfig config;
  config.topology = {kOnis, kOnis};
  config.base_link.environment =
      env::EnvironmentTimeline::ramp(2e-6, 4e-6, 0.25, 1.0);
  config.scheme_menu = {ecc::make_code("w/o ECC")};
  config.default_requirements.target_ber = 1e-11;
  const NetworkSimulator network(config);

  const UniformRandomTraffic traffic(kOnis, 4e8, 4096);
  const double horizon = 6e-6;
  const auto schedule = traffic.generate(horizon, 7);
  const NetworkRunResult run = network.run(schedule, horizon, true);

  EXPECT_EQ(stats_fingerprint(run.stats.aggregate, run.total_payload_bits),
            kPerOniEnvStatsFingerprint);
  EXPECT_EQ(log_fingerprint(run.log), kPerOniEnvLogFingerprint);
  EXPECT_GT(run.stats.aggregate.dropped, 0u);  // the ramp bites
  EXPECT_FALSE(run.stats.aggregate.phases.empty());
  // Keeping the log must not perturb the statistics.
  const NetworkRunResult unlogged = network.run(schedule, horizon);
  EXPECT_TRUE(unlogged.stats.aggregate == run.stats.aggregate);
}

// Channels without overrides share one manager, so a per-ONI network
// builds one link budget however many channels it has; any override
// gives that channel its own.
TEST(NetworkSimulator, OverrideFreeChannelsShareOneManager) {
  NetworkConfig config;
  config.topology = {8, 8};
  const NetworkSimulator uniform(config);
  for (std::size_t ch = 1; ch < 8; ++ch)
    EXPECT_EQ(&uniform.manager(ch), &uniform.manager(0));

  config.channels.resize(8);
  config.channels[3].scheme_menu = {ecc::make_code("H(7,4)")};
  config.channels[5].oni_count = 4;
  const NetworkSimulator mixed(config);
  EXPECT_EQ(&mixed.manager(1), &mixed.manager(0));
  EXPECT_EQ(&mixed.manager(7), &mixed.manager(0));
  EXPECT_NE(&mixed.manager(3), &mixed.manager(0));
  EXPECT_NE(&mixed.manager(5), &mixed.manager(0));
  EXPECT_EQ(mixed.manager(3).codes().size(), 1u);
  EXPECT_EQ(mixed.manager(5).channel().params().oni_count, 4u);
}

TEST(NetworkSimulator, PerChannelStatsSumToTheAggregate) {
  NetworkConfig config;
  config.topology.tile_count = 8;
  config.topology.channel_count = 4;
  const NetworkSimulator network(config);

  const UniformRandomTraffic traffic(8, 4e8, 4096);
  const double horizon = 10e-6;
  const auto result = network.run(traffic, horizon, 3, true);

  ASSERT_EQ(result.stats.channels.size(), 4u);
  std::uint64_t delivered = 0;
  std::uint64_t payload = 0;
  double laser = 0.0;
  for (std::size_t ch = 0; ch < 4; ++ch) {
    delivered += result.stats.channels[ch].delivered;
    payload += result.stats.channel_payload_bits[ch];
    laser += result.stats.channels[ch].laser_energy_j;
    EXPECT_EQ(result.stats.channels[ch].horizon_s, horizon);
  }
  EXPECT_EQ(delivered, result.stats.aggregate.delivered);
  EXPECT_GT(delivered, 0u);
  EXPECT_EQ(payload, result.total_payload_bits);
  // Energies agree to rounding (the aggregate accumulates in message
  // order, the channel totals per channel — grouping may differ in the
  // last ulp, which is exactly why the aggregate has its own sink).
  EXPECT_NEAR(laser, result.stats.aggregate.laser_energy_j,
              1e-12 * laser + 1e-30);
  // Every logged delivery names the channel that carried it.
  for (const auto& d : result.log)
    EXPECT_EQ(d.channel,
              network.config().topology.channel_of_tile(d.message.destination));
}

TEST(NetworkSimulator, SharedChannelsSerialiseCrossTileTraffic) {
  // Two tiles per channel: inbound traffic for both tiles of a channel
  // contends on it, so latency is at least the one-reader-per-tile
  // latency under the same schedule.
  NetworkConfig shared;
  shared.topology.tile_count = 8;
  shared.topology.channel_count = 2;
  NetworkConfig private_channels;
  private_channels.topology.tile_count = 8;
  private_channels.topology.channel_count = 8;

  const UniformRandomTraffic traffic(8, 8e8, 4096);
  const double horizon = 10e-6;
  const auto schedule = traffic.generate(horizon, 11);
  const auto contended = NetworkSimulator(shared).run(schedule, horizon);
  const auto free = NetworkSimulator(private_channels).run(schedule, horizon);
  EXPECT_EQ(contended.stats.aggregate.delivered,
            free.stats.aggregate.delivered);
  EXPECT_GE(contended.stats.aggregate.mean_latency_s,
            free.stats.aggregate.mean_latency_s);
}

TEST(NetworkSimulator, HeterogeneousCodingSavesTheHotChannel) {
  // Channel 0 rides a ramp into saturation, channel 1 stays cool.  An
  // uncoded-only network drops on the hot channel at BER 1e-11; giving
  // just the hot channel H(7,4) clears every drop while the cool
  // channel still runs uncoded (visible in per-channel scheme usage).
  NetworkConfig config;
  config.topology.tile_count = 4;
  config.topology.channel_count = 2;
  config.default_requirements.target_ber = 1e-11;
  config.scheme_menu = {ecc::make_code("w/o ECC")};
  config.channels.resize(2);
  config.channels[0].environment =
      env::EnvironmentTimeline::ramp(2e-6, 4e-6, 0.25, 1.0);
  config.channels[1].environment = env::EnvironmentTimeline::constant(0.25);

  std::vector<Message> schedule;
  for (std::size_t i = 0; i < 60; ++i) {
    const double t = 100e-9 * static_cast<double>(i);
    schedule.push_back(make_message(2 * i, 1, 0, 4096, t));      // hot ch 0
    schedule.push_back(make_message(2 * i + 1, 0, 1, 4096, t));  // cool ch 1
  }
  const double horizon = 6e-6;

  const auto uniform = NetworkSimulator(config).run(schedule, horizon);
  EXPECT_GT(uniform.stats.channels[0].dropped, 0u);
  EXPECT_EQ(uniform.stats.channels[0].dropped_thermal,
            uniform.stats.channels[0].dropped);
  EXPECT_EQ(uniform.stats.channels[1].dropped, 0u);
  // Heterogeneous aggregate: phases stay empty (no single phase axis).
  EXPECT_TRUE(uniform.stats.aggregate.phases.empty());
  EXPECT_FALSE(uniform.stats.channels[0].phases.empty());

  config.channels[0].scheme_menu = {ecc::make_code("H(7,4)")};
  const auto hardened = NetworkSimulator(config).run(schedule, horizon);
  EXPECT_EQ(hardened.stats.aggregate.dropped, 0u);
  EXPECT_EQ(hardened.stats.channels[0].scheme_usage.count("H(7,4)"), 1u);
  EXPECT_EQ(hardened.stats.channels[1].scheme_usage.count("w/o ECC"), 1u);
}

TEST(NetworkSimulator, RejectsBadSchedulesAndGeometries) {
  NetworkConfig config;
  config.topology.tile_count = 4;
  config.topology.channel_count = 2;
  const NetworkSimulator network(config);
  EXPECT_THROW(network.run({make_message(0, 0, 4, 64, 0.0)}, 1e-6),
               std::invalid_argument);
  EXPECT_THROW(network.run({make_message(0, 2, 2, 64, 0.0)}, 1e-6),
               std::invalid_argument);
  EXPECT_THROW(network.run({}, 0.0), std::invalid_argument);

  NetworkConfig wrong_channels;
  wrong_channels.topology.tile_count = 4;
  wrong_channels.topology.channel_count = 2;
  wrong_channels.channels.resize(3);
  EXPECT_THROW(NetworkSimulator{wrong_channels}, std::invalid_argument);
}

}  // namespace
}  // namespace photecc::noc
