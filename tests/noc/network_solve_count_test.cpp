// How often the network solves its link: a channel's manager answers a
// request from its cache after the first solve, and channels that share
// one LinkManager without an environment timeline share that cache, so
// a constant-environment run pays one menu solve per distinct request
// however many channels carry it.  Channels under a timeline keep their
// own closed loops; their per-channel recalibration and thermal-drop
// counts are pinned here.
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "photecc/ecc/registry.hpp"
#include "photecc/noc/network.hpp"
#include "photecc/noc/traffic.hpp"

namespace photecc::noc {
namespace {

/// Forwards every call to `inner` and counts the raw-BER inversions —
/// one per code per menu solve.
class CountingCode final : public ecc::BlockCode {
 public:
  explicit CountingCode(ecc::BlockCodePtr inner) : inner_(std::move(inner)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::size_t block_length() const noexcept override {
    return inner_->block_length();
  }
  [[nodiscard]] std::size_t message_length() const noexcept override {
    return inner_->message_length();
  }
  [[nodiscard]] std::size_t min_distance() const noexcept override {
    return inner_->min_distance();
  }
  [[nodiscard]] ecc::BitVec encode(const ecc::BitVec& message) const override {
    return inner_->encode(message);
  }
  [[nodiscard]] ecc::DecodeResult decode(
      const ecc::BitVec& received) const override {
    return inner_->decode(received);
  }
  [[nodiscard]] double decoded_ber(double raw_p) const override {
    return inner_->decoded_ber(raw_p);
  }
  [[nodiscard]] ecc::RawBerRequirement required_raw_ber_checked(
      double target_ber, ecc::RawBerSolveTrace* trace) const override {
    ++solves_;
    return inner_->required_raw_ber_checked(target_ber, trace);
  }
  [[nodiscard]] double transmit_duty_bound() const noexcept override {
    return inner_->transmit_duty_bound();
  }

  [[nodiscard]] std::uint64_t solves() const noexcept { return solves_; }

 private:
  ecc::BlockCodePtr inner_;
  mutable std::atomic<std::uint64_t> solves_{0};
};

struct CountingMenu {
  std::vector<std::shared_ptr<const CountingCode>> counters;
  std::vector<ecc::BlockCodePtr> menu;
};

CountingMenu counting_paper_menu() {
  CountingMenu m;
  for (const ecc::BlockCodePtr& code : ecc::paper_schemes()) {
    m.counters.push_back(std::make_shared<const CountingCode>(code));
    m.menu.push_back(m.counters.back());
  }
  return m;
}

TEST(NetworkSolveCount, ConstantEnvironmentSolvesOncePerDistinctRequest) {
  constexpr std::size_t kTiles = 12;
  const CountingMenu counting = counting_paper_menu();
  NetworkConfig config;
  config.topology = {kTiles, kTiles};
  config.scheme_menu = counting.menu;
  const NetworkSimulator network(config);

  // One traffic class, so every message carries the same request.
  const UniformRandomTraffic traffic(kTiles, 4e8, 4096);
  const double horizon = 10e-6;
  const auto schedule = traffic.generate(horizon, 5);
  std::vector<bool> reached(kTiles, false);
  for (const Message& m : schedule) reached[m.destination] = true;
  for (std::size_t ch = 0; ch < kTiles; ++ch)
    ASSERT_TRUE(reached[ch]) << "channel " << ch << " carries no traffic";

  const NetworkRunResult run = network.run(schedule, horizon);
  EXPECT_GT(run.stats.aggregate.delivered, 0u);
  for (const auto& counter : counting.counters)
    EXPECT_EQ(counter->solves(), 1u) << counter->name();

  // A second run builds fresh caches: one more solve, not twelve.
  (void)network.run(schedule, horizon);
  for (const auto& counter : counting.counters)
    EXPECT_EQ(counter->solves(), 2u) << counter->name();
}

TEST(NetworkSolveCount, TwoClassesSolveTwicePerCode) {
  constexpr std::size_t kTiles = 8;
  const CountingMenu counting = counting_paper_menu();
  NetworkConfig config;
  config.topology = {kTiles, 4};
  config.scheme_menu = counting.menu;
  config.class_requirements[TrafficClass::kRealTime] = {
      1e-12, core::Policy::kMinTime, std::nullopt, std::nullopt};
  const NetworkSimulator network(config);

  std::vector<Message> schedule;
  for (std::uint64_t i = 0; i < 64; ++i) {
    Message m;
    m.id = i;
    m.source = (i + 1) % kTiles;
    m.destination = i % kTiles;
    m.payload_bits = 512;
    m.creation_time_s = static_cast<double>(i) * 20e-9;
    m.traffic_class =
        i % 2 ? TrafficClass::kRealTime : TrafficClass::kBestEffort;
    schedule.push_back(m);
  }
  const NetworkRunResult run = network.run(schedule, 4e-6);
  EXPECT_EQ(run.stats.aggregate.delivered, 64u);
  for (const auto& counter : counting.counters)
    EXPECT_EQ(counter->solves(), 2u) << counter->name();
}

/// Per-channel closed-loop counters of a timeline-driven network:
/// uncoded-only at BER 1e-11 under the shared base ramp, a hotter ramp
/// of its own on channel 2, and a menu with H(7,4) on channel 3.  The
/// ramps open thermal windows, so drops, their thermal classification
/// and drift recalibrations all show.
TEST(NetworkSolveCount, TimelineChannelsKeepTheirOwnClosedLoops) {
  constexpr std::size_t kTiles = 8;
  constexpr std::size_t kChannels = 4;
  NetworkConfig config;
  config.topology = {kTiles, kChannels};
  config.base_link.environment =
      env::EnvironmentTimeline::ramp(1e-6, 5e-6, 0.25, 0.7);
  config.channels.resize(kChannels);
  config.channels[2].environment =
      env::EnvironmentTimeline::ramp(0.5e-6, 3e-6, 0.3, 1.0);
  config.channels[3].scheme_menu = {ecc::make_code("w/o ECC"),
                                    ecc::make_code("H(7,4)")};
  config.scheme_menu = {ecc::make_code("w/o ECC")};
  config.default_requirements.target_ber = 1e-11;
  const NetworkSimulator network(config);

  const UniformRandomTraffic traffic(kTiles, 6e8, 2048);
  const double horizon = 6e-6;
  const NetworkRunResult run = network.run(traffic, horizon, 11);

  // Pinned from the engine where every channel built its own
  // recalibrating cache; sharing caches must not move them.
  struct Expected {
    std::uint64_t delivered, dropped, dropped_thermal, recalibrations;
  };
  const Expected expected[kChannels] = {
      {294, 621, 621, 21}, {295, 639, 639, 21},
      {104, 867, 867, 31}, {888, 0, 0, 20}};
  for (std::size_t ch = 0; ch < kChannels; ++ch) {
    const NocStats& s = run.stats.channels[ch];
    EXPECT_EQ(s.delivered, expected[ch].delivered) << "channel " << ch;
    EXPECT_EQ(s.dropped, expected[ch].dropped) << "channel " << ch;
    EXPECT_EQ(s.dropped_thermal, expected[ch].dropped_thermal)
        << "channel " << ch;
    EXPECT_EQ(s.recalibrations, expected[ch].recalibrations)
        << "channel " << ch;
  }
}

}  // namespace
}  // namespace photecc::noc
