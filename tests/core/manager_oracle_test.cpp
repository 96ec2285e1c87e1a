// LinkManager hoists its channel geometry into a ChannelSweepPlan at
// construction.  The free core::evaluate_schemes stays the oracle: for
// every menu, link, target and environment sample below, the manager's
// candidates must equal it field for field, doubles by bit pattern.
#include "photecc/core/manager.hpp"

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "photecc/cooling/cooling_code.hpp"
#include "photecc/ecc/registry.hpp"

namespace photecc::core {
namespace {

void expect_bit_equal(double expected, double actual, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(expected),
            std::bit_cast<std::uint64_t>(actual))
      << what << ": " << expected << " vs " << actual;
}

void expect_identical(const SchemeMetrics& e, const SchemeMetrics& a) {
  const std::string at = e.scheme + " @ " + std::to_string(e.target_ber);
  EXPECT_EQ(e.scheme, a.scheme) << at;
  EXPECT_EQ(e.modulation, a.modulation) << at;
  expect_bit_equal(e.target_ber, a.target_ber, at + " target_ber");
  expect_bit_equal(e.code_rate, a.code_rate, at + " code_rate");
  expect_bit_equal(e.ct, a.ct, at + " ct");
  EXPECT_EQ(e.feasible, a.feasible) << at;
  expect_bit_equal(e.duty_bound, a.duty_bound, at + " duty_bound");
  expect_bit_equal(e.p_laser_w, a.p_laser_w, at + " p_laser_w");
  expect_bit_equal(e.p_mr_w, a.p_mr_w, at + " p_mr_w");
  expect_bit_equal(e.p_enc_dec_w, a.p_enc_dec_w, at + " p_enc_dec_w");
  expect_bit_equal(e.p_channel_w, a.p_channel_w, at + " p_channel_w");
  expect_bit_equal(e.energy_per_bit_j, a.energy_per_bit_j,
                   at + " energy_per_bit_j");
  expect_bit_equal(e.p_waveguide_w, a.p_waveguide_w, at + " p_waveguide_w");
  expect_bit_equal(e.p_interconnect_w, a.p_interconnect_w,
                   at + " p_interconnect_w");
  const link::LinkOperatingPoint& eo = e.operating_point;
  const link::LinkOperatingPoint& ao = a.operating_point;
  expect_bit_equal(eo.target_ber, ao.target_ber, at + " op.target_ber");
  expect_bit_equal(eo.raw_ber, ao.raw_ber, at + " op.raw_ber");
  expect_bit_equal(eo.snr, ao.snr, at + " op.snr");
  expect_bit_equal(eo.op_signal_w, ao.op_signal_w, at + " op.op_signal_w");
  expect_bit_equal(eo.op_crosstalk_w, ao.op_crosstalk_w,
                   at + " op.op_crosstalk_w");
  expect_bit_equal(eo.op_laser_w, ao.op_laser_w, at + " op.op_laser_w");
  EXPECT_EQ(eo.feasible, ao.feasible) << at;
  expect_bit_equal(eo.p_laser_w, ao.p_laser_w, at + " op.p_laser_w");
}

/// The paper's menu plus a BCH code and a COOL wrap (duty bound < 1).
std::vector<ecc::BlockCodePtr> wide_menu() {
  cooling::register_cooling_codes();
  std::vector<ecc::BlockCodePtr> menu = ecc::paper_schemes();
  menu.push_back(ecc::make_code("BCH(15,7,2)"));
  menu.push_back(ecc::make_code("COOL(H(7,4),1)"));
  return menu;
}

/// t = 0 of the channel, then activities up to and past the point
/// where the laser can no longer deliver the uncoded operating point.
std::vector<env::EnvironmentSample> samples(const link::MwsrChannel& channel) {
  return {channel.environment(),
          {0.0, 0.0},
          {1e-6, 0.5},
          {2e-6, 0.8},
          {3e-6, 0.95},
          {4e-6, 1.0}};
}

const std::vector<double> kTargets = {1e-3, 1e-6, 1e-9, 1e-11,
                                      1e-12, 1e-15, 1e-25};

/// Runs the oracle comparison over every target and sample; returns how
/// many candidates were feasible so callers can assert coverage.
std::size_t check_against_oracle(const link::MwsrParams& params,
                                 const SystemConfig& config = {}) {
  const std::vector<ecc::BlockCodePtr> menu = wide_menu();
  const LinkManager manager(link::MwsrChannel(params), menu, config);
  std::size_t feasible = 0;
  for (const env::EnvironmentSample& sample : samples(manager.channel())) {
    for (const double target : kTargets) {
      const std::vector<SchemeMetrics> oracle = evaluate_schemes(
          manager.channel(), menu, target, config, sample);
      const std::vector<SchemeMetrics> hoisted =
          manager.candidates(target, sample);
      EXPECT_EQ(oracle.size(), hoisted.size());
      for (std::size_t i = 0; i < oracle.size() && i < hoisted.size(); ++i) {
        SCOPED_TRACE("activity " + std::to_string(sample.activity));
        expect_identical(oracle[i], hoisted[i]);
        if (hoisted[i].feasible) ++feasible;
      }
    }
  }
  // The t = 0 overload is the same solve at channel.environment().
  for (const double target : kTargets) {
    const auto at_zero = manager.candidates(target);
    const auto oracle = evaluate_schemes(manager.channel(), menu, target,
                                         config);
    for (std::size_t i = 0; i < oracle.size(); ++i)
      expect_identical(oracle[i], at_zero[i]);
  }
  return feasible;
}

TEST(LinkManagerOracle, PaperLinkMatchesFreeEvaluateSchemes) {
  const std::size_t feasible = check_against_oracle(link::MwsrParams{});
  EXPECT_GT(feasible, 0u);
}

TEST(LinkManagerOracle, NonDefaultSystemConfigMatches) {
  SystemConfig config;
  config.f_mod_hz = 25e9;
  config.wavelengths = 8;
  config.waveguides_per_channel = 4;
  config.oni_count = 6;
  link::MwsrParams params;
  params.oni_count = 6;
  params.grid.channel_count = 8;
  EXPECT_GT(check_against_oracle(params, config), 0u);
}

TEST(LinkManagerOracle, Pam4LinkMatches) {
  link::MwsrParams params;
  params.modulation = math::Modulation::kPam4;
  params.oni_count = 4;
  params.waveguide_length_m = 0.02;
  EXPECT_GT(check_against_oracle(params), 0u);
}

TEST(LinkManagerOracle, LongLinksMatchWhereNothingIsFeasible) {
  // A 1 m waveguide still has a positive eye margin, but no laser can
  // close it; a dense 0.05 nm grid on a 30 cm, 32-ONI waveguide has
  // more crosstalk than eye (margin <= 0).
  link::MwsrParams lossy;
  lossy.waveguide_length_m = 1.0;
  lossy.oni_count = 64;
  EXPECT_EQ(check_against_oracle(lossy), 0u);

  link::MwsrParams dense;
  dense.waveguide_length_m = 0.30;
  dense.oni_count = 32;
  dense.grid.channel_spacing_m = 0.05e-9;
  const LinkManager probe(link::MwsrChannel(dense), ecc::paper_schemes());
  ASSERT_LE(probe.channel().eye_transmission(probe.channel().worst_channel()) -
                probe.channel().crosstalk_transmission(
                    probe.channel().worst_channel()),
            0.0);
  EXPECT_EQ(check_against_oracle(dense), 0u);
  EXPECT_FALSE(probe.configure({}).has_value());
}

TEST(LinkManagerOracle, HighActivityDropsFeasibleSchemes) {
  // Past the laser's limit the candidates turn infeasible, and the
  // manager still agrees with the oracle there (checked above); here
  // pin that the sweep really crosses that limit.
  const std::vector<ecc::BlockCodePtr> menu = wide_menu();
  const LinkManager manager(link::MwsrChannel(link::MwsrParams{}), menu);
  std::size_t cool = 0;
  std::size_t hot = 0;
  for (const SchemeMetrics& m : manager.candidates(1e-11, {0.0, 0.25}))
    cool += m.feasible ? 1 : 0;
  for (const SchemeMetrics& m : manager.candidates(1e-11, {0.0, 1.0}))
    hot += m.feasible ? 1 : 0;
  EXPECT_GT(cool, hot);
}

TEST(LinkManagerOracle, BadSystemConfigIsRejectedAtConstruction) {
  SystemConfig config;
  config.wavelengths = 0;
  EXPECT_THROW(LinkManager(link::MwsrChannel(link::MwsrParams{}),
                           ecc::paper_schemes(), config),
               std::invalid_argument);
}

TEST(LinkManagerOracle, TargetOutsideTheRangeThrowsLikeTheOracle) {
  const LinkManager manager(link::MwsrChannel(link::MwsrParams{}),
                            ecc::paper_schemes());
  for (const double target : {0.0, 0.5, -1e-9}) {
    EXPECT_THROW((void)evaluate_schemes(manager.channel(), manager.codes(),
                                        target),
                 std::domain_error);
    EXPECT_THROW((void)manager.candidates(target), std::domain_error);
  }
}

}  // namespace
}  // namespace photecc::core
