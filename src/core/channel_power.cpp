#include "photecc/core/channel_power.hpp"

#include <stdexcept>

#include "photecc/photonics/microring.hpp"

namespace photecc::core {

double enc_dec_power_per_wavelength_w(const ecc::BlockCode& code,
                                      const SystemConfig& config) {
  const std::string name = code.name();
  if (name == "w/o ECC")
    return config.interface_pair.enc_dec_power_per_wavelength_w(
        interface::InterfaceMode::kUncoded, config.wavelengths);
  if (name == "H(7,4)")
    return config.interface_pair.enc_dec_power_per_wavelength_w(
        interface::InterfaceMode::kHamming74, config.wavelengths);
  if (name == "H(71,64)")
    return config.interface_pair.enc_dec_power_per_wavelength_w(
        interface::InterfaceMode::kHamming7164, config.wavelengths);
  // Codes outside Table I: estimate a dedicated coder/decoder pair plus
  // SER/DES sized for the coded frame.
  const interface::SynthesisEstimator estimator;
  const std::size_t k = code.message_length();
  const std::size_t n_data = estimator.clocks().n_data;
  const std::size_t blocks = (n_data + k - 1) / k;
  const std::size_t frame = blocks * code.block_length();
  const double tx_uw = estimator.encoder_bank(code).dynamic_uw +
                       estimator.serializer(frame).dynamic_uw +
                       estimator.path_mux(3, 1).dynamic_uw;
  const double rx_uw = estimator.decoder_bank(code).dynamic_uw +
                       estimator.deserializer(frame).dynamic_uw +
                       estimator.path_mux(3, n_data).dynamic_uw;
  return (tx_uw + rx_uw) * 1e-6 / static_cast<double>(config.wavelengths);
}

std::string scheme_display_name(const SchemeMetrics& metrics) {
  if (metrics.modulation == math::Modulation::kOok) return metrics.scheme;
  return metrics.scheme + " @" + math::to_string(metrics.modulation);
}

SchemeMetrics evaluate_scheme(const link::MwsrChannel& channel,
                              const ecc::BlockCode& code, double target_ber,
                              const SystemConfig& config,
                              const env::EnvironmentSample& environment,
                              const SchemeMetrics* previous) {
  if (config.wavelengths == 0 || config.f_mod_hz <= 0.0)
    throw std::invalid_argument("evaluate_scheme: bad SystemConfig");
  SchemeMetrics m;
  m.scheme = code.name();
  m.modulation = channel.params().modulation;
  const double bits_per_symbol =
      static_cast<double>(math::bits_per_symbol(m.modulation));
  m.target_ber = target_ber;
  m.code_rate = code.code_rate();
  // Multilevel symbols carry bits_per_symbol payload bits per Fmod
  // cycle, dividing the serial transfer time of the same frame.
  m.ct = code.communication_time() / bits_per_symbol;
  // A previous-cell solution is only a valid warm start for the same
  // code; the link solver additionally requires a bit-equal target.
  const link::LinkOperatingPoint* warm =
      (previous && previous->scheme == m.scheme)
          ? &previous->operating_point
          : nullptr;
  m.operating_point = link::solve_operating_point(channel, code, target_ber,
                                                  environment, warm);
  m.feasible = m.operating_point.feasible;
  m.duty_bound = code.transmit_duty_bound();

  m.p_mr_w = photonics::multilevel_modulation_power_w(
      channel.params().ring.modulation_power_w,
      math::levels(m.modulation));
  m.p_enc_dec_w = enc_dec_power_per_wavelength_w(code, config);
  if (m.feasible) {
    m.p_laser_w = m.operating_point.p_laser_w;
    m.p_channel_w = m.p_laser_w + m.p_mr_w + m.p_enc_dec_w;
    // Energy per payload bit: the channel burns Pchannel while moving
    // payload at Fmod * bits_per_symbol * Rc useful bits per second
    // per wavelength.
    m.energy_per_bit_j =
        m.p_channel_w / (config.f_mod_hz * bits_per_symbol * m.code_rate);
    m.p_waveguide_w =
        m.p_channel_w * static_cast<double>(config.wavelengths);
    m.p_interconnect_w =
        m.p_waveguide_w *
        static_cast<double>(config.waveguides_per_channel) *
        static_cast<double>(config.oni_count);
  }
  return m;
}

SchemeMetrics evaluate_scheme(const link::MwsrChannel& channel,
                              const ecc::BlockCode& code, double target_ber,
                              const SystemConfig& config,
                              const env::EnvironmentSample& environment) {
  return evaluate_scheme(channel, code, target_ber, config, environment,
                         nullptr);
}

SchemeMetrics evaluate_scheme(const link::MwsrChannel& channel,
                              const ecc::BlockCode& code, double target_ber,
                              const SystemConfig& config) {
  return evaluate_scheme(channel, code, target_ber, config,
                         channel.environment());
}

ChannelSweepPlan::ChannelSweepPlan(const link::MwsrChannel& channel,
                                   std::vector<ecc::BlockCodePtr> codes,
                                   const SystemConfig& config)
    : channel_(&channel),
      solver_(channel),
      environment_(channel.environment()),
      modulation_(channel.params().modulation) {
  if (config.wavelengths == 0 || config.f_mod_hz <= 0.0)
    throw std::invalid_argument("ChannelSweepPlan: bad SystemConfig");
  bits_per_symbol_ =
      static_cast<double>(math::bits_per_symbol(modulation_));
  f_mod_x_bits_per_symbol_hz_ = config.f_mod_hz * bits_per_symbol_;
  p_mr_w_ = photonics::multilevel_modulation_power_w(
      channel.params().ring.modulation_power_w, math::levels(modulation_));
  wavelengths_d_ = static_cast<double>(config.wavelengths);
  waveguides_d_ = static_cast<double>(config.waveguides_per_channel);
  oni_d_ = static_cast<double>(config.oni_count);
  codes_.reserve(codes.size());
  for (auto& code : codes) {
    if (!code)
      throw std::invalid_argument("ChannelSweepPlan: null code");
    CodeInvariants inv;
    inv.name = code->name();
    inv.code_rate = code->code_rate();
    inv.communication_time = code->communication_time();
    inv.p_enc_dec_w = enc_dec_power_per_wavelength_w(*code, config);
    inv.duty_bound = code->transmit_duty_bound();
    inv.code = std::move(code);
    codes_.push_back(std::move(inv));
  }
}

namespace {

bool outside_target_range(double target_ber) {
  return target_ber <= 0.0 || target_ber >= 0.5;
}

constexpr const char* kTargetRangeError =
    "ChannelSweepPlan: target BER outside (0, 0.5)";

}  // namespace

// Forced inline: evaluate_with_solution is the lowered sweep plan's
// per-cell entry, and sharing this tail with evaluate(.., environment)
// must not add a call per cell there.
[[gnu::always_inline]] inline SchemeMetrics ChannelSweepPlan::assemble(
    const CodeInvariants& inv, double target_ber, double raw_ber,
    double snr, const env::EnvironmentSample& environment) const {
  SchemeMetrics m;
  m.scheme = inv.name;
  m.modulation = modulation_;
  m.target_ber = target_ber;
  m.code_rate = inv.code_rate;
  m.ct = inv.communication_time / bits_per_symbol_;
  m.operating_point = solver_.solve_from_snr(raw_ber, snr, target_ber,
                                             environment, inv.duty_bound);
  m.feasible = m.operating_point.feasible;
  m.duty_bound = inv.duty_bound;

  m.p_mr_w = p_mr_w_;
  m.p_enc_dec_w = inv.p_enc_dec_w;
  if (m.feasible) {
    m.p_laser_w = m.operating_point.p_laser_w;
    m.p_channel_w = m.p_laser_w + m.p_mr_w + m.p_enc_dec_w;
    m.energy_per_bit_j =
        m.p_channel_w / (f_mod_x_bits_per_symbol_hz_ * m.code_rate);
    m.p_waveguide_w = m.p_channel_w * wavelengths_d_;
    m.p_interconnect_w = m.p_waveguide_w * waveguides_d_ * oni_d_;
  }
  return m;
}

SchemeMetrics ChannelSweepPlan::evaluate_with_requirement(
    std::size_t code_index, double target_ber, double raw_ber) const {
  return evaluate_with_solution(
      code_index, target_ber, raw_ber,
      math::snr_from_ber_clamped(modulation_, raw_ber));
}

SchemeMetrics ChannelSweepPlan::evaluate_with_solution(
    std::size_t code_index, double target_ber, double raw_ber,
    double snr) const {
  if (outside_target_range(target_ber))
    throw std::domain_error(kTargetRangeError);
  return assemble(codes_.at(code_index), target_ber, raw_ber, snr,
                  environment_);
}

SchemeMetrics ChannelSweepPlan::evaluate(
    std::size_t code_index, double target_ber,
    const env::EnvironmentSample& environment) const {
  if (outside_target_range(target_ber))
    throw std::domain_error(kTargetRangeError);
  const CodeInvariants& inv = codes_.at(code_index);
  const double raw_ber =
      inv.code->required_raw_ber_checked(target_ber).raw_ber;
  return assemble(inv, target_ber, raw_ber,
                  math::snr_from_ber_clamped(modulation_, raw_ber),
                  environment);
}

SchemeMetrics ChannelSweepPlan::evaluate(std::size_t code_index,
                                         double target_ber,
                                         ecc::RawBerSolveTrace* trace) const {
  const CodeInvariants& inv = codes_.at(code_index);
  return evaluate_with_requirement(
      code_index, target_ber,
      inv.code->required_raw_ber_checked(target_ber, trace).raw_ber);
}

double thermal_headroom_w(const link::MwsrChannel& channel,
                          const SchemeMetrics& metrics,
                          const env::EnvironmentSample& environment) {
  const double op_max = channel.laser().max_optical_power(
      metrics.duty_bound < 1.0
          ? environment.activity * metrics.duty_bound
          : environment.activity);
  return op_max - metrics.operating_point.op_laser_w;
}

std::vector<SchemeMetrics> evaluate_schemes(
    const link::MwsrChannel& channel,
    const std::vector<ecc::BlockCodePtr>& codes, double target_ber,
    const SystemConfig& config, const env::EnvironmentSample& environment) {
  std::vector<SchemeMetrics> out;
  out.reserve(codes.size());
  for (const auto& code : codes) {
    if (!code) throw std::invalid_argument("evaluate_schemes: null code");
    out.push_back(
        evaluate_scheme(channel, *code, target_ber, config, environment));
  }
  return out;
}

std::vector<SchemeMetrics> evaluate_schemes(
    const link::MwsrChannel& channel,
    const std::vector<ecc::BlockCodePtr>& codes, double target_ber,
    const SystemConfig& config) {
  return evaluate_schemes(channel, codes, target_ber, config,
                          channel.environment());
}

}  // namespace photecc::core
