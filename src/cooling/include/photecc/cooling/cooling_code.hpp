// Cooling codes as ecc::BlockCode schemes: enumerative weight-bounding
// outer coding, optionally concatenated with a systematic FEC inner code
// from the existing ecc menu.
//
// Two name forms, both registered with ecc::make_code via
// register_cooling_codes():
//
//   "COOL(64,16)"         pure cooling code: 64-wire words, weight <= 16
//                         (no error correction, min_distance 1)
//   "COOL(H(71,64),16)"   error-correcting cooling code: bounded-weight
//                         64-bit words fed through the systematic
//                         H(71,64) encoder; wire weight <= 16 + 7
//
// The guaranteed wire duty bound (transmit_duty_bound) is
// (w + n - m) / n for an (n, m) systematic inner code — message
// positions carry the bounded-weight word verbatim, and the n - m
// parity positions can at worst all be hot.  The thermal stack
// multiplies channel activity by this bound (see
// ecc::BlockCode::transmit_duty_bound).
#ifndef PHOTECC_COOLING_COOLING_CODE_HPP
#define PHOTECC_COOLING_COOLING_CODE_HPP

#include <cstddef>
#include <optional>
#include <string>

#include "photecc/cooling/enumerative.hpp"
#include "photecc/ecc/block_code.hpp"

namespace photecc::cooling {

/// Parsed form of a cooling-code name.
struct CoolingName {
  bool pure = false;         ///< "COOL(n,w)" (no inner FEC)
  std::string inner;         ///< inner code name when !pure
  std::size_t length = 0;    ///< n, when pure
  std::size_t weight = 0;    ///< the outer weight bound w
};

/// "COOL(n,w)" — pure cooling code name.
[[nodiscard]] std::string cooling_name(std::size_t length, std::size_t weight);
/// "COOL(<inner>,w)" — concatenated cooling code name.
[[nodiscard]] std::string cooling_name(const std::string& inner,
                                       std::size_t weight);

/// True when `name` is shaped like a cooling-code name ("COOL(...)").
/// Shape only — the inner name / parameters may still be invalid.
[[nodiscard]] bool is_cooling_name(const std::string& name);

/// Parses "COOL(n,w)" / "COOL(<inner>,w)".  Returns nullopt when the
/// name is not COOL-shaped; throws std::invalid_argument when it is
/// COOL-shaped but malformed (missing comma, nested COOL inner, zero
/// weight, non-numeric n).
[[nodiscard]] std::optional<CoolingName> parse_cooling_name(
    const std::string& name);

/// Weight-bounding block code: enumerative outer encoding into words of
/// weight <= weight(), then a systematic inner FEC encode (identity for
/// the pure form).  message_length() = floor(log2 sum_{i<=w} C(m, i))
/// for an m-bit inner message.
class CoolingScheme : public ecc::BlockCode {
 public:
  /// Builds from a parsed name.  Throws std::invalid_argument when the
  /// inner code is unknown, the weight is out of range, or the inner
  /// encoder fails the construction-time systematic-form check (message
  /// bits must appear verbatim in the codeword — the property the wire
  /// weight bound rests on; all menu codes pass).
  explicit CoolingScheme(const CoolingName& parsed);

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] std::size_t block_length() const noexcept override;
  [[nodiscard]] std::size_t message_length() const noexcept override {
    return coder_.message_bits();
  }
  [[nodiscard]] std::size_t min_distance() const noexcept override;
  [[nodiscard]] ecc::BitVec encode(const ecc::BitVec& message) const override;
  [[nodiscard]] ecc::DecodeResult decode(
      const ecc::BitVec& received) const override;

  /// Bitsliced wraps: the inner FEC runs its batch kernel; the
  /// enumerative rank/unrank stays lane-serial (it is a data-dependent
  /// walk of Pascal's triangle), with the lanes moved out of and back
  /// into the slab by the BitSlab block-transpose converters.
  /// Bit-identical to the scalar path.
  [[nodiscard]] codec::BitSlab encode_batch(
      const codec::BitSlab& messages) const override;
  [[nodiscard]] ecc::BatchDecodeResult decode_batch(
      const codec::BitSlab& received) const override;

  [[nodiscard]] double decoded_ber(double raw_p) const override;
  [[nodiscard]] double transmit_duty_bound() const noexcept override {
    return duty_bound_;
  }

  /// The outer weight bound w: every inner message word has <= w ones.
  [[nodiscard]] std::size_t weight_bound() const noexcept {
    return coder_.max_weight();
  }
  /// The inner FEC scheme (UncodedScheme for the pure form).
  [[nodiscard]] const ecc::BlockCode& inner() const noexcept {
    return *inner_;
  }

 private:
  ecc::BlockCodePtr inner_;
  BoundedWeightCoder coder_;
  std::string name_;
  double duty_bound_ = 1.0;
};

/// Builds a cooling code from its name.  Throws std::invalid_argument
/// for anything that is not a valid cooling-code name.
[[nodiscard]] ecc::BlockCodePtr make_cooling_code(const std::string& name);

/// Factory form for the ecc registry: nullptr when `name` is not
/// COOL-shaped, otherwise make_cooling_code (which may throw on
/// malformed parameters — the error carries the reason).
[[nodiscard]] ecc::BlockCodePtr try_make_cooling_code(const std::string& name);

/// Registers the COOL(...) family with ecc::make_code.  Idempotent and
/// thread-safe; every entry point that resolves code names (spec
/// validation, explore evaluators, lowered plans) calls it.
void register_cooling_codes();

}  // namespace photecc::cooling

#endif  // PHOTECC_COOLING_COOLING_CODE_HPP
