#include "photecc/cooling/cooling_code.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "photecc/ecc/registry.hpp"
#include "photecc/ecc/uncoded.hpp"

namespace photecc::cooling {
namespace {

constexpr const char* kPrefix = "COOL(";

[[nodiscard]] bool all_digits(const std::string& s) {
  return !s.empty() &&
         std::all_of(s.begin(), s.end(), [](unsigned char c) {
           return std::isdigit(c) != 0;
         });
}

[[nodiscard]] std::size_t parse_size(const std::string& s,
                                     const std::string& name,
                                     const char* what) {
  if (!all_digits(s)) {
    throw std::invalid_argument("cooling code '" + name + "': " + what +
                                " '" + s + "' is not a positive integer");
  }
  return static_cast<std::size_t>(std::stoull(s));
}

/// Construction-time check that the inner encoder is in systematic form:
/// the zero message encodes to the zero codeword, and each unit message
/// vector e_i lights exactly one codeword position p_i that no other e_j
/// lights.  For a linear encoder this means codeword[p_i] == message[i]
/// for every message, which is what the wire weight bound
/// w + (n - m) rests on (message positions carry at most w ones, the
/// remaining n - m positions at most n - m).
void require_systematic(const ecc::BlockCode& inner, const std::string& name) {
  const std::size_t m = inner.message_length();
  const std::size_t n = inner.block_length();
  if (inner.encode(ecc::BitVec(m)).popcount() != 0) {
    throw std::invalid_argument("cooling code '" + name +
                                "': inner encoder is not linear "
                                "(zero message -> non-zero codeword)");
  }
  // ones_count[p] = how many unit vectors light codeword position p.
  std::vector<std::size_t> ones_count(n, 0);
  std::vector<ecc::BitVec> columns;
  columns.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    ecc::BitVec e(m);
    e.set(i, true);
    columns.push_back(inner.encode(e));
    for (std::size_t p = 0; p < n; ++p) {
      if (columns.back().get(p)) ++ones_count[p];
    }
  }
  for (std::size_t i = 0; i < m; ++i) {
    bool found = false;
    for (std::size_t p = 0; p < n && !found; ++p) {
      found = columns[i].get(p) && ones_count[p] == 1;
    }
    if (!found) {
      throw std::invalid_argument(
          "cooling code '" + name + "': inner code " + inner.name() +
          " is not systematic (message bit " + std::to_string(i) +
          " has no dedicated codeword position), so the wire weight "
          "bound would not hold");
    }
  }
}

}  // namespace

std::string cooling_name(std::size_t length, std::size_t weight) {
  return "COOL(" + std::to_string(length) + "," + std::to_string(weight) +
         ")";
}

std::string cooling_name(const std::string& inner, std::size_t weight) {
  return "COOL(" + inner + "," + std::to_string(weight) + ")";
}

bool is_cooling_name(const std::string& name) {
  return name.rfind(kPrefix, 0) == 0;
}

std::optional<CoolingName> parse_cooling_name(const std::string& name) {
  if (!is_cooling_name(name)) return std::nullopt;
  if (name.back() != ')') {
    throw std::invalid_argument("cooling code '" + name +
                                "': missing closing ')'");
  }
  const std::string body =
      name.substr(std::string(kPrefix).size(),
                  name.size() - std::string(kPrefix).size() - 1);
  // The inner name may itself contain commas (e.g. BCH(15,7,2)), so the
  // weight is everything after the LAST comma.
  const std::size_t comma = body.rfind(',');
  if (comma == std::string::npos || comma == 0 || comma + 1 == body.size()) {
    throw std::invalid_argument(
        "cooling code '" + name +
        "': expected COOL(n,w) or COOL(<inner>,w)");
  }
  CoolingName parsed;
  parsed.weight = parse_size(body.substr(comma + 1), name, "weight");
  const std::string head = body.substr(0, comma);
  if (all_digits(head)) {
    parsed.pure = true;
    parsed.length = parse_size(head, name, "length");
  } else {
    if (is_cooling_name(head)) {
      throw std::invalid_argument("cooling code '" + name +
                                  "': nested cooling inner codes are "
                                  "not supported");
    }
    parsed.inner = head;
  }
  return parsed;
}

CoolingScheme::CoolingScheme(const CoolingName& parsed)
    : inner_(parsed.pure
                 ? std::make_shared<ecc::UncodedScheme>(parsed.length)
                 : ecc::make_code(parsed.inner)),
      coder_(inner_->message_length(), parsed.weight),
      name_(parsed.pure ? cooling_name(parsed.length, parsed.weight)
                        : cooling_name(inner_->name(), parsed.weight)) {
  require_systematic(*inner_, name_);
  const double n = static_cast<double>(inner_->block_length());
  const double m = static_cast<double>(inner_->message_length());
  const double w = static_cast<double>(parsed.weight);
  duty_bound_ = std::min(1.0, (w + (n - m)) / n);
}

std::size_t CoolingScheme::block_length() const noexcept {
  return inner_->block_length();
}

std::size_t CoolingScheme::min_distance() const noexcept {
  return inner_->min_distance();
}

ecc::BitVec CoolingScheme::encode(const ecc::BitVec& message) const {
  if (message.size() != message_length()) {
    throw std::invalid_argument(
        "CoolingScheme::encode: message size " +
        std::to_string(message.size()) + " != " +
        std::to_string(message_length()));
  }
  return inner_->encode(coder_.unrank(message.to_uint()));
}

ecc::DecodeResult CoolingScheme::decode(const ecc::BitVec& received) const {
  ecc::DecodeResult result = inner_->decode(received);
  const ecc::BitVec word = std::move(result.message);
  const std::size_t k = message_length();
  result.message = ecc::BitVec(k);
  if (word.popcount() > coder_.max_weight()) {
    // Residual errors pushed the word outside the bounded-weight set —
    // detectable even for the pure (distance-1) form.
    result.error_detected = true;
    return result;
  }
  const std::uint64_t value = coder_.rank(word);
  if (k < 63 && value >= (std::uint64_t{1} << k)) {
    // Valid bounded-weight word, but outside the 2^k message range.
    result.error_detected = true;
    return result;
  }
  result.message = ecc::BitVec::from_uint(value, k);
  return result;
}

codec::BitSlab CoolingScheme::encode_batch(
    const codec::BitSlab& messages) const {
  const std::size_t k = message_length();
  if (messages.bits() != k) {
    throw std::invalid_argument(
        "CoolingScheme::encode_batch: message size " +
        std::to_string(messages.bits()) + " != " + std::to_string(k));
  }
  // Lane-serial enumerative unrank of every lane's k-bit value (k <= 63,
  // so one block transpose gathers them all), word-parallel scatter of
  // the unranked words, then the inner batch kernel.
  const auto values = messages.lane_words(0);
  codec::BitSlab inner_messages(inner_->message_length(), messages.lanes());
  std::vector<std::array<std::uint64_t, codec::BitSlab::kLanes>> blocks(
      (inner_messages.bits() + 63) / 64);
  for (std::size_t l = 0; l < messages.lanes(); ++l) {
    const ecc::BitVec word = coder_.unrank(values[l]);
    for (std::size_t b = 0; b < blocks.size(); ++b)
      blocks[b][l] = word.words()[b];
  }
  for (std::size_t b = 0; b < blocks.size(); ++b)
    inner_messages.set_lane_words(b, blocks[b]);
  return inner_->encode_batch(inner_messages);
}

ecc::BatchDecodeResult CoolingScheme::decode_batch(
    const codec::BitSlab& received) const {
  ecc::BatchDecodeResult result = inner_->decode_batch(received);
  const std::size_t k = message_length();
  std::array<std::uint64_t, codec::BitSlab::kLanes> values{};
  for (std::size_t l = 0; l < received.lanes(); ++l) {
    const ecc::BitVec word = result.messages.transpose_out(l);
    // Outside the bounded-weight set (detectable even for the pure,
    // distance-1 form), or a valid word outside the 2^k message range:
    // the lane's message stays zero.
    const bool bounded = word.popcount() <= coder_.max_weight();
    const std::uint64_t value = bounded ? coder_.rank(word) : 0;
    if (!bounded || (k < 63 && value >= (std::uint64_t{1} << k)))
      result.error_detected |= std::uint64_t{1} << l;
    else
      values[l] = value;
  }
  result.messages = codec::BitSlab(k, received.lanes());
  result.messages.set_lane_words(0, values);
  return result;
}

double CoolingScheme::decoded_ber(double raw_p) const {
  // The enumerative outer decode scrambles roughly half the message
  // bits whenever ANY of the m inner message bits is residually wrong:
  //   BER = 0.5 * (1 - (1 - q)^m),  q = inner residual BER.
  // Computed via expm1/log1p so it stays strictly increasing down to
  // q ~ 1e-18 (the numeric inversion in required_raw_ber_checked needs
  // strict monotonicity over the whole search bracket).
  const double q = inner_->decoded_ber(raw_p);
  const double m = static_cast<double>(inner_->message_length());
  return -0.5 * std::expm1(m * std::log1p(-q));
}

ecc::BlockCodePtr make_cooling_code(const std::string& name) {
  const auto parsed = parse_cooling_name(name);
  if (!parsed) {
    throw std::invalid_argument("make_cooling_code: '" + name +
                                "' is not a cooling-code name");
  }
  return std::make_shared<CoolingScheme>(*parsed);
}

ecc::BlockCodePtr try_make_cooling_code(const std::string& name) {
  if (!is_cooling_name(name)) return nullptr;
  return make_cooling_code(name);
}

void register_cooling_codes() {
  ecc::register_code_factory("cooling", [](const std::string& name) {
    return try_make_cooling_code(name);
  });
}

}  // namespace photecc::cooling
