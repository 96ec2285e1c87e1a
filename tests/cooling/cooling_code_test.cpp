// photecc::cooling — construction, naming, and the wire-weight
// guarantee.  The bound w + (n - m) is verified EXHAUSTIVELY for small
// cooling codes: every encodable message is encoded and its codeword
// weight checked against the bound the thermal stack relies on.
#include "photecc/cooling/cooling_code.hpp"

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "photecc/codec/bitslab.hpp"
#include "photecc/ecc/registry.hpp"
#include "photecc/math/rng.hpp"

namespace photecc::cooling {
namespace {

using ecc::BitVec;

TEST(CoolingName, FormatsAndClassifies) {
  EXPECT_EQ(cooling_name(std::size_t{64}, 16), "COOL(64,16)");
  EXPECT_EQ(cooling_name("H(7,4)", 2), "COOL(H(7,4),2)");
  EXPECT_TRUE(is_cooling_name("COOL(8,2)"));
  EXPECT_TRUE(is_cooling_name("COOL(BCH(15,7,2),3)"));
  EXPECT_FALSE(is_cooling_name("H(7,4)"));
  EXPECT_FALSE(is_cooling_name("cool(8,2)"));
}

TEST(CoolingName, ParsesPureAndConcatenatedForms) {
  EXPECT_FALSE(parse_cooling_name("H(7,4)").has_value());

  const CoolingName pure = *parse_cooling_name("COOL(64,16)");
  EXPECT_TRUE(pure.pure);
  EXPECT_EQ(pure.length, 64u);
  EXPECT_EQ(pure.weight, 16u);

  // The weight is everything after the LAST comma, so inner names with
  // commas survive.
  const CoolingName wrapped = *parse_cooling_name("COOL(BCH(15,7,2),3)");
  EXPECT_FALSE(wrapped.pure);
  EXPECT_EQ(wrapped.inner, "BCH(15,7,2)");
  EXPECT_EQ(wrapped.weight, 3u);
}

TEST(CoolingName, MalformedCoolShapedNamesThrow) {
  for (const char* bad :
       {"COOL(8,2", "COOL(8)", "COOL()", "COOL(,2)", "COOL(8,)",
        "COOL(8,x)", "COOL(COOL(8,2),1)"}) {
    EXPECT_THROW((void)parse_cooling_name(bad), std::invalid_argument)
        << bad;
  }
}

TEST(CoolingScheme, PureCodeGeometry) {
  // COOL(8,2): N(8,2) = 37 -> 5 message bits over 8 wires, duty 2/8.
  const CoolingScheme code(*parse_cooling_name("COOL(8,2)"));
  EXPECT_EQ(code.name(), "COOL(8,2)");
  EXPECT_EQ(code.block_length(), 8u);
  EXPECT_EQ(code.message_length(), 5u);
  EXPECT_EQ(code.weight_bound(), 2u);
  EXPECT_DOUBLE_EQ(code.transmit_duty_bound(), 0.25);
}

TEST(CoolingScheme, ConcatenatedCodeGeometry) {
  // COOL(H(7,4),1): N(4,1) = 5 -> 2 message bits; wire bound
  // w + (n - m) = 1 + 3 = 4, duty 4/7.
  const CoolingScheme code(*parse_cooling_name("COOL(H(7,4),1)"));
  EXPECT_EQ(code.block_length(), 7u);
  EXPECT_EQ(code.message_length(), 2u);
  EXPECT_EQ(code.weight_bound(), 1u);
  EXPECT_DOUBLE_EQ(code.transmit_duty_bound(), 4.0 / 7.0);
  EXPECT_EQ(code.min_distance(), 3u);  // inherited from the inner code
}

/// Exhaustive verification of the wire-weight bound: EVERY encodable
/// message of `name` must produce a codeword of weight
/// <= w + (n - m) — the guarantee the thermal stack's duty bound
/// rests on — and decode back to itself over a clean channel.
void verify_weight_bound_exhaustively(const std::string& name) {
  register_cooling_codes();
  const auto code = ecc::make_code(name);
  const auto* cooling = dynamic_cast<const CoolingScheme*>(code.get());
  ASSERT_NE(cooling, nullptr) << name;
  const std::size_t k = code->message_length();
  ASSERT_LE(k, 16u) << name << ": too large to exhaust";
  const std::size_t wire_bound =
      cooling->weight_bound() +
      (code->block_length() - cooling->inner().message_length());
  const double duty = code->transmit_duty_bound();
  for (std::uint64_t value = 0; value < (std::uint64_t{1} << k);
       ++value) {
    const BitVec message = BitVec::from_uint(value, k);
    const BitVec codeword = code->encode(message);
    EXPECT_LE(codeword.popcount(), wire_bound)
        << name << " message " << value;
    EXPECT_LE(static_cast<double>(codeword.popcount()),
              duty * static_cast<double>(code->block_length()) + 1e-12)
        << name << " message " << value;
    // The message-word bound itself: the inner systematic positions
    // carry the outer word, whose weight is <= w by construction.
    EXPECT_LE(
        cooling->inner().decode(codeword).message.popcount(),
        cooling->weight_bound())
        << name << " message " << value;
    const ecc::DecodeResult decoded = code->decode(codeword);
    EXPECT_EQ(decoded.message, message) << name << " message " << value;
    EXPECT_FALSE(decoded.error_detected) << name << " message " << value;
  }
}

TEST(CoolingScheme, WeightBoundHoldsExhaustivelyForPureCool8x2) {
  verify_weight_bound_exhaustively("COOL(8,2)");
}

TEST(CoolingScheme, WeightBoundHoldsExhaustivelyForHamming74Wrap) {
  verify_weight_bound_exhaustively("COOL(H(7,4),1)");
}

TEST(CoolingScheme, WeightBoundHoldsExhaustivelyForHamming1511Wrap) {
  // N(11, 2) = 67 -> 6 message bits; wire bound 2 + 4 = 6 of 15.
  verify_weight_bound_exhaustively("COOL(H(15,11),2)");
}

TEST(CoolingScheme, DecodeFlagsWordsOutsideTheBoundedWeightSet) {
  const CoolingScheme code(*parse_cooling_name("COOL(8,2)"));
  // Corrupt a valid codeword up to weight 3: the pure form has
  // distance 1, but leaving the bounded-weight set is detectable.
  BitVec received = code.encode(BitVec::from_uint(5, 5));
  ASSERT_LE(received.popcount(), 2u);
  for (std::size_t i = 0; i < 8 && received.popcount() < 3; ++i)
    received.set(i, true);
  const ecc::DecodeResult result = code.decode(received);
  EXPECT_TRUE(result.error_detected);
}

TEST(CoolingScheme, EncodeValidatesTheMessageSize) {
  const CoolingScheme code(*parse_cooling_name("COOL(8,2)"));
  EXPECT_THROW((void)code.encode(BitVec(4)), std::invalid_argument);
  EXPECT_THROW((void)code.encode(BitVec(6)), std::invalid_argument);
}

TEST(CoolingScheme, DecodedBerFollowsTheMessageScramblingModel) {
  // BER = 0.5 * (1 - (1 - q)^m) with q the inner residual BER.
  register_cooling_codes();
  const auto inner = ecc::make_code("H(7,4)");
  const auto wrapped = ecc::make_code("COOL(H(7,4),1)");
  // p large enough that the naive pow spelling is still exact in
  // doubles (the implementation uses expm1/log1p to go far lower).
  for (const double p : {1e-3, 1e-5}) {
    const double q = inner->decoded_ber(p);
    const double expected = 0.5 * (1.0 - std::pow(1.0 - q, 4.0));
    EXPECT_NEAR(wrapped->decoded_ber(p), expected, 1e-6 * expected)
        << p;
  }
  // Strictly increasing (required by the numeric raw-BER inversion).
  EXPECT_LT(wrapped->decoded_ber(1e-9), wrapped->decoded_ber(1e-8));
}

TEST(CoolingScheme, PartialSlabBatchesMatchScalarForEveryBenchWrap) {
  // Every COOL wrap of the Monte-Carlo bench menu, slabs of fewer than
  // 64 lanes: the batch path gathers and scatters lane values through
  // block transposes, so the unused lanes must neither leak in nor out.
  // Raw error rates up to 0.3 push words outside the bounded-weight set.
  register_cooling_codes();
  math::Xoshiro256 rng(0xC001);
  for (const char* name : {"COOL(8,2)", "COOL(16,4)", "COOL(H(7,4),1)",
                           "COOL(BCH(15,7,2),3)", "COOL(H(71,64),16)"}) {
    const auto code = ecc::make_code(name);
    for (const std::size_t lanes : {1, 2, 31, 33, 63, 64}) {
      for (const double p : {0.0, 0.02, 0.3}) {
        const std::string what = std::string(name) + " lanes=" +
                                 std::to_string(lanes) +
                                 " p=" + std::to_string(p);
        std::vector<ecc::BitVec> messages;
        std::vector<ecc::BitVec> received;
        for (std::size_t l = 0; l < lanes; ++l) {
          ecc::BitVec message(code->message_length());
          for (std::size_t i = 0; i < message.size(); ++i)
            message.set(i, rng.bernoulli(0.5));
          ecc::BitVec word = code->encode(message);
          for (std::size_t i = 0; i < word.size(); ++i)
            if (rng.bernoulli(p)) word.flip(i);
          messages.push_back(message);
          received.push_back(word);
        }
        const codec::BitSlab encoded =
            code->encode_batch(codec::BitSlab::transpose_in(messages));
        const ecc::BatchDecodeResult decoded =
            code->decode_batch(codec::BitSlab::transpose_in(received));
        ASSERT_EQ(encoded.lanes(), lanes) << what;
        ASSERT_EQ(decoded.messages.lanes(), lanes) << what;
        for (std::size_t i = 0; i < decoded.messages.bits(); ++i)
          ASSERT_EQ(decoded.messages.word(i) & ~decoded.messages.lane_mask(),
                    0u)
              << what;
        EXPECT_EQ(decoded.error_detected & ~encoded.lane_mask(), 0u) << what;
        EXPECT_EQ(decoded.corrected & ~encoded.lane_mask(), 0u) << what;
        for (std::size_t l = 0; l < lanes; ++l) {
          EXPECT_EQ(encoded.transpose_out(l), code->encode(messages[l]))
              << what << " lane " << l;
          const ecc::DecodeResult scalar = code->decode(received[l]);
          EXPECT_EQ(decoded.messages.transpose_out(l), scalar.message)
              << what << " lane " << l;
          EXPECT_EQ(((decoded.error_detected >> l) & 1u) != 0,
                    scalar.error_detected)
              << what << " lane " << l;
          EXPECT_EQ(((decoded.corrected >> l) & 1u) != 0, scalar.corrected)
              << what << " lane " << l;
        }
      }
    }
  }
}

TEST(CoolingRegistry, MakeCodeResolvesCoolingNames) {
  register_cooling_codes();
  const auto code = ecc::make_code("COOL(BCH(15,7,2),3)");
  EXPECT_EQ(code->name(), "COOL(BCH(15,7,2),3)");
  EXPECT_EQ(code->block_length(), 15u);
  // N(7, 3) = 1 + 7 + 21 + 35 = 64 -> exactly 6 message bits.
  EXPECT_EQ(code->message_length(), 6u);
  // Registration is idempotent.
  EXPECT_NO_THROW(register_cooling_codes());
  EXPECT_NO_THROW(register_cooling_codes());
}

TEST(CoolingRegistry, TryMakeReturnsNullForForeignNames) {
  EXPECT_EQ(try_make_cooling_code("H(7,4)"), nullptr);
  EXPECT_THROW((void)make_cooling_code("H(7,4)"), std::invalid_argument);
  // COOL-shaped but malformed: loud, not null.
  EXPECT_THROW((void)try_make_cooling_code("COOL(8)"),
               std::invalid_argument);
}

TEST(CoolingRegistry, UnknownInnerCodesStillFailLoudly) {
  register_cooling_codes();
  EXPECT_THROW((void)ecc::make_code("COOL(X(9,9),2)"),
               std::invalid_argument);
}

}  // namespace
}  // namespace photecc::cooling
