// BitSlab container contract: transpose round trips (the converters the
// batch-kernel bit-identity proofs rest on) pinned bit for bit against a
// per-bit reference, slice/paste geometry, the lane-mask invariant, and
// the error-injection engine's distribution and determinism.
#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "photecc/codec/batch_mc.hpp"
#include "photecc/codec/bitslab.hpp"
#include "photecc/math/rng.hpp"

namespace photecc::codec {
namespace {

std::vector<ecc::BitVec> random_batch(std::size_t bits, std::size_t lanes,
                                      math::Xoshiro256& rng) {
  std::vector<ecc::BitVec> batch;
  batch.reserve(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    ecc::BitVec v(bits);
    for (std::size_t i = 0; i < bits; ++i) v.set(i, rng.bernoulli(0.5));
    batch.push_back(v);
  }
  return batch;
}

// Reference converters: the per-bit gather and scatter.  The block-
// transpose converters must match them bit for bit.
BitSlab reference_transpose_in(const std::vector<ecc::BitVec>& batch) {
  BitSlab slab(batch[0].size(), batch.size());
  for (std::size_t l = 0; l < batch.size(); ++l) {
    const std::span<const std::uint64_t> lane_words = batch[l].words();
    for (std::size_t i = 0; i < slab.bits(); ++i) {
      const std::uint64_t bit = (lane_words[i / 64] >> (i % 64)) & 1u;
      slab.word(i) |= bit << l;
    }
  }
  return slab;
}

ecc::BitVec reference_transpose_out(const BitSlab& slab, std::size_t lane) {
  ecc::BitVec out(slab.bits());
  for (std::size_t i = 0; i < slab.bits(); ++i) {
    if ((slab.word(i) >> lane) & 1u) out.set(i, true);
  }
  return out;
}

/// Every lane's word with all bits set, or random bits.
std::vector<ecc::BitVec> oracle_batch(std::size_t bits, std::size_t lanes,
                                      bool all_ones, math::Xoshiro256& rng) {
  std::vector<ecc::BitVec> batch;
  batch.reserve(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    ecc::BitVec v(bits);
    for (std::size_t i = 0; i < bits; ++i)
      v.set(i, all_ones || (rng() & 1u) != 0);
    batch.push_back(v);
  }
  return batch;
}

/// Bits 1..130 cover every partial first and second block; 191..193 and
/// 256 cover the edges of the third and fourth.
std::vector<std::size_t> oracle_sizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t bits = 1; bits <= 130; ++bits) sizes.push_back(bits);
  for (const std::size_t bits : {191, 192, 193, 256}) sizes.push_back(bits);
  return sizes;
}

constexpr std::array<std::size_t, 6> kOracleLanes = {1, 2, 31, 33, 63, 64};

void expect_zero_past_size(const ecc::BitVec& v, const std::string& what) {
  if (v.size() % 64 == 0) return;
  EXPECT_EQ(v.words().back() >> (v.size() % 64), 0u) << what;
}

TEST(BitSlabOracle, TransposeInMatchesPerBitGather) {
  math::Xoshiro256 rng(0x0AC1E);
  for (const std::size_t bits : oracle_sizes()) {
    for (const std::size_t lanes : kOracleLanes) {
      for (const bool all_ones : {false, true}) {
        const std::string what = "bits=" + std::to_string(bits) +
                                 " lanes=" + std::to_string(lanes) +
                                 (all_ones ? " ones" : " random");
        const auto batch = oracle_batch(bits, lanes, all_ones, rng);
        const BitSlab slab = BitSlab::transpose_in(batch);
        ASSERT_EQ(slab, reference_transpose_in(batch)) << what;
        for (std::size_t i = 0; i < slab.bits(); ++i)
          ASSERT_EQ(slab.word(i) & ~slab.lane_mask(), 0u) << what;
      }
    }
  }
}

TEST(BitSlabOracle, TransposeOutMatchesPerBitScatter) {
  // Slabs filled directly (not via transpose_in), with every active
  // lane bit random or set, so the out converters face arbitrary input.
  math::Xoshiro256 rng(0x0AC1F);
  for (const std::size_t bits : oracle_sizes()) {
    for (const std::size_t lanes : kOracleLanes) {
      for (const bool all_ones : {false, true}) {
        const std::string what = "bits=" + std::to_string(bits) +
                                 " lanes=" + std::to_string(lanes) +
                                 (all_ones ? " ones" : " random");
        BitSlab slab(bits, lanes);
        for (std::size_t i = 0; i < bits; ++i)
          slab.word(i) = (all_ones ? ~std::uint64_t{0} : rng()) &
                         slab.lane_mask();
        const std::vector<ecc::BitVec> all = slab.transpose_out();
        ASSERT_EQ(all.size(), lanes) << what;
        for (std::size_t l = 0; l < lanes; ++l) {
          const ecc::BitVec expected = reference_transpose_out(slab, l);
          ASSERT_EQ(all[l], expected) << what << " lane " << l;
          ASSERT_EQ(slab.transpose_out(l), expected) << what << " lane " << l;
          expect_zero_past_size(all[l], what);
          expect_zero_past_size(slab.transpose_out(l), what);
        }
      }
    }
  }
}

TEST(BitSlabOracle, LaneWordsAreTheBlockConverters) {
  math::Xoshiro256 rng(0x0AC20);
  for (const std::size_t bits : {std::size_t{5}, std::size_t{64},
                                 std::size_t{71}, std::size_t{193}}) {
    for (const std::size_t lanes : kOracleLanes) {
      const auto batch = oracle_batch(bits, lanes, false, rng);
      const BitSlab slab = BitSlab::transpose_in(batch);
      BitSlab rebuilt(bits, lanes);
      for (std::size_t b = 0; 64 * b < bits; ++b) {
        std::array<std::uint64_t, BitSlab::kLanes> words = slab.lane_words(b);
        for (std::size_t l = 0; l < BitSlab::kLanes; ++l) {
          const std::uint64_t expected = l < lanes ? batch[l].words()[b] : 0;
          ASSERT_EQ(words[l], expected) << "block " << b << " lane " << l;
        }
        // Words of lanes past lanes() and bits past bits() are dropped.
        for (std::size_t l = lanes; l < BitSlab::kLanes; ++l)
          words[l] = ~std::uint64_t{0};
        if (bits - 64 * b < 64)
          for (std::size_t l = 0; l < lanes; ++l)
            words[l] |= ~std::uint64_t{0} << (bits - 64 * b);
        rebuilt.set_lane_words(b, words);
      }
      EXPECT_EQ(rebuilt, slab) << "bits=" << bits << " lanes=" << lanes;
    }
  }
  BitSlab slab(64, 3);
  EXPECT_THROW((void)slab.lane_words(1), std::out_of_range);
  EXPECT_THROW(slab.set_lane_words(1, {}), std::out_of_range);
}

TEST(BitSlab, ConstructionValidatesLaneCount) {
  EXPECT_THROW(BitSlab(8, 0), std::invalid_argument);
  EXPECT_THROW(BitSlab(8, 65), std::invalid_argument);
  const BitSlab slab(8, 64);
  EXPECT_EQ(slab.bits(), 8u);
  EXPECT_EQ(slab.lanes(), 64u);
  EXPECT_EQ(slab.lane_mask(), ~std::uint64_t{0});
  EXPECT_EQ(BitSlab(8, 3).lane_mask(), 0b111u);
}

TEST(BitSlab, TransposeRoundTripsForEveryLaneCount) {
  math::Xoshiro256 rng(0x51AB);
  for (std::size_t lanes = 1; lanes <= 64; ++lanes) {
    const auto batch = random_batch(71, lanes, rng);
    const BitSlab slab = BitSlab::transpose_in(batch);
    ASSERT_EQ(slab.bits(), 71u);
    ASSERT_EQ(slab.lanes(), lanes);
    for (std::size_t l = 0; l < lanes; ++l)
      EXPECT_EQ(slab.transpose_out(l), batch[l]) << "lane " << l;
    // Invariant: nothing outside the lane mask.
    for (std::size_t i = 0; i < slab.bits(); ++i)
      EXPECT_EQ(slab.word(i) & ~slab.lane_mask(), 0u);
  }
}

TEST(BitSlab, TransposeOutAllLanesMatchesPerLane) {
  math::Xoshiro256 rng(0x51AC);
  const auto batch = random_batch(15, 17, rng);
  const BitSlab slab = BitSlab::transpose_in(batch);
  const std::vector<ecc::BitVec> out = slab.transpose_out();
  ASSERT_EQ(out.size(), batch.size());
  for (std::size_t l = 0; l < batch.size(); ++l) EXPECT_EQ(out[l], batch[l]);
}

TEST(BitSlab, TransposeInValidatesShape) {
  EXPECT_THROW((void)BitSlab::transpose_in({}), std::invalid_argument);
  std::vector<ecc::BitVec> mixed{ecc::BitVec(4), ecc::BitVec(5)};
  EXPECT_THROW((void)BitSlab::transpose_in(mixed), std::invalid_argument);
  std::vector<ecc::BitVec> wide(65, ecc::BitVec(4));
  EXPECT_THROW((void)BitSlab::transpose_in(wide), std::invalid_argument);
}

TEST(BitSlab, TransposeOutRejectsInactiveLane) {
  const BitSlab slab(4, 3);
  EXPECT_THROW((void)slab.transpose_out(3), std::out_of_range);
}

TEST(BitSlab, SliceAndPasteRoundTrip) {
  math::Xoshiro256 rng(0x51AD);
  const auto batch = random_batch(21, 11, rng);
  const BitSlab slab = BitSlab::transpose_in(batch);
  const BitSlab mid = slab.slice(7, 7);
  ASSERT_EQ(mid.bits(), 7u);
  ASSERT_EQ(mid.lanes(), 11u);
  for (std::size_t l = 0; l < 11; ++l)
    EXPECT_EQ(mid.transpose_out(l), batch[l].slice(7, 7));
  BitSlab rebuilt(21, 11);
  rebuilt.paste(0, slab.slice(0, 7));
  rebuilt.paste(7, mid);
  rebuilt.paste(14, slab.slice(14, 7));
  EXPECT_EQ(rebuilt, slab);
  EXPECT_THROW((void)slab.slice(15, 7), std::out_of_range);
}

TEST(InjectErrors, ZeroAndOneProbabilityEdges) {
  BitSlab slab(13, 29);
  math::Xoshiro256 rng(1);
  inject_errors(slab, 0.0, rng);
  EXPECT_EQ(slab, BitSlab(13, 29));
  inject_errors(slab, 1.0, rng);
  for (std::size_t i = 0; i < slab.bits(); ++i)
    EXPECT_EQ(slab.word(i), slab.lane_mask());
  // p = 1 again flips everything back.
  inject_errors(slab, 1.0, rng);
  EXPECT_EQ(slab, BitSlab(13, 29));
}

TEST(InjectErrors, DeterministicPerSeedAndRespectsLaneMask) {
  BitSlab a(31, 23);
  BitSlab b(31, 23);
  math::Xoshiro256 ra(0xFEED);
  math::Xoshiro256 rb(0xFEED);
  inject_errors(a, 0.07, ra);
  inject_errors(b, 0.07, rb);
  EXPECT_EQ(a, b);
  EXPECT_GT(count_errors(a, BitSlab(31, 23)), 0u);
  for (std::size_t i = 0; i < a.bits(); ++i)
    EXPECT_EQ(a.word(i) & ~a.lane_mask(), 0u) << "inactive lane flipped";
  math::Xoshiro256 rc(0xF00D);
  BitSlab c(31, 23);
  inject_errors(c, 0.07, rc);
  EXPECT_NE(a, c) << "different seeds should give different flip sets";
}

TEST(InjectErrors, MatchesBernoulliRateStatistically) {
  // 64 lanes x 127 positions x 200 rounds at p = 0.02: ~32.5k expected
  // flips, sigma ~ 178.  A 5-sigma band will essentially never trip.
  const double p = 0.02;
  const std::size_t rounds = 200;
  math::Xoshiro256 rng(0xACC);
  std::uint64_t flips = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    BitSlab slab(127, 64);
    inject_errors(slab, p, rng);
    flips += count_errors(slab, BitSlab(127, 64));
  }
  const double cells = 127.0 * 64.0 * static_cast<double>(rounds);
  const double expect = cells * p;
  const double sigma = std::sqrt(cells * p * (1.0 - p));
  EXPECT_NEAR(static_cast<double>(flips), expect, 5.0 * sigma);
}

TEST(CountErrors, CountsWordParallelAndChecksShape) {
  BitSlab a(9, 40);
  BitSlab b(9, 40);
  a.word(3) ^= 0b1011u;
  b.word(8) ^= std::uint64_t{1} << 39;
  EXPECT_EQ(count_errors(a, b), 4u);
  EXPECT_THROW((void)count_errors(a, BitSlab(9, 39)), std::invalid_argument);
  EXPECT_THROW((void)count_errors(a, BitSlab(8, 40)), std::invalid_argument);
}

TEST(RandomMessageSlab, FillsActiveLanesOnly) {
  math::Xoshiro256 rng(0xBEEF);
  const BitSlab slab = random_message_slab(57, 19, rng);
  EXPECT_EQ(slab.bits(), 57u);
  EXPECT_EQ(slab.lanes(), 19u);
  std::uint64_t any = 0;
  for (std::size_t i = 0; i < slab.bits(); ++i) {
    EXPECT_EQ(slab.word(i) & ~slab.lane_mask(), 0u);
    any |= slab.word(i);
  }
  EXPECT_NE(any, 0u);
}

}  // namespace
}  // namespace photecc::codec
