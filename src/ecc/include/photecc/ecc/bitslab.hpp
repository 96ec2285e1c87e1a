// Bitsliced codeword slab: the container of the batch codec datapath.
//
// A BitSlab holds up to 64 codewords *transposed*: one uint64_t word per
// bit position, one codeword per bit lane, so word(i) bit l is bit i of
// the codeword in lane l.  In this layout encode/decode become
// straight-line XOR/AND/popcount word operations over whole 64-lane
// batches — no virtual dispatch and no per-bit addressing in the inner
// loop (see ecc::BlockCode::encode_batch / decode_batch).
//
// The converters between BitVecs and a slab are word-parallel: each
// 64-bit column block of up to 64 lanes moves as one 64x64 bit-matrix
// block transpose (6 rounds of 32 masked XOR swaps), never bit by bit.
// lane_words / set_lane_words expose one such block, for codecs that
// handle whole lane values (the cooling codes' rank/unrank).
//
// The class lives in the ecc include tree so the code classes can
// implement batch kernels against it without a dependency cycle, but it
// belongs to the photecc::codec namespace — the batch datapath module
// (src/codec) re-exports it via photecc/codec/bitslab.hpp and builds
// the error-injection / Monte-Carlo engine on top.
//
// Invariant: lanes() <= 64 and every word is zero outside lane_mask().
// The transpose converters and all shipped kernels preserve it; callers
// mutating words() directly must too (codec::inject_errors relies on it
// to leave inactive lanes untouched).
#ifndef PHOTECC_ECC_BITSLAB_HPP
#define PHOTECC_ECC_BITSLAB_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "photecc/ecc/bitvec.hpp"

namespace photecc::codec {

/// Transposed batch of up to 64 equal-length bit words.
class BitSlab {
 public:
  /// Maximum number of codeword lanes (the word width).
  static constexpr std::size_t kLanes = 64;

  BitSlab() = default;

  /// Zero-filled slab of `bits` positions and `lanes` active lanes.
  /// Throws std::invalid_argument when lanes == 0 or lanes > 64.
  BitSlab(std::size_t bits, std::size_t lanes);

  /// Number of bit positions (the codeword length n).
  [[nodiscard]] std::size_t bits() const noexcept { return words_.size(); }
  /// Number of active codeword lanes, in [1, 64] (0 only when default-
  /// constructed empty).
  [[nodiscard]] std::size_t lanes() const noexcept { return lanes_; }
  /// Mask with the low lanes() bits set.
  [[nodiscard]] std::uint64_t lane_mask() const noexcept {
    return lanes_ == kLanes ? ~std::uint64_t{0}
                            : (std::uint64_t{1} << lanes_) - 1;
  }

  /// Word at bit position i (bit l = bit i of the lane-l codeword).
  [[nodiscard]] std::uint64_t word(std::size_t i) const {
    return words_[i];
  }
  [[nodiscard]] std::uint64_t& word(std::size_t i) { return words_[i]; }

  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    return words_;
  }
  [[nodiscard]] std::span<std::uint64_t> words() noexcept { return words_; }

  /// Transposes up to 64 equal-sized BitVecs into a slab (vec j becomes
  /// lane j).  Throws std::invalid_argument on an empty batch, more than
  /// 64 vectors, or mismatched sizes.
  [[nodiscard]] static BitSlab transpose_in(
      std::span<const ecc::BitVec> batch);

  /// Transposes lane l back out to a BitVec (the exact inverse of
  /// transpose_in for that lane).  Throws std::out_of_range when l >=
  /// lanes().
  [[nodiscard]] ecc::BitVec transpose_out(std::size_t lane) const;

  /// All lanes, in lane order.
  [[nodiscard]] std::vector<ecc::BitVec> transpose_out() const;

  /// Backing word `block` of every lane (element l = bits [64 block,
  /// 64 block + 64) of lane l, zero past bits() and for lanes past
  /// lanes()): one block transpose, no allocation — the lane-value
  /// gather for codecs whose words fit 64 bits.  Throws
  /// std::out_of_range when 64 * block >= bits().
  [[nodiscard]] std::array<std::uint64_t, kLanes> lane_words(
      std::size_t block) const;

  /// The inverse of lane_words: overwrites bit positions [64 block,
  /// min(64 block + 64, bits())) so that lane l holds words[l] there.
  /// Words of lanes past lanes() and bits past bits() are dropped.
  /// Throws std::out_of_range when 64 * block >= bits().
  void set_lane_words(std::size_t block,
                      std::array<std::uint64_t, kLanes> words);

  /// Copies bit positions [offset, offset + count) into a new slab with
  /// the same lane count.  Throws std::out_of_range on overflow.
  [[nodiscard]] BitSlab slice(std::size_t offset, std::size_t count) const;

  /// Overwrites bit positions [offset, offset + other.bits()) with
  /// `other` (lane counts must match).
  void paste(std::size_t offset, const BitSlab& other);

  bool operator==(const BitSlab& other) const noexcept {
    return lanes_ == other.lanes_ && words_ == other.words_;
  }
  bool operator!=(const BitSlab& other) const noexcept {
    return !(*this == other);
  }

 private:
  std::size_t lanes_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace photecc::codec

#endif  // PHOTECC_ECC_BITSLAB_HPP
