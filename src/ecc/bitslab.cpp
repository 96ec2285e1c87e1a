#include "photecc/ecc/bitslab.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace photecc::codec {
namespace {

using Block = std::array<std::uint64_t, BitSlab::kLanes>;

/// In-place transpose of a 64x64 bit matrix (row r = block[r], column c
/// = bit c): afterwards bit c of row r holds what bit r of row c held.
/// Six rounds of 32 masked XOR swaps; round j exchanges the off-diagonal
/// j x j sub-blocks of every 2j x 2j diagonal block.
void transpose64(Block& block) noexcept {
  std::uint64_t mask = 0x00000000FFFFFFFFu;
  for (std::size_t j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (std::size_t k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((block[k] >> j) ^ block[k | j]) & mask;
      block[k] ^= t << j;
      block[k | j] ^= t;
    }
  }
}

}  // namespace

BitSlab::BitSlab(std::size_t bits, std::size_t lanes)
    : lanes_(lanes), words_(bits, 0) {
  if (lanes == 0 || lanes > kLanes)
    throw std::invalid_argument("BitSlab: lanes must be in [1, 64]");
}

BitSlab BitSlab::transpose_in(std::span<const ecc::BitVec> batch) {
  if (batch.empty())
    throw std::invalid_argument("BitSlab::transpose_in: empty batch");
  if (batch.size() > kLanes)
    throw std::invalid_argument("BitSlab::transpose_in: more than 64 lanes");
  const std::size_t bits = batch[0].size();
  for (const auto& vec : batch) {
    if (vec.size() != bits)
      throw std::invalid_argument(
          "BitSlab::transpose_in: mismatched word sizes");
  }
  BitSlab slab(bits, batch.size());
  Block words{};
  for (std::size_t b = 0; 64 * b < bits; ++b) {
    for (std::size_t l = 0; l < batch.size(); ++l)
      words[l] = batch[l].words()[b];
    slab.set_lane_words(b, words);
  }
  return slab;
}

ecc::BitVec BitSlab::transpose_out(std::size_t lane) const {
  if (lane >= lanes_)
    throw std::out_of_range("BitSlab::transpose_out: lane out of range");
  ecc::BitVec out(bits());
  for (std::size_t i = 0; i < words_.size(); ++i)
    out.words_[i / 64] |= ((words_[i] >> lane) & 1u) << (i % 64);
  return out;
}

Block BitSlab::lane_words(std::size_t block) const {
  if (64 * block >= bits())
    throw std::out_of_range("BitSlab::lane_words: block out of range");
  // Rows past bits() stay zero, so every lane word is zero past the
  // lane's size.
  const std::size_t rows = std::min<std::size_t>(64, bits() - 64 * block);
  Block words{};
  std::copy_n(words_.begin() + 64 * block, rows, words.begin());
  transpose64(words);
  return words;
}

void BitSlab::set_lane_words(std::size_t block, Block words) {
  if (64 * block >= bits())
    throw std::out_of_range("BitSlab::set_lane_words: block out of range");
  // Zeroed rows past lanes() keep every slab word inside lane_mask().
  std::fill(words.begin() + lanes_, words.end(), 0);
  transpose64(words);
  const std::size_t rows = std::min<std::size_t>(64, bits() - 64 * block);
  std::copy_n(words.begin(), rows, words_.begin() + 64 * block);
}

std::vector<ecc::BitVec> BitSlab::transpose_out() const {
  std::vector<ecc::BitVec> out(lanes_, ecc::BitVec(bits()));
  for (std::size_t b = 0; 64 * b < bits(); ++b) {
    const Block words = lane_words(b);
    for (std::size_t l = 0; l < lanes_; ++l) out[l].words_[b] = words[l];
  }
  return out;
}

BitSlab BitSlab::slice(std::size_t offset, std::size_t count) const {
  if (offset + count > bits())
    throw std::out_of_range("BitSlab::slice: range out of bounds");
  BitSlab out(count, lanes_);
  for (std::size_t i = 0; i < count; ++i)
    out.words_[i] = words_[offset + i];
  return out;
}

void BitSlab::paste(std::size_t offset, const BitSlab& other) {
  if (other.lanes_ != lanes_)
    throw std::invalid_argument("BitSlab::paste: lane count mismatch");
  if (offset + other.bits() > bits())
    throw std::out_of_range("BitSlab::paste: range out of bounds");
  for (std::size_t i = 0; i < other.bits(); ++i)
    words_[offset + i] = other.words_[i];
}

}  // namespace photecc::codec
