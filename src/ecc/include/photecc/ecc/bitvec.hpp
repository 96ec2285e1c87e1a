// Compact dynamic bit vector used by the bit-true codecs and the
// serializer/deserializer models.
#ifndef PHOTECC_ECC_BITVEC_HPP
#define PHOTECC_ECC_BITVEC_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace photecc::codec {
class BitSlab;
}  // namespace photecc::codec

namespace photecc::ecc {

/// Fixed-size-after-construction vector of bits stored in 64-bit words.
/// Bit 0 is the least significant bit of word 0 (little-endian bit
/// order), matching the serializer's "bit 0 first on the wire" rule.
class BitVec {
 public:
  BitVec() = default;
  explicit BitVec(std::size_t size) : size_(size), words_(word_count(size)) {}

  /// Builds from the low `size` bits of `value`.
  static BitVec from_uint(std::uint64_t value, std::size_t size);

  /// Builds from a string of '0'/'1' characters, index 0 first.
  static BitVec from_string(const std::string& bits);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  [[nodiscard]] bool get(std::size_t i) const;
  void set(std::size_t i, bool value);
  void flip(std::size_t i);

  /// Read-only view of the backing 64-bit words (bit i lives at bit
  /// i % 64 of word i / 64; bits past size() are zero).  The word-
  /// parallel entry point for bitsliced consumers (codec::BitSlab
  /// transposes through it) and word-at-a-time error counting.
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    return words_;
  }

  /// Number of set bits.
  [[nodiscard]] std::size_t popcount() const noexcept;

  /// Word-parallel error count against another vector of the same size:
  /// one XOR + popcount per 64 bits, no per-bit addressing.  This is
  /// the primitive the Monte-Carlo harnesses count with; distance() is
  /// an alias.  Throws std::invalid_argument on size mismatch.
  [[nodiscard]] std::size_t count_errors(const BitVec& other) const;

  /// Hamming distance to another vector of the same size.
  [[nodiscard]] std::size_t distance(const BitVec& other) const {
    return count_errors(other);
  }

  /// XOR-assign with a vector of the same size.
  BitVec& operator^=(const BitVec& other);
  friend BitVec operator^(BitVec lhs, const BitVec& rhs) {
    lhs ^= rhs;
    return lhs;
  }

  /// Low 64 bits as an integer (size must be <= 64).
  [[nodiscard]] std::uint64_t to_uint() const;

  /// '0'/'1' rendering, index 0 first.
  [[nodiscard]] std::string to_string() const;

  /// Copies bits [offset, offset+count) into a new vector.
  [[nodiscard]] BitVec slice(std::size_t offset, std::size_t count) const;

  /// Concatenation.
  [[nodiscard]] BitVec concat(const BitVec& other) const;

  bool operator==(const BitVec& other) const noexcept;
  bool operator!=(const BitVec& other) const noexcept {
    return !(*this == other);
  }

 private:
  // The batch converters fill whole backing words, bits past size() zero.
  friend class codec::BitSlab;

  static std::size_t word_count(std::size_t bits) noexcept {
    return (bits + 63) / 64;
  }
  void check_index(std::size_t i) const;

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace photecc::ecc

#endif  // PHOTECC_ECC_BITVEC_HPP
