// Scalar fallbacks of the batch codec API: transpose out, run the
// per-word codec lane by lane, transpose back in.  Bit-identical to the
// scalar path by construction — this is the reference every kernel
// override is pinned against (tests/codec/batch_equivalence_test.cpp).
#include "photecc/ecc/block_code.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

namespace photecc::ecc {

codec::BitSlab BlockCode::encode_batch(const codec::BitSlab& messages) const {
  if (messages.bits() != message_length())
    throw std::invalid_argument(name() +
                                "::encode_batch: message size mismatch");
  std::vector<BitVec> lanes = messages.transpose_out();
  for (BitVec& lane : lanes) lane = encode(lane);
  return codec::BitSlab::transpose_in(lanes);
}

BatchDecodeResult BlockCode::decode_batch(
    const codec::BitSlab& received) const {
  if (received.bits() != block_length())
    throw std::invalid_argument(name() +
                                "::decode_batch: block size mismatch");
  BatchDecodeResult result;
  std::vector<BitVec> lanes = received.transpose_out();
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    DecodeResult lane = decode(lanes[l]);
    lanes[l] = std::move(lane.message);
    if (lane.error_detected) result.error_detected |= std::uint64_t{1} << l;
    if (lane.corrected) result.corrected |= std::uint64_t{1} << l;
  }
  result.messages = codec::BitSlab::transpose_in(lanes);
  return result;
}

}  // namespace photecc::ecc
