// Seeded input generation.  Every request line is a pure function of
// (seed, stream, index), so a seed fixes a workload's inputs whatever
// the number of operations a run gets through.
//
// Sizes come from a low-discrepancy (golden-ratio) sequence instead of
// iid draws: any run prefix then covers the size range almost exactly
// evenly, so percentiles and set-up work do not swing with the seed,
// while the seed still picks every code, BER, link and rate.
#ifndef PERFBENCH_INPUTS_HPP
#define PERFBENCH_INPUTS_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "photecc/math/rng.hpp"

namespace perfbench {

/// Independent generator for one (seed, stream, index) triple.
[[nodiscard]] photecc::math::Xoshiro256 rng_for(std::uint64_t seed,
                                                std::uint64_t stream,
                                                std::uint64_t index);

/// Element `index` of the golden-ratio sequence started at a
/// seed-derived offset, in [0, 1).
[[nodiscard]] double golden(std::uint64_t seed, std::uint64_t stream,
                            std::uint64_t index);

/// One generated sweep request line and the cell count its grid has.
struct SweepRequest {
  std::string line;
  std::size_t cells = 0;
};

/// A link sweep over codes x BER targets x links x ONI counts whose
/// cell count is about 50 * 40^size_u (50..2000 cells).  `name` makes
/// the spec distinct.
[[nodiscard]] SweepRequest link_sweep_request(photecc::math::Xoshiro256& rng,
                                              double size_u,
                                              const std::string& name);

/// A NoC sweep of 2 or 4 cells, on the single-channel evaluator or, when
/// `network` is set, on a tiled network.  Its critical path on two
/// workers simulates about 300 * 30^cost_u messages (about that many
/// microseconds), whichever the evaluator and cell count.
[[nodiscard]] SweepRequest noc_request(photecc::math::Xoshiro256& rng,
                                       double cost_u, bool network,
                                       const std::string& name);

/// The same JSON document with every object's members in a random
/// order and random spaces between tokens: canonicalizes to the same
/// spec as `line`.
[[nodiscard]] std::string respell(const std::string& line,
                                  photecc::math::Xoshiro256& rng);

/// The bit-true code menu: every registry code (BCH t=3 included) plus
/// five cooling codes.  Registers the cooling factory.
[[nodiscard]] std::vector<std::string> code_menu_names();

/// Code families of the bit-true menu, in metric order.
inline constexpr std::array<std::string_view, 6> kCodeFamilies = {
    "uncoded", "hamming", "ehamming", "rep", "bch", "cool"};

/// Index into kCodeFamilies of a menu code's family.
[[nodiscard]] std::size_t code_family(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_HPP
