#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>

#include "photecc/cooling/cooling_code.hpp"
#include "photecc/ecc/registry.hpp"
#include "photecc/math/json.hpp"
#include "photecc/serve/protocol.hpp"
#include "photecc/spec/spec.hpp"

namespace perfbench {

namespace json = photecc::math::json;
using photecc::math::Xoshiro256;

namespace {

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Three significant digits, as a researcher would type the value.
double round3(double x) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.2e", x);
  return std::stod(buffer);
}

double log_uniform(Xoshiro256& rng, double lo, double hi) {
  return round3(lo * std::pow(hi / lo, rng.uniform01()));
}

template <typename T>
std::vector<T> pick(Xoshiro256& rng, const std::vector<T>& from,
                    std::size_t count) {
  std::vector<T> pool = from;
  for (std::size_t i = 0; i < count; ++i)
    std::swap(pool[i], pool[i + rng.bounded(pool.size() - i)]);
  pool.resize(count);
  return pool;
}

std::size_t between(Xoshiro256& rng, std::size_t lo, std::size_t hi) {
  return lo + static_cast<std::size_t>(rng.bounded(hi - lo + 1));
}

const std::vector<std::string>& registry_code_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const auto& code : photecc::ecc::all_known_codes())
      out.push_back(code->name());
    return out;
  }();
  return names;
}

void write_value(std::string& out, const json::Value& value,
                 Xoshiro256& rng) {
  const auto space = [&] {
    if (rng.bernoulli(0.3)) out.append(1 + rng.bounded(2), ' ');
  };
  switch (value.type()) {
    case json::Value::Type::kObject: {
      std::vector<const std::pair<std::string, json::Value>*> members;
      for (const auto& member : value.as_object()) members.push_back(&member);
      for (std::size_t i = members.size(); i > 1; --i)
        std::swap(members[i - 1], members[rng.bounded(i)]);
      out += '{';
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (i) out += ',';
        space();
        out += json::escape(members[i]->first);
        space();
        out += ':';
        space();
        write_value(out, members[i]->second, rng);
        space();
      }
      out += '}';
      return;
    }
    case json::Value::Type::kArray: {
      out += '[';
      const auto& items = value.as_array();
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (i) out += ',';
        space();
        write_value(out, items[i], rng);
      }
      out += ']';
      return;
    }
    default:
      out += json::write(value);
  }
}

}  // namespace

Xoshiro256 rng_for(std::uint64_t seed, std::uint64_t stream,
                   std::uint64_t index) {
  return Xoshiro256(splitmix(splitmix(seed ^ (stream << 48)) + index));
}

double golden(std::uint64_t seed, std::uint64_t stream, std::uint64_t index) {
  const double offset = rng_for(seed, stream, ~std::uint64_t{0}).uniform01();
  const double u = offset + static_cast<double>(index) * 0.6180339887498949;
  return u - std::floor(u);
}

SweepRequest link_sweep_request(Xoshiro256& rng, double size_u,
                                const std::string& name) {
  static const std::vector<std::string> kLinks = {
      "paper", "2 cm", "4 cm", "6 cm", "10 cm", "14 cm", "short-2cm-4oni",
      "paper-6cm-12oni"};
  static const std::vector<std::size_t> kOnis = {4, 6, 8, 12, 16, 24, 32};

  const double target = 50.0 * std::pow(40.0, size_u);
  std::size_t nc = 1, nl = 1, no = 1, nb = 1;
  for (int attempt = 0;; ++attempt) {
    nc = between(rng, 1, 8);
    nl = between(rng, 1, 5);
    no = between(rng, 1, 4);
    nb = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(
               target / static_cast<double>(nc * nl * no))));
    if (nb <= 40 || attempt >= 64) break;
  }

  photecc::spec::ExperimentSpec spec;
  spec.name = name;
  spec.codes = pick(rng, registry_code_names(), nc);
  spec.links = pick(rng, kLinks, nl);
  spec.oni_counts = pick(rng, kOnis, no);
  std::set<double> bers;
  while (bers.size() < nb) bers.insert(log_uniform(rng, 1e-12, 1e-4));
  spec.ber_targets.assign(bers.begin(), bers.end());
  for (std::size_t i = spec.ber_targets.size(); i > 1; --i)
    std::swap(spec.ber_targets[i - 1], spec.ber_targets[rng.bounded(i)]);
  return {photecc::serve::sweep_request_line(spec), nc * nb * nl * no};
}

SweepRequest noc_request(Xoshiro256& rng, double cost_u, bool network,
                         const std::string& name) {
  static const std::vector<std::string> kCodes = {"w/o ECC", "H(71,64)",
                                                  "H(7,4)", "H(38,32)"};
  static const std::vector<std::string> kPolicies = {"min-power",
                                                     "min-energy", "min-time"};
  static const std::vector<std::uint64_t> kPayloads = {1024, 2048, 4096};

  // One traffic entry and an even cell count: both workers get equal
  // shares, so wall time follows the per-cell message count.
  photecc::spec::ExperimentSpec spec;
  spec.name = name;
  photecc::spec::TrafficEntry traffic;
  traffic.payload_bits = kPayloads[rng.bounded(kPayloads.size())];
  if (network) {
    photecc::spec::NetworkEntry net;
    net.tile_count = rng.bernoulli(0.5) ? 8 : 16;
    net.channel_count = rng.bernoulli(0.5) ? 2 : 4;
    net.mapping = rng.bernoulli(0.5) ? "interleaved" : "blocked";
    spec.network = net;
    spec.codes = pick(rng, kCodes, rng.bernoulli(0.5) ? 2 : 4);
    spec.ber_targets = {log_uniform(rng, 1e-12, 1e-9)};
    traffic.rate_msgs_per_s = log_uniform(rng, 2e8, 6e8);
  } else {
    if (rng.bernoulli(0.3)) {
      traffic.kind = "hotspot";
      traffic.hotspot = rng.bounded(8);
      traffic.hotspot_fraction = round3(0.25 + 0.5 * rng.uniform01());
    }
    traffic.rate_msgs_per_s = log_uniform(rng, 1e8, 4e8);
    const std::uint64_t shape = rng.bounded(3);
    spec.laser_gating = shape == 1 ? std::vector<bool>{rng.bernoulli(0.5)}
                                   : std::vector<bool>{true, false};
    spec.policies = pick(rng, kPolicies, shape == 0 ? 1 : 2);
  }
  spec.traffic = {traffic};
  const std::size_t cells =
      network ? spec.codes.size()
              : spec.laser_gating.size() * spec.policies.size();
  const double per_cell = 300.0 * std::pow(30.0, cost_u) /
                          (static_cast<double>(cells) / 2.0);
  spec.noc_horizon_s = round3(per_cell / traffic.rate_msgs_per_s);
  return {photecc::serve::sweep_request_line(spec), cells};
}

std::string respell(const std::string& line, Xoshiro256& rng) {
  std::string out;
  write_value(out, json::parse(line), rng);
  return out;
}

std::vector<std::string> code_menu_names() {
  photecc::cooling::register_cooling_codes();
  std::vector<std::string> names = registry_code_names();
  // An odd menu size puts the median cell inside one code's latency
  // cluster rather than on the edge between two.
  for (const char* wrap : {"COOL(8,2)", "COOL(16,4)", "COOL(H(7,4),1)",
                           "COOL(BCH(15,7,2),3)", "COOL(H(71,64),16)"})
    names.emplace_back(wrap);
  return names;
}

std::size_t code_family(const std::string& name) {
  // Prefix of each family's names, in kCodeFamilies order.
  static constexpr std::array<std::string_view, 6> kPrefixes = {
      "w/o ECC", "H(", "eH(", "REP(", "BCH(", "COOL("};
  for (std::size_t f = 0; f < kPrefixes.size(); ++f)
    if (name.rfind(kPrefixes[f], 0) == 0) return f;
  throw std::invalid_argument("no code family for '" + name + "'");
}

}  // namespace perfbench
