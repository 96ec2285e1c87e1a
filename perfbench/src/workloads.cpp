#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <iostream>
#include <numeric>
#include <span>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "inputs.hpp"
#include "photecc/codec/batch_mc.hpp"
#include "photecc/codec/bitslab.hpp"
#include "photecc/ecc/registry.hpp"
#include "photecc/math/hash.hpp"
#include "photecc/math/json.hpp"
#include "photecc/serve/service.hpp"
#include "pipeline.hpp"

namespace perfbench {

namespace {

namespace codec = photecc::codec;
namespace ecc = photecc::ecc;
namespace serve = photecc::serve;
using photecc::math::fnv1a64;

/// Worker threads per sweep.  Fixed: 0 would follow the host's cores.
constexpr std::size_t kServeThreads = 2;
/// The PlanCache budget a Service gets by default.
const std::size_t kDefaultCacheBudget =
    serve::ServiceOptions{}.cache_budget_bytes;
/// Every k-th traced request is also answered by serve::Service and
/// compared byte for byte.
constexpr std::size_t kByteCheckEvery = 8;

/// Seed streams, one per independent input sequence.
enum Stream : std::uint64_t {
  kCold = 1,
  kWarm,
  kHot,
  kRespell,
  kZipf,
  kForm,
  kNoc,
  kNocWarm,
  kMenuOrder,
  kRawBer,
  kInject,
  kMessages,
};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Header first, no error record, and a done record last whose cell
/// count is the grid's.
bool sweep_ok(const std::string& response, std::size_t cells) {
  if (response.rfind("{\"kind\":\"header\"", 0) != 0) return false;
  if (response.find("{\"kind\":\"error\"") != std::string::npos) return false;
  if (response.size() < 2 || response.back() != '\n') return false;
  const std::size_t last = response.rfind('\n', response.size() - 2);
  const std::string done =
      "{\"kind\":\"done\",\"cells\":" + std::to_string(cells) + ",";
  return response.compare(last + 1, done.size(), done) == 0;
}

std::string respond(serve::Service& service, const std::string& line) {
  std::ostringstream out;
  service.handle_line(line, out);
  return std::move(out).str();
}

/// Shared driver of the three workloads that go through the serve
/// layer: Service for timed operations, TracedService for traced ones.
class ServeWorkload : public Workload {
 public:
  std::size_t threads() const override { return kServeThreads; }

  void discard() override {
    spare_.reset();
    setup_responses_.clear();
  }

  void start_trace() override {
    traced_ = std::make_unique<TracedService>(options());
  }

  std::map<std::string, double> cache_metrics(
      std::size_t traced_ops) const override {
    if (!traced_ || traced_ops == 0 || traced_->lookups() == 0) return {};
    return {{"serve.cache_evictions",
             static_cast<double>(traced_->cache().evictions()) /
                 static_cast<double>(traced_ops)},
            {"serve.cache_hit_ratio",
             static_cast<double>(traced_->hits()) /
                 static_cast<double>(traced_->lookups())}};
  }

 protected:
  ServeWorkload(const Config& config, std::size_t cache_budget_bytes)
      : config_(config), cache_budget_bytes_(cache_budget_bytes) {}

  [[nodiscard]] serve::ServiceOptions options() const {
    serve::ServiceOptions options;
    options.threads = kServeThreads;
    options.cache_budget_bytes = cache_budget_bytes_;
    return options;
  }

  /// Builds a service and answers `requests` (timed by the caller).
  void setup_with(const std::vector<SweepRequest>& requests) {
    auto service = std::make_unique<serve::Service>(options());
    for (const SweepRequest& request : requests)
      setup_responses_.push_back(respond(*service, request.line));
    (service_ ? spare_ : service_) = std::move(service);
  }

  [[nodiscard]] std::size_t check_setup_with(
      const std::vector<SweepRequest>& requests) const {
    std::size_t failed = 0;
    for (std::size_t i = 0; i < requests.size(); ++i)
      failed += !sweep_ok(setup_responses_[i], requests[i].cells);
    return failed;
  }

  /// One timed request, then its checks: the sweep's framing, and for
  /// sampled traced requests byte identity with serve::Service.
  OpResult serve_op(std::size_t index, const SweepRequest& request,
                    Tracer* tracer, std::string& response) {
    OpResult result;
    result.cells = static_cast<double>(request.cells);
    std::ostringstream out;
    try {
      const auto start = Clock::now();
      if (tracer)
        traced_->handle_line(request.line, out, tracer, index);
      else
        service_->handle_line(request.line, out);
      result.seconds = seconds_since(start);
    } catch (const std::exception& e) {
      std::cerr << "request " << index << " threw: " << e.what() << "\n";
      if (tracer) tracer->finish_request();
      return result;
    }
    if (tracer) tracer->finish_request();
    response = std::move(out).str();
    result.ok = sweep_ok(response, request.cells);
    if (tracer && index % kByteCheckEvery == 0 &&
        respond(*service_, request.line) != response) {
      std::cerr << "request " << index
                << ": traced pipeline bytes differ from serve::Service\n";
      result.ok = false;
    }
    if (!result.ok) std::cerr << "request " << index << " failed checks\n";
    return result;
  }

  Config config_;
  std::size_t cache_budget_bytes_;
  std::unique_ptr<serve::Service> service_;
  std::unique_ptr<serve::Service> spare_;
  std::unique_ptr<TracedService> traced_;
  std::vector<std::string> setup_responses_;
};

/// Size draw of request `index`: the smoke test keeps grids small.
double size_u(const Config& config, Stream stream, std::size_t index) {
  const double u = golden(config.seed, stream, index);
  return config.smoke ? 0.25 * u : u;
}

// --- sweep_cold ---------------------------------------------------------

/// Distinct link sweeps: every request misses the PlanCache, lowers,
/// executes, renders and fills the cache until it evicts.
class SweepCold final : public ServeWorkload {
 public:
  explicit SweepCold(const Config& config)
      : ServeWorkload(config, kDefaultCacheBudget) {
    // Fixed warm-up grids: set-up work does not vary with the seed.
    for (std::size_t k = 0; k < 8; ++k) {
      auto rng = rng_for(0, kWarm, k);
      warm_.push_back(link_sweep_request(
          rng, (config.smoke ? 0.25 : 1.0) * (k + 0.5) / 8.0,
          "warm-" + std::to_string(k)));
    }
  }

  void setup() override { setup_with(warm_); }
  std::size_t check_setup() override { return check_setup_with(warm_); }

  OpResult run(std::size_t index, Tracer* tracer) override {
    std::string response;
    return serve_op(index, request(index), tracer, response);
  }

  std::size_t finish() override {
    // Every request carried a new spec, so nothing may have hit.
    const std::size_t hits =
        service_->stats().cache_hits + (traced_ ? traced_->hits() : 0);
    if (hits != 0) std::cerr << "sweep_cold: " << hits << " cache hits\n";
    return hits;
  }

  void dump_inputs(std::size_t count, std::ostream& os) override {
    for (std::size_t i = 0; i < count; ++i) os << request(i).line << "\n";
  }

 private:
  [[nodiscard]] SweepRequest request(std::size_t index) const {
    auto rng = rng_for(config_.seed, kCold, index);
    return link_sweep_request(rng, size_u(config_, kCold, index),
                              "cold-" + std::to_string(index));
  }

  std::vector<SweepRequest> warm_;
};

// --- sweep_replay -------------------------------------------------------

/// A primed hot set requested under a Zipf(1) law; a third of the
/// requests are respelled (reordered keys, extra spaces) and must still
/// canonicalize to a cache hit.
class SweepReplay final : public ServeWorkload {
 public:
  explicit SweepReplay(const Config& config)
      : ServeWorkload(config, kDefaultCacheBudget) {
    const std::size_t hot = config.smoke ? 4 : 24;
    for (std::size_t k = 0; k < hot; ++k) {
      // A fixed hot set of stratified sizes: priming work and the
      // replayed response sizes, which set the latency, do not vary
      // with the seed.  The seed picks the request stream and the
      // respellings.
      auto rng = rng_for(0, kHot, k);
      hot_.push_back(link_sweep_request(
          rng, (config.smoke ? 0.25 : 1.0) * (k + 0.5) / hot,
          "hot-" + std::to_string(k)));
      auto respell_rng = rng_for(config.seed, kRespell, k);
      std::array<std::string, 3> variants;
      for (std::string& variant : variants)
        variant = respell(hot_.back().line, respell_rng);
      variants_.push_back(std::move(variants));
    }
    // Popularity rank -> hot spec by a fixed stride, so the popular
    // ranks mix small and large grids the same way for every seed.
    const std::size_t stride = config.smoke ? 3 : 7;
    double total = 0.0;
    for (std::size_t r = 0; r < hot; ++r) {
      rank_to_hot_.push_back((r * stride) % hot);
      total += 1.0 / static_cast<double>(r + 1);
      zipf_cdf_.push_back(total);
    }
    for (double& c : zipf_cdf_) c /= total;
  }

  void setup() override { setup_with(hot_); }

  /// The first priming records each hot spec's response hash; every
  /// later one must reproduce them.
  std::size_t check_setup() override {
    std::size_t failed = check_setup_with(hot_);
    for (std::size_t k = 0; k < setup_responses_.size(); ++k) {
      const std::uint64_t hash = fnv1a64(setup_responses_[k]);
      if (cold_hash_.size() < hot_.size())
        cold_hash_.push_back(hash);
      else
        failed += hash != cold_hash_[k];
    }
    return failed;
  }

  void start_trace() override {
    ServeWorkload::start_trace();
    for (const SweepRequest& request : hot_) {
      std::ostringstream out;
      traced_->handle_line(request.line, out, nullptr, 0);
    }
  }

  OpResult run(std::size_t index, Tracer* tracer) override {
    const auto [hot, line] = pick(index);
    const std::size_t hits_before =
        tracer ? traced_->hits() : service_->stats().cache_hits;
    std::string response;
    OpResult result =
        serve_op(index, {line, hot_[hot].cells}, tracer, response);
    const std::size_t hits_after =
        tracer ? traced_->hits() : service_->stats().cache_hits;
    if (hits_after != hits_before + 1 || fnv1a64(response) != cold_hash_[hot]) {
      std::cerr << "replay " << index << " of hot spec " << hot
                << " was not a byte-identical cache hit\n";
      result.ok = false;
    }
    return result;
  }

  void dump_inputs(std::size_t count, std::ostream& os) override {
    for (const SweepRequest& request : hot_) os << request.line << "\n";
    for (std::size_t i = 0; i < count; ++i) os << pick(i).second << "\n";
  }

 private:
  /// Hot-set index and request line of replay `index`.
  [[nodiscard]] std::pair<std::size_t, std::string> pick(
      std::size_t index) const {
    const double u = golden(config_.seed, kZipf, index);
    const std::size_t rank = static_cast<std::size_t>(
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end() - 1, u) -
        zipf_cdf_.begin());
    const std::size_t hot = rank_to_hot_[rank];
    auto rng = rng_for(config_.seed, kForm, index);
    const std::uint64_t form = rng.bounded(9);
    return {hot, form < 3 ? variants_[hot][form] : hot_[hot].line};
  }

  std::vector<SweepRequest> hot_;
  std::vector<std::array<std::string, 3>> variants_;
  std::vector<std::size_t> rank_to_hot_;
  std::vector<double> zipf_cdf_;
  std::vector<std::uint64_t> cold_hash_;
};

// --- noc_sweep ----------------------------------------------------------

/// NoC sweeps, half on the single-channel evaluator and half on the
/// tiled network, with per-request cost from one continuous range.
/// Responses are small (a few KB), so the cache budget is 8 MiB: the
/// cache fills and evicts within a run, and peak RSS measures that
/// steady state rather than how many requests the run got through.
class NocSweep final : public ServeWorkload {
 public:
  explicit NocSweep(const Config& config)
      : ServeWorkload(config, std::size_t{8} << 20) {
    // Fixed warm-up sweeps: set-up work does not vary with the seed.
    for (std::size_t k = 0; k < 8; ++k) {
      auto rng = rng_for(0, kNocWarm, k);
      warm_.push_back(
          noc_request(rng, (config.smoke ? 0.25 : 1.0) * (k + 0.5) / 8.0,
                      k % 2 == 1, "noc-warm-" + std::to_string(k)));
    }
  }

  void setup() override { setup_with(warm_); }
  std::size_t check_setup() override { return check_setup_with(warm_); }

  OpResult run(std::size_t index, Tracer* tracer) override {
    std::string response;
    OpResult result = serve_op(index, request(index), tracer, response);
    if (index < 8 || index % 64 == 0)
      sampled_.emplace_back(index, fnv1a64(response));
    return result;
  }

  /// Response bytes are a pure function of the seed: sampled requests
  /// are regenerated from it and recomputed on a fresh one-thread
  /// service.
  std::size_t finish() override {
    serve::ServiceOptions sequential = options();
    sequential.threads = 1;
    serve::Service fresh(sequential);
    std::size_t failed = 0;
    for (std::size_t i = 0; i < sampled_.size() && i < 16; ++i) {
      const auto [index, hash] = sampled_[i];
      if (fnv1a64(respond(fresh, request(index).line)) != hash) {
        std::cerr << "noc request " << index << " is not reproducible\n";
        ++failed;
      }
    }
    return failed;
  }

  void dump_inputs(std::size_t count, std::ostream& os) override {
    for (std::size_t i = 0; i < count; ++i) os << request(i).line << "\n";
  }

 private:
  [[nodiscard]] SweepRequest request(std::size_t index) const {
    auto rng = rng_for(config_.seed, kNoc, index);
    const bool network = rng.bernoulli(0.5);
    return noc_request(rng, size_u(config_, kNoc, index), network,
                       "noc-" + std::to_string(index));
  }

  std::vector<SweepRequest> warm_;
  std::vector<std::pair<std::size_t, std::uint64_t>> sampled_;
};

// --- mc_menu ------------------------------------------------------------

/// Per-family encode and decode span names ("ecc.encode_batch.bch"),
/// stored for the life of the program as spans require.
struct FamilySpans {
  std::vector<std::string> encode, decode;
};

const FamilySpans& family_spans() {
  static const FamilySpans spans = [] {
    FamilySpans out;
    for (const std::string_view family : kCodeFamilies) {
      out.encode.push_back("ecc.encode_batch." + std::string(family));
      out.decode.push_back("ecc.decode_batch." + std::string(family));
    }
    return out;
  }();
  return spans;
}

/// Bit-true Monte-Carlo over the whole code menu: one operation is one
/// (code, raw BER) cell of a fixed codeword count, raw BER log-uniform
/// in [1e-5, 1e-2].
class McMenu final : public Workload {
 public:
  explicit McMenu(const Config& config)
      : config_(config),
        names_(code_menu_names()),
        slabs_(config.smoke ? 2 : 32) {
    for (std::size_t c = 0; c < names_.size(); ++c) {
      family_.push_back(code_family(names_[c]));
      // Messages are inputs: generated once, before any timing.
      const std::size_t k = ecc::make_code(names_[c])->message_length();
      auto rng = rng_for(config.seed, kMessages, c);
      std::vector<ecc::BitVec> words(slabs_ * codec::BitSlab::kLanes,
                                     ecc::BitVec(k));
      for (ecc::BitVec& word : words)
        for (std::size_t b = 0; b < k; ++b) word.set(b, rng.bernoulli(0.5));
      messages_.push_back(std::move(words));
    }
  }

  std::size_t threads() const override { return 1; }

  void setup() override {
    std::vector<ecc::BlockCodePtr> codes;
    for (const std::string& name : names_)
      codes.push_back(ecc::make_code(name));
    (codes_.empty() ? codes_ : spare_) = std::move(codes);
  }

  std::size_t check_setup() override {
    const auto& codes = spare_.empty() ? codes_ : spare_;
    std::size_t failed = 0;
    for (std::size_t c = 0; c < names_.size(); ++c)
      failed += !codes[c] || codes[c]->name() != names_[c];
    return failed;
  }

  void discard() override { spare_.clear(); }

  OpResult run(std::size_t index, Tracer* tracer) override {
    const auto [c, p] = cell(index);
    const ecc::BlockCode& code = *codes_[c];
    const std::size_t family = family_[c];
    const std::vector<ecc::BitVec>& messages = messages_[c];
    auto rng = rng_for(config_.seed, kInject, index);

    codec::BitSlab first_encoded, first_received;
    ecc::BatchDecodeResult first_decoded;
    std::uint64_t residual = 0, corrected = 0, detected = 0, flips = 0;
    std::size_t sink = 0;
    OpResult result;
    result.cells = 1.0;
    const auto start = Clock::now();
    {
      Scope root(tracer, "codec.cell", 0, index);
      for (std::size_t s = 0; s < slabs_; ++s) {
        codec::BitSlab sent;
        {
          Scope span(tracer, "codec.transpose", root.id(), index);
          sent = codec::BitSlab::transpose_in(
              std::span<const ecc::BitVec>(messages).subspan(
                  s * codec::BitSlab::kLanes, codec::BitSlab::kLanes));
        }
        codec::BitSlab encoded;
        {
          Scope span(tracer, family_spans().encode[family], root.id(), index);
          encoded = code.encode_batch(sent);
        }
        codec::BitSlab received;
        {
          Scope span(tracer, "codec.inject", root.id(), index);
          received = encoded;
          codec::inject_errors(received, p, rng);
        }
        ecc::BatchDecodeResult decoded;
        {
          Scope span(tracer, family_spans().decode[family], root.id(), index);
          decoded = code.decode_batch(received);
        }
        {
          Scope span(tracer, "codec.transpose", root.id(), index);
          sink += decoded.messages.transpose_out().size();
        }
        {
          Scope span(tracer, "codec.count", root.id(), index);
          residual += codec::count_errors(decoded.messages, sent);
          if (tracer) flips += codec::count_errors(encoded, received);
        }
        corrected +=
            static_cast<std::uint64_t>(std::popcount(decoded.corrected));
        detected +=
            static_cast<std::uint64_t>(std::popcount(decoded.error_detected));
        if (s == 0) {
          first_encoded = std::move(encoded);
          first_received = std::move(received);
          first_decoded = std::move(decoded);
        }
      }
      root.count("codec.residual_errors", static_cast<double>(residual));
      root.count("codec.flips", static_cast<double>(flips));
      root.count("codec.corrected_blocks", static_cast<double>(corrected));
      root.count("codec.detected_blocks", static_cast<double>(detected));
      root.count("codec.message_bits",
                 static_cast<double>(slabs_ * codec::BitSlab::kLanes *
                                     code.message_length()));
    }
    result.seconds = seconds_since(start);
    if (tracer) tracer->finish_request();

    result.ok = sink == slabs_ * codec::BitSlab::kLanes &&
                matches_scalar(code, messages, first_encoded, first_received,
                               first_decoded);
    if (!result.ok)
      std::cerr << "cell " << index << " (" << names_[c]
                << "): batch path differs from scalar encode/decode\n";
    return result;
  }

  void dump_inputs(std::size_t count, std::ostream& os) override {
    for (std::size_t i = 0; i < count; ++i) {
      const auto [c, p] = cell(i);
      std::uint64_t hash = photecc::math::kFnv1a64OffsetBasis;
      for (const ecc::BitVec& word : messages_[c])
        for (std::size_t b = 0; b < word.size(); ++b)
          hash = fnv1a64(word.get(b) ? "1" : "0", hash);
      os << names_[c] << " " << photecc::math::json::number(p) << " "
         << photecc::math::hex64(hash) << "\n";
    }
  }

 private:
  /// Code index and raw BER of cell `index`: each pass over the menu
  /// visits every code once, in a seeded order.
  [[nodiscard]] std::pair<std::size_t, double> cell(std::size_t index) const {
    const std::size_t menu = names_.size();
    std::vector<std::size_t> order(menu);
    std::iota(order.begin(), order.end(), std::size_t{0});
    auto rng = rng_for(config_.seed, kMenuOrder, index / menu);
    for (std::size_t i = menu; i > 1; --i)
      std::swap(order[i - 1], order[rng.bounded(i)]);
    const double u = golden(config_.seed, kRawBer, index);
    return {order[index % menu], std::pow(10.0, -2.0 - 3.0 * u)};
  }

  /// Slab 0 lane for lane against the scalar BlockCode::encode/decode.
  static bool matches_scalar(const ecc::BlockCode& code,
                             const std::vector<ecc::BitVec>& messages,
                             const codec::BitSlab& encoded,
                             const codec::BitSlab& received,
                             const ecc::BatchDecodeResult& decoded) {
    for (std::size_t lane = 0; lane < codec::BitSlab::kLanes; ++lane) {
      if (code.encode(messages[lane]) != encoded.transpose_out(lane))
        return false;
      const ecc::DecodeResult scalar =
          code.decode(received.transpose_out(lane));
      const std::uint64_t bit = std::uint64_t{1} << lane;
      if (scalar.message != decoded.messages.transpose_out(lane) ||
          scalar.error_detected != ((decoded.error_detected & bit) != 0) ||
          scalar.corrected != ((decoded.corrected & bit) != 0))
        return false;
    }
    return true;
  }

  Config config_;
  std::vector<std::string> names_;
  std::size_t slabs_;
  std::vector<std::size_t> family_;
  std::vector<std::vector<ecc::BitVec>> messages_;
  std::vector<ecc::BlockCodePtr> codes_;
  std::vector<ecc::BlockCodePtr> spare_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"sweep_cold", "sweep_replay",
                                                 "mc_menu", "noc_sweep"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Config& config) {
  if (name == "sweep_cold") return std::make_unique<SweepCold>(config);
  if (name == "sweep_replay") return std::make_unique<SweepReplay>(config);
  if (name == "mc_menu") return std::make_unique<McMenu>(config);
  if (name == "noc_sweep") return std::make_unique<NocSweep>(config);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
