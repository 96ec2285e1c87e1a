// perfbench_harness: runs one workload and prints its metrics.
//
//   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                     [--spans PATH] [--smoke] [--dump-inputs N]
//   perfbench_harness --build-info
//
// --trace 0 prints the end-to-end metrics; --trace 1 spends half the
// time untraced and half traced, and prints the per-layer metrics (plus
// a self-time summary and the span JSONL at --spans).
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics.  Exit status is 0 only when every check passed.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "photecc/math/json.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace json = photecc::math::json;

/// Set-up is sampled in rounds spread over the timed run: a round sets
/// up once in every core window and counts their mean, so the cores'
/// differing speeds weigh the same in every round.  A round starts when
/// kSetupGapSeconds passed since the last one and rounds so far took
/// under kSetupShare of the run; at least kSetupMinRounds are taken.
/// setup_s is the median round.
constexpr double kSetupGapSeconds = 0.1;
constexpr double kSetupShare = 0.1;
constexpr std::size_t kSetupMinRounds = 5;
/// Every run measures at least this many operations, so p95 has at
/// least 10 samples beyond it.
constexpr std::size_t kMinOps = 200;
/// Windows per timed run (see Phase).
constexpr std::size_t kWindows = 5;
/// Spans of the first requests kept for the JSONL dump.
constexpr std::size_t kKeptRequests = 200;

struct Args {
  std::string workload;
  Config config;
  double seconds = 10.0;
  bool trace = false;
  std::string spans;
  long dump_inputs = -1;
  bool build_info = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") args.workload = value();
    else if (flag == "--seed") args.config.seed = std::stoull(value());
    else if (flag == "--seconds") args.seconds = std::stod(value());
    else if (flag == "--trace") args.trace = value() == "1";
    else if (flag == "--spans") args.spans = value();
    else if (flag == "--smoke") args.config.smoke = true;
    else if (flag == "--dump-inputs") args.dump_inputs = std::stol(value());
    else if (flag == "--build-info") args.build_info = true;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (args.workload.empty() && !args.build_info)
    throw std::invalid_argument("--workload needed");
  return args;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

/// Peak resident set of this program, from VmHWM.  getrusage's
/// ru_maxrss survives exec, so it would report the launcher's peak when
/// that is larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Cycles the calling thread (and the sweep workers it spawns, which
/// inherit its mask) through windows of `width` allowed cores.  Cores
/// of a shared host run at different speeds from minute to minute;
/// visiting every core within each run averages that out instead of
/// letting it decide whole runs.
class CoreRotation {
 public:
  explicit CoreRotation(std::size_t width) {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) == 0)
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
        if (CPU_ISSET(cpu, &allowed)) cores_.push_back(cpu);
    width_ = std::min(width, cores_.size());
  }

  /// Number of distinct windows next() cycles through.
  [[nodiscard]] std::size_t windows() const {
    return rotates() ? cores_.size() : 1;
  }

  /// Moves to the next window; a no-op when fewer cores than twice the
  /// width are allowed.
  void next() {
    if (!rotates()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (std::size_t i = 0; i < width_; ++i)
      CPU_SET(cores_[(start_ + i) % cores_.size()], &set);
    start_ = (start_ + 1) % cores_.size();
    sched_setaffinity(0, sizeof set, &set);
    last_ = Clock::now();
  }

  /// next() once `kRotateSeconds` passed since the last move.
  void tick() {
    if (std::chrono::duration<double>(Clock::now() - last_).count() >=
        kRotateSeconds)
      next();
  }

 private:
  [[nodiscard]] bool rotates() const {
    return width_ > 0 && cores_.size() >= 2 * width_;
  }

  static constexpr double kRotateSeconds = 0.05;
  std::vector<int> cores_;
  std::size_t width_ = 0;
  std::size_t start_ = 0;
  Clock::time_point last_ = Clock::now();
};

/// One stretch of a run's operations.
struct Window {
  std::vector<double> latencies;
  double cells = 0.0;
  double busy_s = 0.0;
};

/// A run's operations in kWindows equal stretches of time.  Latency
/// quantiles and throughput are computed per window and reported as
/// the median over windows, so a burst of host slowness that covers
/// less than half the run moves a few windows, not the result.
struct Phase {
  std::vector<Window> windows = std::vector<Window>(kWindows);
  std::size_t ops = 0;
  std::size_t failed = 0;

  /// Median over the non-empty windows of `statistic(window)`.
  template <typename F>
  [[nodiscard]] double median_of(F statistic) const {
    std::vector<double> values;
    for (const Window& window : windows)
      if (!window.latencies.empty()) values.push_back(statistic(window));
    return quantile(std::move(values), 0.5);
  }
  [[nodiscard]] double latency_ms(double q) const {
    return 1e3 * median_of([q](const Window& window) {
             return quantile(window.latencies, q);
           });
  }
};

/// Set-up rounds (see kSetupGapSeconds) and their checks.
struct SetupRounds {
  std::vector<double> seconds;
  double spent = 0.0;
  std::size_t failed = 0;

  void take(Workload& workload, CoreRotation& cores) {
    double sum = 0.0;
    for (std::size_t w = 0; w < cores.windows(); ++w) {
      cores.next();
      const auto start = Clock::now();
      workload.setup();
      sum += std::chrono::duration<double>(Clock::now() - start).count();
      failed += workload.check_setup();
      workload.discard();
    }
    seconds.push_back(sum / static_cast<double>(cores.windows()));
    spent += sum;
  }
};

/// Closed loop: operations back to back until `seconds` have passed
/// and at least `min_ops` ran, with set-up rounds in between when
/// `setups` is given.
Phase run_phase(Workload& workload, std::size_t& next_index, double seconds,
                std::size_t min_ops, Tracer* tracer, CoreRotation& cores,
                SetupRounds* setups) {
  Phase phase;
  const auto start = Clock::now();
  double last_round = 0.0;
  for (;;) {
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (phase.ops >= min_ops && elapsed >= seconds) break;
    if (setups && elapsed - last_round >= kSetupGapSeconds &&
        setups->spent < kSetupShare * elapsed) {
      setups->take(workload, cores);
      last_round = elapsed;
    }
    cores.tick();
    Window& window = phase.windows[std::min(
        kWindows - 1,
        static_cast<std::size_t>(elapsed / seconds *
                                 static_cast<double>(kWindows)))];
    const OpResult op = workload.run(next_index++, tracer);
    window.latencies.push_back(op.seconds);
    window.cells += op.cells;
    window.busy_s += op.seconds;
    ++phase.ops;
    phase.failed += !op.ok;
  }
  return phase;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Per-layer time metrics and the span each one reads.
const std::vector<std::pair<std::string, std::string>>& layer_spans() {
  static const std::vector<std::pair<std::string, std::string>> spans = [] {
    std::vector<std::pair<std::string, std::string>> out = {
        {"serve.parse_request_ms", "serve.parse_request"},
        {"spec.from_json_ms", "spec.from_json"},
        {"spec.canonicalize_ms", "spec.canonicalize"},
        {"serve.cache_find_ms", "serve.cache_find"},
        {"serve.write_ms", "serve.write"},
        {"spec.lower_ms", "spec.lower"},
        {"explore.plan_lower_ms", "explore.plan_lower"},
        {"explore.execute_ms", "explore.execute"},
        {"serve.render_ms", "serve.render"},
        {"serve.cache_insert_ms", "serve.cache_insert"},
        {"explore.sweep_runner_ms", "explore.sweep_runner"},
        {"noc.evaluate_cell_ms", "noc.evaluate_cell"},
        {"codec.transpose_ms", "codec.transpose"},
        {"codec.inject_ms", "codec.inject"},
        {"codec.count_ms", "codec.count"}};
    for (const std::string_view view : kCodeFamilies) {
      const std::string family(view);
      out.emplace_back("ecc.encode_batch_ms." + family,
                       "ecc.encode_batch." + family);
      out.emplace_back("ecc.decode_batch_ms." + family,
                       "ecc.decode_batch." + family);
    }
    return out;
  }();
  return spans;
}

/// Counts recorded on spans, reported per traced operation.
const std::vector<std::string>& layer_counts() {
  static const std::vector<std::string> counts = {
      "serve.response_bytes",     "explore.cells",
      "explore.channels_lowered", "explore.root_solves",
      "explore.solver_iterations", "noc.messages_delivered",
      "noc.messages_dropped",     "codec.flips",
      "codec.corrected_blocks",   "codec.detected_blocks",
      "codec.message_bits"};
  return counts;
}

/// Root span names: their self time is what no layer span covers.
constexpr const char* kRootSpans[] = {"serve.request", "codec.cell"};

std::vector<Metric> layer_metrics(const Workload& workload,
                                  const Tracer& tracer, std::size_t ops,
                                  double overhead_ms) {
  std::vector<Metric> metrics;
  for (const auto& [metric, span] : layer_spans())
    metrics.push_back({metric, tracer.self_ms_per_request(span), "ms"});
  double unaccounted = 0.0;
  for (const char* root : kRootSpans)
    unaccounted += tracer.self_ms_per_request(root);
  metrics.push_back({"trace.unaccounted_ms", unaccounted, "ms"});
  metrics.push_back({"trace.overhead_ms", overhead_ms, "ms"});

  const double per_op =
      1.0 / static_cast<double>(std::max<std::size_t>(ops, 1));
  for (const std::string& count : layer_counts())
    metrics.push_back({count, tracer.count_total(count) * per_op, "count/op"});

  const double cells = tracer.count_total("explore.cells");
  const double warm = tracer.count_total("explore.warm_reuses");
  metrics.push_back(
      {"explore.warm_hit_rate", cells > 0 ? warm / cells : 0.0, "ratio"});
  const double messages = tracer.count_total("noc.messages_delivered") +
                          tracer.count_total("noc.messages_dropped");
  const auto cell_span = tracer.layers().find("noc.evaluate_cell");
  metrics.push_back(
      {"noc.host_us_per_msg",
       messages > 0 && cell_span != tracer.layers().end()
           ? cell_span->second.duration_ns * 1e-3 / messages
           : 0.0,
       "us"});

  std::map<std::string, double> cache = workload.cache_metrics(ops);
  metrics.push_back({"serve.cache_evictions", cache["serve.cache_evictions"],
                     "count/op"});
  metrics.push_back({"serve.cache_hit_ratio", cache["serve.cache_hit_ratio"],
                     "ratio"});
  return metrics;
}

/// Per-layer self time per traced operation, largest first; the rows
/// add up to the mean traced request latency.
void print_summary(const Tracer& tracer, std::size_t ops, double overhead_ms) {
  const double per_op =
      1e-6 / static_cast<double>(std::max<std::size_t>(ops, 1));
  std::vector<std::pair<double, std::string>> rows;
  double total = 0.0, unaccounted = 0.0;
  for (const auto& [name, totals] : tracer.layers()) {
    const double ms = totals.self_ns * per_op;
    total += ms;
    if (std::find(std::begin(kRootSpans), std::end(kRootSpans), name) !=
        std::end(kRootSpans))
      unaccounted += ms;
    else
      rows.emplace_back(ms, name);
  }
  std::sort(rows.rbegin(), rows.rend());
  std::cout << "# per-layer self time over " << ops
            << " traced operations (ms/op, share of traced latency)\n";
  for (const auto& [ms, name] : rows)
    std::cout << "#   " << std::left << std::setw(28) << name << std::right
              << std::setw(12) << std::fixed << std::setprecision(5) << ms
              << std::setw(8) << std::setprecision(1)
              << (total > 0 ? 100.0 * ms / total : 0.0) << "%\n";
  std::cout << std::setprecision(5) << "#   layers sum " << total - unaccounted
            << " ms/op + unaccounted " << unaccounted
            << " ms/op = traced request latency " << total
            << " ms/op; tracing overhead (traced - untraced p50) "
            << overhead_ms << " ms\n";
  std::cout.unsetf(std::ios::floatfield);
}

/// Each window's op count, p50 and p95 latency and throughput, and
/// every set-up round: the spread inside one run, beside the medians
/// reported.
void print_windows(const Phase& phase, const SetupRounds& setups) {
  std::cout << "# windows: ops, p50 ms, p95 ms, cells/s";
  for (const Window& window : phase.windows)
    std::cout << " | " << window.latencies.size() << ' '
              << 1e3 * quantile(window.latencies, 0.5) << ' '
              << 1e3 * quantile(window.latencies, 0.95) << ' '
              << (window.busy_s > 0 ? window.cells / window.busy_s : 0.0);
  std::cout << "\n# set-up rounds (s):";
  for (const double seconds : setups.seconds) std::cout << ' ' << seconds;
  std::cout << '\n';
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ',';
    out += json::escape(metrics[i].name) + ":{\"value\":" +
           json::number(metrics[i].value) +
           ",\"unit\":" + json::escape(metrics[i].unit) + "}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

int run(const Args& args) {
  if (args.build_info) {
    std::cout << "{\"compiler\":" << json::escape(PERFBENCH_COMPILER)
              << ",\"build_type\":" << json::escape(PERFBENCH_BUILD_TYPE)
              << ",\"cxx_flags\":" << json::escape(PERFBENCH_CXX_FLAGS)
              << "}\n";
    return 0;
  }
  const std::unique_ptr<Workload> workload =
      make_workload(args.workload, args.config);
  if (args.dump_inputs >= 0) {
    workload->dump_inputs(static_cast<std::size_t>(args.dump_inputs),
                          std::cout);
    return 0;
  }
  const std::size_t min_ops = args.config.smoke ? 10 : kMinOps;

  // The first set-up builds the state the operations use.
  CoreRotation cores(workload->threads());
  cores.next();
  workload->setup();
  SetupRounds setups;
  setups.failed += workload->check_setup();
  workload->discard();
  std::size_t next_index = 0;
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  if (!args.trace) {
    const Phase phase = run_phase(*workload, next_index, args.seconds,
                                  min_ops, nullptr, cores, &setups);
    while (setups.seconds.size() < (args.config.smoke ? 1 : kSetupMinRounds))
      setups.take(*workload, cores);
    failed += setups.failed + phase.failed + workload->finish();
    attempted = phase.ops;
    print_windows(phase, setups);
    metrics = {
        {"setup_s", quantile(setups.seconds, 0.5), "s"},
        {"latency_p50_ms", phase.latency_ms(0.5), "ms"},
        {"latency_p95_ms", phase.latency_ms(0.95), "ms"},
        {"cells_per_s",
         phase.median_of([](const Window& window) {
           return window.cells / window.busy_s;
         }),
         "1/s"},
        {"success_rate",
         1.0 - static_cast<double>(std::min(failed, attempted)) /
                   static_cast<double>(attempted),
         "ratio"},
        {"peak_rss_mb", peak_rss_mb(), "MB"}};
  } else {
    const Phase plain = run_phase(*workload, next_index, args.seconds / 2,
                                  min_ops, nullptr, cores, nullptr);
    workload->start_trace();
    Tracer tracer(kKeptRequests);
    const Phase traced = run_phase(*workload, next_index, args.seconds / 2,
                                   min_ops, &tracer, cores, nullptr);
    failed += setups.failed + plain.failed + traced.failed +
              workload->finish();
    attempted = plain.ops + traced.ops;
    const double overhead_ms = traced.latency_ms(0.5) - plain.latency_ms(0.5);
    print_summary(tracer, traced.ops, overhead_ms);
    metrics = layer_metrics(*workload, tracer, traced.ops, overhead_ms);
    if (!args.spans.empty()) {
      std::ofstream spans(args.spans);
      tracer.dump(spans);
      if (!spans) throw std::runtime_error("cannot write " + args.spans);
    }
  }
  failed = std::min(failed, attempted);
  print_result(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << "\n";
    return 2;
  }
}
