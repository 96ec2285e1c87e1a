#include "pipeline.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "photecc/explore/evaluators.hpp"
#include "photecc/explore/plan.hpp"
#include "photecc/explore/runner.hpp"
#include "photecc/math/hash.hpp"
#include "photecc/serve/protocol.hpp"
#include "photecc/spec/run.hpp"
#include "photecc/spec/spec.hpp"

namespace perfbench {

namespace json = photecc::math::json;
namespace explore = photecc::explore;
namespace serve = photecc::serve;
namespace spec = photecc::spec;

namespace {

// Record bodies, rendered exactly as serve/service.cpp renders them.

std::vector<std::string> axis_names(const spec::ExperimentSpec& experiment) {
  std::vector<std::string> axes;
  if (!experiment.codes.empty()) axes.emplace_back("code");
  if (!experiment.ber_targets.empty()) axes.emplace_back("target_ber");
  if (!experiment.links.empty()) axes.emplace_back("link");
  if (!experiment.oni_counts.empty()) axes.emplace_back("oni_count");
  if (!experiment.traffic.empty()) axes.emplace_back("traffic");
  if (!experiment.laser_gating.empty()) axes.emplace_back("laser_gating");
  if (!experiment.policies.empty()) axes.emplace_back("policy");
  if (!experiment.modulations.empty()) axes.emplace_back("modulation");
  if (!experiment.environments.empty()) axes.emplace_back("environment");
  return axes;
}

std::string string_array(const std::vector<std::string>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ',';
    out += json::escape(values[i]);
  }
  out += ']';
  return out;
}

std::vector<std::string> metric_union(
    const std::vector<explore::CellResult>& cells) {
  std::vector<std::string> names;
  for (const explore::CellResult& cell : cells)
    for (const auto& entry : cell.metrics)
      if (std::find(names.begin(), names.end(), entry.first) == names.end())
        names.push_back(entry.first);
  return names;
}

std::string header_body(const spec::ExperimentSpec& experiment,
                        std::uint64_t hash, std::size_t cells,
                        std::size_t block_size,
                        const std::vector<std::string>& metrics) {
  std::string body = ",\"spec_hash\":\"" + photecc::math::hex64(hash) + '"';
  if (!experiment.name.empty())
    body += ",\"name\":" + json::escape(experiment.name);
  body += ",\"cells\":" + std::to_string(cells);
  body += ",\"block_size\":" + std::to_string(block_size);
  body += ",\"axes\":" + string_array(axis_names(experiment));
  body += ",\"metrics\":" + string_array(metrics);
  return body;
}

std::string cells_body(std::size_t begin, std::size_t end,
                       const std::vector<explore::CellResult>& cells) {
  std::ostringstream os;
  os << ",\"begin\":" << begin << ",\"end\":" << end << ",\"cells\":[";
  for (std::size_t i = begin; i < end; ++i) {
    if (i != begin) os << ',';
    explore::write_cell_json(os, cells[i]);
  }
  os << ']';
  return os.str();
}

std::string done_body(const std::vector<explore::CellResult>& cells,
                      const explore::SweepStats& stats) {
  std::size_t feasible = 0;
  for (const explore::CellResult& cell : cells) feasible += cell.feasible;
  std::string body = ",\"cells\":" + std::to_string(cells.size());
  body += ",\"feasible\":" + std::to_string(feasible);
  body += ",\"lowered\":{\"channels_lowered\":" +
          std::to_string(stats.channels_lowered);
  body += ",\"root_solves\":" + std::to_string(stats.root_solves);
  body += ",\"solver_iterations\":" + std::to_string(stats.solver_iterations);
  body += ",\"warm_reuses\":" + std::to_string(stats.warm_reuses);
  body += '}';
  return body;
}

}  // namespace

TracedService::TracedService(serve::ServiceOptions options)
    : options_(options), cache_(options.cache_budget_bytes) {
  if (options_.threads == 0)
    throw std::invalid_argument("TracedService needs a fixed thread count");
}

void TracedService::handle_line(const std::string& line, std::ostream& out,
                                Tracer* t, std::uint64_t request) {
  Scope root(t, "serve.request", 0, request);
  const std::uint32_t rid = root.id();
  std::size_t bytes = 0;

  const auto write = [&](std::uint32_t parent, const std::string& kind,
                         const std::string& body) {
    Scope span(t, "serve.write", parent, request);
    const std::string rendered = serve::record(kind, "", body);
    out << rendered << '\n';
    out.flush();
    bytes += rendered.size() + 1;
  };

  serve::Request parsed;
  {
    Scope span(t, "serve.parse_request", rid, request);
    parsed = serve::parse_request(line);
  }
  if (parsed.kind != serve::Request::Kind::kSweep || !parsed.id.empty())
    throw std::invalid_argument("only id-less sweep requests are traced");

  spec::ExperimentSpec experiment;
  {
    Scope span(t, "spec.from_json", rid, request);
    experiment = spec::from_json_value(*parsed.spec_document);
  }
  std::string canonical;
  std::uint64_t hash = 0;
  {
    Scope span(t, "spec.canonicalize", rid, request);
    canonical = experiment.to_json();
    hash = photecc::math::fnv1a64(canonical);
  }
  const serve::CachedSweep* cached = nullptr;
  {
    Scope span(t, "serve.cache_find", rid, request);
    cached = cache_.find(hash, canonical);
  }
  ++lookups_;
  if (cached) {
    ++hits_;
    for (const auto& [kind, body] : cached->records) write(rid, kind, body);
    root.count("serve.response_bytes", static_cast<double>(bytes));
    return;
  }

  serve::CachedSweep entry;
  const auto deliver = [&](std::uint32_t parent, const std::string& kind,
                           std::string body) {
    write(parent, kind, body);
    entry.records.emplace_back(kind, std::move(body));
  };
  const auto render = [&](std::uint32_t parent, auto&& make) {
    Scope span(t, "serve.render", parent, request);
    return make();
  };

  explore::ScenarioGrid grid;
  {
    Scope span(t, "spec.lower", rid, request);
    grid = spec::lower(experiment);
  }
  explore::ExperimentResult result;
  if (!grid.has_noc_axes() &&
      (experiment.evaluator == "auto" || experiment.evaluator == "link")) {
    std::optional<explore::LoweredPlan> plan;
    {
      Scope span(t, "explore.plan_lower", rid, request);
      plan.emplace(grid, explore::PlanOptions{options_.block_size});
    }
    deliver(rid, "header", render(rid, [&] {
              return header_body(experiment, hash, plan->size(),
                                 options_.block_size,
                                 explore::link_cell_metric_names());
            }));
    Scope exec(t, "explore.execute", rid, request);
    result = plan->execute(
        options_.threads,
        [&](std::size_t begin, std::size_t end,
            const std::vector<explore::CellResult>& cells) {
          deliver(exec.id(), "cells", render(exec.id(), [&] {
                    return cells_body(begin, end, cells);
                  }));
        });
  } else {
    if (experiment.evaluator != "auto")
      throw std::invalid_argument("only the auto evaluator is traced");
    const explore::SweepRunner runner{{options_.threads}};
    Scope run(t, "explore.sweep_runner", rid, request);
    const bool network = grid.has_network();
    result = runner.run(grid, [&](const explore::Scenario& scenario) {
      Scope cell(t, "noc.evaluate_cell", run.id(), request);
      explore::CellResult evaluated =
          network ? explore::evaluate_network_cell(scenario)
                  : explore::evaluate_noc_cell(scenario);
      cell.count("noc.messages_delivered",
                 evaluated.metric("delivered").value_or(0.0));
      cell.count("noc.messages_dropped",
                 evaluated.metric("dropped").value_or(0.0));
      return evaluated;
    });
  }
  if (!result.stats) {
    deliver(rid, "header", render(rid, [&] {
              return header_body(experiment, hash, result.cells.size(),
                                 options_.block_size,
                                 metric_union(result.cells));
            }));
    const std::size_t block = std::max<std::size_t>(1, options_.block_size);
    for (std::size_t begin = 0; begin < result.cells.size(); begin += block)
      deliver(rid, "cells", render(rid, [&] {
                return cells_body(
                    begin, std::min(result.cells.size(), begin + block),
                    result.cells);
              }));
  }

  explore::SweepStats run_stats;
  if (result.stats) run_stats = *result.stats;
  run_stats.cells = result.cells.size();
  deliver(rid, "done",
          render(rid, [&] { return done_body(result.cells, run_stats); }));
  root.count("explore.cells", static_cast<double>(run_stats.cells));
  root.count("explore.channels_lowered",
             static_cast<double>(run_stats.channels_lowered));
  root.count("explore.root_solves",
             static_cast<double>(run_stats.root_solves));
  root.count("explore.solver_iterations",
             static_cast<double>(run_stats.solver_iterations));
  root.count("explore.warm_reuses",
             static_cast<double>(run_stats.warm_reuses));

  entry.cells = result.cells.size();
  entry.stats = run_stats;
  {
    Scope span(t, "serve.cache_insert", rid, request);
    cache_.insert(hash, canonical, std::move(entry));
  }
  root.count("serve.response_bytes", static_cast<double>(bytes));
}

}  // namespace perfbench
