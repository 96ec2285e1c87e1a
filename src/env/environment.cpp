#include "photecc/env/environment.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "photecc/math/table.hpp"

namespace photecc::env {

namespace {

double clamp_activity(double a) { return std::clamp(a, 0.0, 1.0); }

void check_activity(double a, const char* what) {
  if (!std::isfinite(a) || a < 0.0 || a > 1.0)
    throw std::invalid_argument(std::string("EnvironmentTimeline: ") + what +
                                " outside [0, 1]");
}

void check_time(double t, const char* what) {
  if (!std::isfinite(t) || t < 0.0)
    throw std::invalid_argument(std::string("EnvironmentTimeline: ") + what +
                                " must be finite and >= 0");
}

}  // namespace

EnvironmentTimeline EnvironmentTimeline::constant(double activity) {
  check_activity(activity, "constant activity");
  EnvironmentTimeline t;
  t.kind_ = Kind::kConstant;
  t.from_ = t.to_ = activity;
  return t;
}

EnvironmentTimeline EnvironmentTimeline::step(double at_s, double from,
                                              double to) {
  check_time(at_s, "step time");
  check_activity(from, "step 'from' activity");
  check_activity(to, "step 'to' activity");
  EnvironmentTimeline t;
  t.kind_ = Kind::kStep;
  t.start_s_ = at_s;
  t.from_ = from;
  t.to_ = to;
  return t;
}

EnvironmentTimeline EnvironmentTimeline::ramp(double start_s, double end_s,
                                              double from, double to) {
  check_time(start_s, "ramp start");
  check_time(end_s, "ramp end");
  if (end_s <= start_s)
    throw std::invalid_argument("EnvironmentTimeline: ramp end <= start");
  check_activity(from, "ramp 'from' activity");
  check_activity(to, "ramp 'to' activity");
  EnvironmentTimeline t;
  t.kind_ = Kind::kRamp;
  t.start_s_ = start_s;
  t.end_s_ = end_s;
  t.from_ = from;
  t.to_ = to;
  return t;
}

EnvironmentTimeline EnvironmentTimeline::phases(
    std::vector<EnvironmentPhase> schedule, bool cyclic) {
  if (schedule.empty())
    throw std::invalid_argument("EnvironmentTimeline: empty phase schedule");
  for (const EnvironmentPhase& phase : schedule) {
    if (!std::isfinite(phase.duration_s) || phase.duration_s <= 0.0)
      throw std::invalid_argument(
          "EnvironmentTimeline: phase duration must be > 0");
    check_activity(phase.activity, "phase activity");
  }
  EnvironmentTimeline t;
  t.kind_ = Kind::kPhases;
  t.cyclic_ = cyclic;
  t.phases_ = std::move(schedule);
  t.from_ = t.to_ = t.phases_.front().activity;
  return t;
}

EnvironmentTimeline EnvironmentTimeline::self_heating(double baseline,
                                                      double busy_gain,
                                                      double tau_s) {
  check_activity(baseline, "self-heating baseline");
  if (!std::isfinite(busy_gain) || busy_gain < 0.0 || busy_gain > 1.0)
    throw std::invalid_argument(
        "EnvironmentTimeline: self-heating busy gain outside [0, 1]");
  if (!std::isfinite(tau_s) || tau_s <= 0.0)
    throw std::invalid_argument(
        "EnvironmentTimeline: self-heating tau must be > 0");
  EnvironmentTimeline t;
  t.kind_ = Kind::kSelfHeating;
  t.from_ = baseline;
  t.to_ = busy_gain;
  t.tau_s_ = tau_s;
  return t;
}

EnvironmentSample EnvironmentTimeline::sample_at(double t) const {
  const double time = std::max(t, 0.0);
  double activity = from_;
  switch (kind_) {
    case Kind::kConstant:
    case Kind::kSelfHeating:
      activity = from_;
      break;
    case Kind::kStep:
      activity = time < start_s_ ? from_ : to_;
      break;
    case Kind::kRamp:
      if (time <= start_s_) {
        activity = from_;
      } else if (time >= end_s_) {
        activity = to_;
      } else {
        const double x = (time - start_s_) / (end_s_ - start_s_);
        activity = from_ + x * (to_ - from_);
      }
      break;
    case Kind::kPhases: {
      double total = 0.0;
      for (const EnvironmentPhase& phase : phases_) total += phase.duration_s;
      double local = time;
      if (cyclic_) {
        local = std::fmod(time, total);
      } else if (local >= total) {
        activity = phases_.back().activity;
        break;
      }
      for (const EnvironmentPhase& phase : phases_) {
        if (local < phase.duration_s) {
          activity = phase.activity;
          break;
        }
        local -= phase.duration_s;
        activity = phases_.back().activity;  // numeric-tail fallback
      }
      break;
    }
  }
  return {time, clamp_activity(activity)};
}

double EnvironmentTimeline::steady_state_activity() const {
  switch (kind_) {
    case Kind::kConstant:
    case Kind::kSelfHeating:
      return from_;
    case Kind::kStep:
    case Kind::kRamp:
      return to_;
    case Kind::kPhases: {
      if (!cyclic_) return phases_.back().activity;
      double total = 0.0;
      double weighted = 0.0;
      for (const EnvironmentPhase& phase : phases_) {
        total += phase.duration_s;
        weighted += phase.duration_s * phase.activity;
      }
      return weighted / total;
    }
  }
  return from_;
}

std::vector<EnvironmentTimeline::PhaseWindow>
EnvironmentTimeline::phase_windows(double horizon_s) const {
  if (!std::isfinite(horizon_s) || horizon_s <= 0.0)
    throw std::invalid_argument(
        "EnvironmentTimeline::phase_windows: non-positive horizon");
  std::vector<PhaseWindow> windows;
  const auto push = [&](std::string label, double start, double end) {
    if (end > start && start < horizon_s)
      windows.push_back({std::move(label), start, std::min(end, horizon_s)});
  };
  switch (kind_) {
    case Kind::kConstant:
      push("constant", 0.0, horizon_s);
      break;
    case Kind::kSelfHeating:
      push("self-heating", 0.0, horizon_s);
      break;
    case Kind::kStep:
      push("before", 0.0, start_s_);
      push("after", start_s_, horizon_s);
      break;
    case Kind::kRamp:
      push("pre", 0.0, start_s_);
      push("ramp", start_s_, end_s_);
      push("post", end_s_, horizon_s);
      break;
    case Kind::kPhases: {
      // Bound materialisation: a cyclic schedule of very short phases
      // over a long horizon would otherwise produce horizon/duration
      // windows.  Past the cap the remainder is one merged window.
      constexpr std::size_t kMaxWindows = 1024;
      double t = 0.0;
      std::size_t i = 0;
      std::size_t repeat = 0;
      while (t < horizon_s) {
        if (windows.size() + 1 >= kMaxWindows) {
          push("rest", t, horizon_s);
          break;
        }
        const EnvironmentPhase& phase = phases_[i];
        std::string label = phase.label.empty()
                                ? "phase" + std::to_string(i)
                                : phase.label;
        if (repeat > 0) label.append("#").append(std::to_string(repeat));
        push(std::move(label), t, t + phase.duration_s);
        t += phase.duration_s;
        ++i;
        if (i == phases_.size()) {
          if (!cyclic_) {
            push("tail", t, horizon_s);
            break;
          }
          i = 0;
          ++repeat;
        }
      }
      break;
    }
  }
  if (windows.empty()) windows.push_back({"all", 0.0, horizon_s});
  windows.back().end_s = horizon_s;
  return windows;
}

std::string EnvironmentTimeline::label() const {
  const auto activity = [](double a) { return math::format_fixed(a, 2); };
  switch (kind_) {
    case Kind::kConstant:
      return "constant@" + activity(from_);
    case Kind::kStep:
      return "step@" + math::format_sci(start_s_, 1) + ":" + activity(from_) +
             "->" + activity(to_);
    case Kind::kRamp:
      return "ramp@" + math::format_sci(start_s_, 1) + ".." +
             math::format_sci(end_s_, 1) + ":" + activity(from_) + "->" +
             activity(to_);
    case Kind::kPhases: {
      double total = 0.0;
      double weighted = 0.0;
      for (const EnvironmentPhase& phase : phases_) {
        total += phase.duration_s;
        weighted += phase.duration_s * phase.activity;
      }
      return "phases x" + std::to_string(phases_.size()) + "/" +
             math::format_sci(total, 1) + ":" +
             activity(phases_.front().activity) + "..mean" +
             activity(weighted / total) + (cyclic_ ? " (cyclic)" : "");
    }
    case Kind::kSelfHeating:
      return "self-heating:" + activity(from_) + "+" + activity(to_) +
             "b/tau=" + math::format_sci(tau_s_, 1);
  }
  return "environment";
}

ThermalIntegrator::ThermalIntegrator(EnvironmentTimeline timeline)
    : timeline_(std::move(timeline)),
      current_(timeline_.sample_at(0.0)) {}

EnvironmentSample ThermalIntegrator::advance_to(double t,
                                                double busy_fraction,
                                                double duty_bound) {
  // The branch keeps duty_bound == 1.0 bit-identical to the two-arg
  // overload (no multiply on the legacy path).
  return advance_to(t, duty_bound < 1.0
                           ? busy_fraction * std::clamp(duty_bound, 0.0, 1.0)
                           : busy_fraction);
}

EnvironmentSample ThermalIntegrator::advance_to(double t,
                                                double busy_fraction) {
  if (!(t > current_.time_s)) return current_;
  if (timeline_.kind() != EnvironmentTimeline::Kind::kSelfHeating) {
    current_ = timeline_.sample_at(t);
    return current_;
  }
  const double busy = std::clamp(busy_fraction, 0.0, 1.0);
  const double target = std::clamp(
      timeline_.baseline_activity() + timeline_.busy_gain() * busy, 0.0,
      1.0);
  const double dt = t - current_.time_s;
  const double decayed =
      target + (current_.activity - target) * std::exp(-dt / timeline_.tau_s());
  current_ = {t, std::clamp(decayed, 0.0, 1.0)};
  return current_;
}

}  // namespace photecc::env
