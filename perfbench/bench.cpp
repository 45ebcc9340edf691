#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <limits>
#include <numeric>
#include <thread>

#include "metrics.hpp"
#include "speed.hpp"

namespace perfbench {

double now_us() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch)
      .count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

int hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

std::uint32_t Tracer::add(const std::string& name, std::uint32_t parent,
                          double start_us, double end_us, bool derived) {
  if (!enabled_) {
    return 0;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.name = name;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.start_us = start_us;
  span.end_us = end_us;
  span.derived = derived;
  span.thread = static_cast<int>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % 1000);
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::uint32_t Tracer::open(const std::string& name, std::uint32_t parent,
                           double start_us) {
  return add(name, parent, start_us, start_us);
}

void Tracer::close(std::uint32_t id, double end_us) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(id - 1).end_us = end_us;
}

double Tracer::total_ms(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) {
      total += s.duration_us();
    }
  }
  return total * 1e-3;
}

double Tracer::mean_residue_ms(const std::string& root) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::uint32_t, double> children_us;
  for (const Span& s : spans_) {
    if (s.parent != 0) {
      children_us[s.parent] += s.duration_us();
    }
  }
  double total = 0.0;
  long roots = 0;
  for (const Span& s : spans_) {
    if (s.parent == 0 && s.name == root) {
      total += s.duration_us() - children_us[s.id];
      ++roots;
    }
  }
  return roots == 0 ? 0.0 : total * 1e-3 / static_cast<double>(roots);
}

double Tracer::mean_ms(const std::string& root) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  double total = 0.0;
  long roots = 0;
  for (const Span& s : spans_) {
    if (s.parent == 0 && s.name == root) {
      total += s.duration_us();
      ++roots;
    }
  }
  return roots == 0 ? 0.0 : total * 1e-3 / static_cast<double>(roots);
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                  "\"parent\":%u,\"derived\":%s}}%s\n",
                  s.name.c_str(), s.thread, s.start_us, s.duration_us(),
                  s.id, s.parent, s.derived ? "true" : "false",
                  i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void add_solver_spans(Tracer& tracer, std::uint32_t solve_span,
                      double solve_start_us,
                      const hslb::minlp::SolveStats& s) {
  if (!tracer.enabled()) {
    return;
  }
  double t = solve_start_us;
  const std::pair<const char*, double> parts[] = {
      {"lp.factor", s.lp_factor_seconds},
      {"lp.update", s.lp_update_seconds},
      {"lp.pivot", s.lp_pivot_seconds},
  };
  const std::uint32_t lp =
      tracer.add("lp", solve_span, t, t + s.lp_seconds * 1e6, true);
  for (const auto& [name, seconds] : parts) {
    tracer.add(name, lp, t, t + seconds * 1e6, true);
    t += seconds * 1e6;
  }
}

bool layout_fits(hslb::cesm::LayoutKind layout, int total_nodes,
                 const hslb::core::Allocation& allocation) {
  using hslb::cesm::ComponentKind;
  for (const ComponentKind kind : hslb::cesm::kModeledComponents) {
    const auto it = allocation.nodes.find(kind);
    if (it == allocation.nodes.end() || it->second < 1) {
      return false;
    }
  }
  const int ice = allocation.nodes.at(ComponentKind::kIce);
  const int lnd = allocation.nodes.at(ComponentKind::kLnd);
  const int atm = allocation.nodes.at(ComponentKind::kAtm);
  const int ocn = allocation.nodes.at(ComponentKind::kOcn);
  switch (layout) {
    case hslb::cesm::LayoutKind::kHybrid:
      return atm + ocn <= total_nodes && ice + lnd <= atm;
    case hslb::cesm::LayoutKind::kSequentialGroup:
      return std::max({ice, lnd, atm}) + ocn <= total_nodes;
    case hslb::cesm::LayoutKind::kFullySequential:
      return std::max({ice, lnd, atm, ocn}) <= total_nodes;
  }
  return false;
}

namespace {

/// Continued fraction of the incomplete beta function (modified Lentz).
double beta_continued_fraction(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  constexpr double kEps = 1e-15;
  double c = 1.0;
  double d = 1.0 - (a + b) * x / (a + 1.0);
  d = 1.0 / (std::fabs(d) < kTiny ? kTiny : d);
  double h = d;
  for (int m = 1; m <= 500; ++m) {
    const double m2 = 2.0 * m;
    for (const double num :
         {m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
          -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0))}) {
      d = 1.0 + num * d;
      d = 1.0 / (std::fabs(d) < kTiny ? kTiny : d);
      c = 1.0 + num / c;
      c = std::fabs(c) < kTiny ? kTiny : c;
      h *= d * c;
    }
    if (std::fabs(d * c - 1.0) < kEps) {
      break;
    }
  }
  return h;
}

/// Regularized incomplete beta function I_x(a, b).
double incomplete_beta(double a, double b, double x) {
  if (x <= 0.0) {
    return 0.0;
  }
  if (x >= 1.0) {
    return 1.0;
  }
  const double front =
      std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
               a * std::log(x) + b * std::log1p(-x));
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * beta_continued_fraction(a, b, x) / a;
  }
  return 1.0 - front * beta_continued_fraction(b, a, 1.0 - x) / b;
}

}  // namespace

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::sort(samples.begin(), samples.end());
  // Harrell-Davis: a Beta((n+1)q, (n+1)(1-q))-weighted mean of all order
  // statistics.  Unlike the nearest rank it moves smoothly when samples
  // near the percentile shift, which matters where the latency mix has gaps.
  const double n = static_cast<double>(samples.size());
  const double a = (n + 1.0) * q;
  const double b = (n + 1.0) * (1.0 - q);
  double value = 0.0;
  double below = 0.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const double upto =
        incomplete_beta(a, b, static_cast<double>(i + 1) / n);
    value += (upto - below) * samples[i];
    below = upto;
  }
  return value;
}

double median(std::vector<double> samples) { return percentile(samples, 0.5); }

double mean(const std::vector<double>& samples) {
  if (samples.empty()) {
    return 0.0;
  }
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double ordered_mean(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return mean(values);
}

long samples_beyond(std::size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  return static_cast<long>(n) - static_cast<long>(rank);
}

std::string exact(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void SolverTotals::add(const hslb::minlp::MinlpResult& result,
                       double solve_ms_value) {
  const hslb::minlp::SolveStats& s = result.stats;
  ++solves;
  if (result.status == hslb::minlp::MinlpStatus::kNodeLimit) {
    ++node_limited;
  }
  nodes += s.nodes_explored;
  lp_solves += s.lp_solves;
  nlp_solves += s.nlp_solves;
  cuts += s.cuts_added;
  pruned += s.pruned_by_bound + s.pruned_infeasible;
  pivots += s.simplex_iterations;
  factorizations += s.lp_factorizations;
  eta_updates += s.lp_eta_updates;
  factor_inherits += s.lp_factor_inherits;
  warm_lp_solves += s.warm_lp_solves;
  solve_ms += solve_ms_value;
  lp_ms += s.lp_seconds * 1e3;
  pivot_ms += s.lp_pivot_seconds * 1e3;
  factor_ms += s.lp_factor_seconds * 1e3;
  update_ms += s.lp_update_seconds * 1e3;
}

void set_end_to_end(Report& report, const SpeedScale& scale) {
  const double factor = scale.factor();
  std::vector<double> op_ms, raw_op_ms, setup_s, raw_setup_s;
  double cpu_seconds = 0.0, raw_cpu_seconds = 0.0;
  for (const Segment& s : report.segments) {
    for (const Interval& op : s.ops) {
      op_ms.push_back(op.ms() * factor);
      raw_op_ms.push_back(op.ms());
    }
    cpu_seconds += s.cpu_seconds * factor;
    raw_cpu_seconds += s.cpu_seconds;
  }
  for (const Interval& setup : report.setups) {
    setup_s.push_back(setup.ms() * 1e-3 * factor);
    raw_setup_s.push_back(setup.ms() * 1e-3);
  }
  const double ops = static_cast<double>(op_ms.size());
  auto& m = report.metrics;
  m["setup_s"] = median(setup_s);
  m["op_ms.p50"] = percentile(op_ms, 0.5);
  m["op_ms.p90"] = percentile(op_ms, 0.9);
  m["cpu_ms_per_op"] = ops > 0.0 ? cpu_seconds * 1e3 / ops : 0.0;
  report.name("ops", ops, "count",
              std::to_string(samples_beyond(op_ms.size(), 0.9)) +
                  " samples beyond op_ms.p90, which needs 10");
  report.name("setups", static_cast<double>(setup_s.size()), "count",
              "setup_s is their median");
  report.name("speed_samples", static_cast<double>(scale.size()), "count",
              "kernel timings by the speed probe");
  report.name("speed_kernel_us", scale.median_kernel_us(), "us",
              "median kernel time of the run");
  report.name("speed_factor", factor, "x", "applied to every end-to-end time");
  report.name("raw.setup_s", median(raw_setup_s), "s", "unscaled");
  report.name("raw.op_ms.p50", percentile(raw_op_ms, 0.5), "ms", "unscaled");
  report.name("raw.op_ms.p90", percentile(raw_op_ms, 0.9), "ms", "unscaled");
  report.name("raw.cpu_ms_per_op",
              ops > 0.0 ? raw_cpu_seconds * 1e3 / ops : 0.0, "ms",
              "unscaled");
}

void zero_layer_metrics(Report& report) {
  for (const MetricSpec& spec : layer_specs()) {
    report.metrics[spec.name] = 0.0;
  }
}

void set_solver_layer_metrics(Report& report, const SolverTotals& t,
                              double ops) {
  if (ops <= 0.0 || t.solves == 0) {
    return;
  }
  auto per_op = [ops](double v) { return v / ops; };
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  auto& m = report.metrics;
  m["minlp.solve_ms"] = per_op(t.solve_ms);
  m["minlp.nodes"] = per_op(static_cast<double>(t.nodes));
  m["minlp.lp_solves"] = per_op(static_cast<double>(t.lp_solves));
  m["minlp.nlp_solves"] = per_op(static_cast<double>(t.nlp_solves));
  m["minlp.cuts"] = per_op(static_cast<double>(t.cuts));
  m["minlp.node_limit_ratio"] = ratio(static_cast<double>(t.node_limited),
                                      static_cast<double>(t.solves));
  m["minlp.prune_ratio"] =
      ratio(static_cast<double>(t.pruned), static_cast<double>(t.nodes));
  m["lp.ms"] = per_op(t.lp_ms);
  m["lp.pivot_ms"] = per_op(t.pivot_ms);
  m["lp.factor_ms"] = per_op(t.factor_ms);
  m["lp.update_ms"] = per_op(t.update_ms);
  m["lp.pivots"] = per_op(static_cast<double>(t.pivots));
  m["lp.factorizations"] = per_op(static_cast<double>(t.factorizations));
  m["lp.eta_updates"] = per_op(static_cast<double>(t.eta_updates));
  m["lp.factor_inherits"] = per_op(static_cast<double>(t.factor_inherits));
  m["lp.warm_ratio"] = ratio(static_cast<double>(t.warm_lp_solves),
                             static_cast<double>(t.lp_solves));
}

void name_percentiles(Report& report, const std::string& prefix,
                      const std::vector<double>& samples_ms,
                      const std::vector<double>& qs,
                      const std::string& suffix) {
  for (const double q : qs) {
    const std::string name =
        prefix + ".p" + std::to_string(static_cast<int>(q * 100.0 + 0.5)) +
        suffix;
    const long beyond = samples_beyond(samples_ms.size(), q);
    const std::string note = "n=" + std::to_string(samples_ms.size());
    if (beyond < 10) {
      report.name(name, std::numeric_limits<double>::quiet_NaN(), "ms",
                  note + ", unavailable: " + std::to_string(beyond) +
                      " samples beyond it, needs 10");
    } else {
      report.name(name, percentile(samples_ms, q), "ms", note);
    }
  }
}

void finish_traced_serial(Report& report, const Tracer& tracer,
                          const SerialTimes& times, const char* root) {
  const double plain = mean(times.plain_ms);
  // The op spans, not the pass timings: traced passes also time probes
  // (presolve) that sit outside the op.
  const double traced = tracer.mean_ms(root);
  report.metrics["obs.trace_overhead_pct"] =
      plain > 0.0 ? (traced / plain - 1.0) * 100.0 : 0.0;
  report.metrics["residue_ms"] = tracer.mean_residue_ms(root);
  report.op_ms_traced = tracer.mean_ms(root);
}

}  // namespace perfbench
