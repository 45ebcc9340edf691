// The repo benchmark program: one workload per run, untraced (end-to-end
// metrics) or traced (per-layer metrics), printing a provenance header, the
// path-specific figures by name, the failure list and the checks, and as its
// last line the JSON result.  Build and run it through perfbench/run.py:
//
//   python3 perfbench/run.py --workload pipeline-1deg --seed 2014
//       --seconds 12 --trace 0
//
// Extra flags: --golden <file> compares the deterministic work counts of the
// first pass with the committed golden (the same at every seed);
// --update-golden rewrites that golden's entries for the workload;
// --trace-out <file> writes the traced run's spans as a Chrome trace.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "metrics.hpp"
#include "speed.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace perfbench {
namespace {

struct Options {
  RunArgs run;
  std::string golden;
  bool update_golden = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "hslb_perfbench: " << why
            << "\nusage: hslb_perfbench --workload <pipeline-1deg|solve-mix|"
               "svc-mixed|rebal-drift> --seed <n> --seconds <s> --trace <0|1>"
               " [--golden <file>] [--update-golden] [--trace-out <file>]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage("missing value for " + arg);
      }
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        o.run.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        o.run.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        o.run.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") {
          usage("--trace takes 0 or 1");
        }
        o.run.trace = v == "1";
      } else if (arg == "--trace-out") {
        o.run.trace_out = value();
      } else if (arg == "--golden") {
        o.golden = value();
      } else if (arg == "--update-golden") {
        o.update_golden = true;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!have_workload) {
    usage("--workload is required");
  }
  if (!(o.run.seconds > 0.0 && o.run.seconds <= 600.0)) {
    usage("--seconds must be in (0, 600]");
  }
  return o;
}

/// Why this build's timings are not comparable ("" when they are).
std::string not_comparable_reason() {
  std::string why;
#if !defined(NDEBUG)
  why += "assertions enabled (Debug-style build); ";
#endif
#if !defined(__OPTIMIZE__)
  why += "no optimization; ";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  why += "sanitizer build; ";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  why += "sanitizer build; ";
#endif
#endif
  return why;
}

void print_provenance(const RunArgs& args) {
  const std::string why = not_comparable_reason();
  int omp_threads = 1;
#ifdef _OPENMP
  omp_threads = omp_get_max_threads();
#endif
  std::cout << "# hslb perfbench\n"
            << "workload=" << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace << '\n'
            << "build_type=" << PERFBENCH_BUILD_TYPE << " flags=\""
            << PERFBENCH_CXX_FLAGS << "\" compiler=\"" << __VERSION__ << "\"\n"
            << "nproc=" << hardware_threads()
            << " omp_threads=" << omp_threads << '\n'
            << "comparable=" << (why.empty() ? "yes" : "NO (" + why + ")")
            << '\n';
  const auto& specs = args.trace ? layer_specs() : end_to_end_specs();
  std::cout << "# metrics (" << (args.trace ? "per-layer" : "end-to-end")
            << "): name unit better\n";
  for (const MetricSpec& s : specs) {
    std::cout << "#   " << s.name << ' ' << s.unit << ' ' << s.better << "  -- "
              << s.meaning << '\n';
  }
}

using Golden = std::map<std::string, std::map<std::string, std::string>>;

Golden read_golden(const std::string& path) {
  Golden golden;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string workload, key, value;
    if (fields >> workload >> key >> value) {
      golden[workload][key] = value;
    }
  }
  return golden;
}

bool write_golden(const std::string& path, const Golden& golden) {
  std::ofstream out(path);
  out << "# Deterministic work counts of each workload's first pass; the\n"
         "# inputs are fixed, so they hold at every seed.  A drift fails the\n"
         "# run.  Regenerate with\n"
         "#   python3 perfbench/run.py --workload <w> --seed 2014 --seconds 1"
         " --trace 0 --update-golden\n";
  for (const auto& [workload, entries] : golden) {
    for (const auto& [key, value] : entries) {
      out << workload << ' ' << key << ' ' << value << '\n';
    }
  }
  return static_cast<bool>(out);
}

void check_golden(const Options& o, Report& report) {
  if (o.golden.empty()) {
    return;
  }
  Golden golden = read_golden(o.golden);
  if (o.update_golden) {
    golden[o.run.workload] = report.work;
    report.check(write_golden(o.golden, golden),
                 "cannot write golden " + o.golden);
    std::cout << "golden: updated " << o.run.workload << " in " << o.golden
              << '\n';
    return;
  }
  const auto it = golden.find(o.run.workload);
  if (it == golden.end()) {
    report.check(false, "golden: no entries for " + o.run.workload + " in " +
                            o.golden);
    return;
  }
  for (const auto& [key, value] : report.work) {
    const auto expected = it->second.find(key);
    const std::string want =
        expected == it->second.end() ? "(missing)" : expected->second;
    report.check(want == value,
                 "golden drift: " + key + " = " + value + ", golden " + want);
  }
  std::cout << "golden: " << report.work.size() << " work counts checked\n";
}

void print_report(const RunArgs& args, const Report& report) {
  std::cout << "# results\n";
  for (const NamedValue& v : report.named) {
    char line[256];
    std::snprintf(line, sizeof(line), "  %-24s %14.4f %-6s", v.name.c_str(),
                  v.value, v.unit.c_str());
    std::cout << line << (v.note.empty() ? "" : "  (" + v.note + ")") << '\n';
  }
  std::cout << "  attempted=" << report.attempted
            << " failed=" << report.failed << " fail_ratio="
            << (report.attempted > 0 ? static_cast<double>(report.failed) /
                                           static_cast<double>(report.attempted)
                                     : 0.0)
            << '\n';
  std::cout << "  work:";
  for (const auto& [key, value] : report.work) {
    std::cout << ' ' << key << '=' << value;
  }
  std::cout << '\n';
  if (!report.failures.empty()) {
    std::cout << "# failed operations (input: reason, times)\n";
    for (const auto& [what, count] : report.failures) {
      std::cout << "  " << what << "  x" << count << '\n';
    }
  }
  if (args.trace) {
    std::cout << "# reconciliation (ms per operation, traced)\n";
    double sum = 0.0;
    for (const auto& [layer, ms] : report.layers) {
      char line[160];
      std::snprintf(line, sizeof(line), "  %-20s %10.3f  %5.1f%%",
                    layer.c_str(), ms,
                    report.op_ms_traced > 0 ? 100.0 * ms / report.op_ms_traced
                                            : 0.0);
      std::cout << line << '\n';
      sum += ms;
    }
    const double residue = report.metrics.at("residue_ms");
    char line[160];
    std::snprintf(line, sizeof(line),
                  "  %-20s %10.3f  %5.1f%%\n  %-20s %10.3f  (layers %.3f)",
                  "residue_ms", residue,
                  report.op_ms_traced > 0
                      ? 100.0 * residue / report.op_ms_traced
                      : 0.0,
                  "operation", report.op_ms_traced, sum);
    std::cout << line << '\n';
  }
  std::cout << "# checks: " << (report.checks_failed == 0 ? "all passed" : "FAILED")
            << '\n';
  for (const std::string& c : report.check_failures) {
    std::cout << "  FAIL " << c << '\n';
  }
  if (report.checks_failed > static_cast<long>(report.check_failures.size())) {
    std::cout << "  ... " << report.checks_failed << " failed checks in all\n";
  }
}

/// Every contract metric of the run's kind must have been measured; a
/// missing or non-finite one fails the run's checks and reads 0.
void require_metrics(const RunArgs& args, Report& report) {
  for (const MetricSpec& s :
       args.trace ? layer_specs() : end_to_end_specs()) {
    const auto it = report.metrics.find(s.name);
    if (it == report.metrics.end() || !std::isfinite(it->second)) {
      report.check(false, std::string("metric ") + s.name + " not measured");
      report.metrics[s.name] = 0.0;
    }
  }
}

std::string json_result(const RunArgs& args, const Report& report) {
  std::string metrics;
  for (const MetricSpec& s :
       args.trace ? layer_specs() : end_to_end_specs()) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", s.name,
                  report.metrics.at(s.name), s.unit);
    metrics += buf;
  }
  return std::string("{\"correct\": ") +
         (report.checks_failed == 0 ? "true" : "false") +
         ", \"attempted\": " + std::to_string(report.attempted) +
         ", \"failed\": " + std::to_string(report.failed) +
         ", \"metrics\": {" + metrics + "}}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options = parse(argc, argv);
  RunArgs& args = options.run;
  void (*workload)(const RunArgs&, Tracer&, Report&) = nullptr;
  if (args.workload == "pipeline-1deg") {
    workload = run_pipeline_1deg;
  } else if (args.workload == "solve-mix") {
    workload = run_solve_mix;
  } else if (args.workload == "svc-mixed") {
    workload = run_svc_mixed;
  } else if (args.workload == "rebal-drift") {
    workload = run_rebal_drift;
  } else {
    usage("unknown workload " + args.workload);
  }
  // Untraced runs time the machine's speed beside the operations; the
  // probe starts before any library call (see speed.hpp).
  std::optional<SpeedProbe> probe;
  if (!args.trace) {
    probe.emplace();
    args.probe = &*probe;
  }
  print_provenance(args);
  std::cout.flush();

  Tracer tracer(args.trace);
  Report report;
  try {
    workload(args, tracer, report);
  } catch (const std::exception& e) {
    std::cerr << "hslb_perfbench: workload aborted: " << e.what() << '\n';
    return 1;
  }
  if (probe) {
    const SpeedScale scale(probe->stop());
    report.check(scale.size() > 0, "speed probe returned no samples");
    set_end_to_end(report, scale);
  }
  check_golden(options, report);
  if (args.trace && !args.trace_out.empty()) {
    report.check(tracer.write_chrome_trace(args.trace_out),
                 "cannot write trace " + args.trace_out);
    std::cout << "trace: " << args.trace_out << '\n';
  }
  if (args.trace) {
    report.metrics["fail_ratio"] =
        report.attempted > 0 ? static_cast<double>(report.failed) /
                                   static_cast<double>(report.attempted)
                             : 0.0;
  }
  require_metrics(args, report);
  print_report(args, report);
  std::cout << json_result(args, report) << std::endl;
  return 0;
}
