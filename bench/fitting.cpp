// Table II fitting study (section III-C):
//   * quality vs the number of benchmark points D (the paper recommends
//     "at least greater than four"),
//   * strategy ablation: VarPro grid alone vs +LM polish vs multistart vs
//     relative weighting,
//   * fit timing via google-benchmark, on designed atmosphere series and on
//     the four component series of a 1-degree campaign.
#include <benchmark/benchmark.h>

#include <cmath>
#include <iostream>

#include "hslb/common/table.hpp"

#include "bench_util.hpp"
#include "hslb/perf/fit.hpp"
#include "hslb/perf/sample_design.hpp"

namespace {

using namespace hslb;

/// Noisy samples from the 1-degree atmosphere truth law.
void make_samples(int d, std::vector<double>* nodes,
                  std::vector<double>* times, std::uint64_t seed = 7) {
  const cesm::CaseConfig config = cesm::one_degree_case();
  const cesm::Component& atm =
      config.component(cesm::ComponentKind::kAtm);
  common::Rng rng(seed);
  nodes->clear();
  times->clear();
  for (const int n : perf::design_benchmark_nodes(16, 2048, d)) {
    nodes->push_back(n);
    times->push_back(atm.measured_time(n, rng));
  }
}

/// The four component series of a 1-degree hybrid campaign at N nodes: five
/// totals from N/16 to N, the shape the pipeline fits.
std::vector<cesm::Series> campaign_series(int total_nodes) {
  const cesm::CampaignResult campaign = cesm::gather_benchmarks(
      cesm::one_degree_case(), cesm::LayoutKind::kHybrid,
      core::default_gather_totals(total_nodes), 2534);
  std::vector<cesm::Series> out;
  for (const cesm::ComponentKind kind : cesm::kModeledComponents) {
    out.push_back(cesm::series_for(campaign.samples, kind));
  }
  return out;
}

/// Args {D, N}: with N == 0, one fit of D noisy atmosphere points designed
/// over 16..2048; with N > 0, the four fits of a 1-degree campaign at N
/// nodes (D unused).
void BM_Fit(benchmark::State& state) {
  std::vector<cesm::Series> series;
  if (state.range(1) == 0) {
    series.emplace_back();
    make_samples(static_cast<int>(state.range(0)), &series.back().nodes,
                 &series.back().seconds);
  } else {
    series = campaign_series(static_cast<int>(state.range(1)));
  }
  for (auto _ : state) {
    for (const cesm::Series& s : series) {
      const auto result = perf::fit(s.nodes, s.seconds);
      benchmark::DoNotOptimize(result.r_squared);
    }
  }
}
BENCHMARK(BM_Fit)
    ->ArgNames({"D", "N"})
    ->Args({4, 0})
    ->Args({6, 0})
    ->Args({8, 0})
    ->Args({5, 1040})
    ->Unit(benchmark::kMicrosecond);

void BM_FitMultistart(benchmark::State& state) {
  std::vector<double> nodes;
  std::vector<double> times;
  make_samples(6, &nodes, &times);
  perf::FitOptions options;
  options.multistart = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const auto result = perf::fit(nodes, times, options);
    benchmark::DoNotOptimize(result.r_squared);
  }
}
BENCHMARK(BM_FitMultistart)->Arg(0)->Arg(8)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  using namespace hslb;
  bench::ArtifactOptions artifact_options =
      bench::parse_artifact_args(argc, argv);
  const std::string title = "Section III-C / Table II -- fitting study";
  const std::string reference =
      "Alexeev et al., IPDPSW'14, sections III-B/III-C";
  bench::banner(title, reference);
  report::ResultSet results =
      bench::make_result_set("fitting", title, reference);

  const cesm::CaseConfig config = cesm::one_degree_case();
  const cesm::Component& atm = config.component(cesm::ComponentKind::kAtm);

  // --- Quality vs number of benchmark points. ---------------------------------
  std::cout << "\nFit quality vs number of benchmark points D (truth: the "
               "1-degree atmosphere law):\n";
  common::Table dsweep({"D", "R^2", "RMSE,s", "err@96,%", "err@1536,%"});
  for (const int d : {3, 4, 5, 6, 8, 12}) {
    std::vector<double> nodes;
    std::vector<double> times;
    make_samples(d, &nodes, &times);
    const auto result = perf::fit(nodes, times);
    const auto rel_err = [&](int n) {
      return 100.0 * std::fabs(result.model(n) - atm.true_time(n)) /
             atm.true_time(n);
    };
    dsweep.add_row();
    dsweep.cell(static_cast<long long>(d));
    dsweep.cell(result.r_squared, 5);
    dsweep.cell(result.rmse, 3);
    dsweep.cell(rel_err(96), 2);
    dsweep.cell(rel_err(1536), 2);
    results.add("dsweep", d, "r_squared", result.r_squared, "",
                report::Stability::kDeterministic, "points");
    results.add("dsweep", d, "rmse_s", result.rmse, "s");
    results.add("dsweep", d, "err96_pct", rel_err(96), "%");
    results.add("dsweep", d, "err1536_pct", rel_err(1536), "%");
  }
  std::cout << dsweep;
  std::cout << "Shape check (paper III-C): about four points already give a "
               "well-fitted curve; more points mostly average the noise.\n";

  // --- Strategy ablation. -----------------------------------------------------
  std::cout << "\nFitting strategy ablation (D = 6):\n";
  common::Table strategies({"strategy", "R^2", "SSE", "err@96,%",
                            "err@1536,%"});
  std::vector<double> nodes;
  std::vector<double> times;
  make_samples(6, &nodes, &times);
  struct Entry {
    const char* name;
    perf::FitOptions options;
  };
  std::vector<Entry> entries;
  entries.push_back({"VarPro only", {}});
  entries.back().options.lm_polish = false;
  entries.push_back({"VarPro + LM", {}});
  entries.push_back({"+ multistart(8)", {}});
  entries.back().options.multistart = 8;
  entries.push_back({"relative weighting", {}});
  entries.back().options.relative_weighting = true;
  entries.push_back({"free exponent (c >= 0.1)", {}});
  entries.back().options.c_min = 0.1;

  for (const Entry& entry : entries) {
    const auto result = perf::fit(nodes, times, entry.options);
    const auto rel_err = [&](int n) {
      return 100.0 * std::fabs(result.model(n) - atm.true_time(n)) /
             atm.true_time(n);
    };
    strategies.add_row();
    strategies.cell(std::string(entry.name));
    strategies.cell(result.r_squared, 6);
    strategies.cell(result.sse, 3);
    strategies.cell(rel_err(96), 2);
    strategies.cell(rel_err(1536), 2);
    results.add_scalar(entry.name, "r_squared", result.r_squared, "");
    results.add_scalar(entry.name, "sse", result.sse, "");
    results.add_scalar(entry.name, "err96_pct", rel_err(96), "%");
    results.add_scalar(entry.name, "err1536_pct", rel_err(1536), "%");
  }
  std::cout << strategies;

  std::cout << "\nFit timing:\n";
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return bench::finish(std::move(results), artifact_options);
}
