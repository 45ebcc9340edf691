// svc-mixed: an open loop against svc::AllocationService at two fixed
// offered rates, low then high.  The only workload that loads queueing, the
// cache, the coalescer and the admission path.
//
// Traffic, per block of 20 requests (the mix is exact, the order drawn):
//   7 cold fits-mode 1-degree questions: a curve from a seeded family whose
//     member 0 is bench_svc_throughput's curve, N stratified uniformly over
//     [128, 2048] -- the 1424..1648 band, where that curve's tree blows up,
//     is never excluded;
//   5 samples-mode questions (fit then solve) on seeded 1-degree campaigns;
//   5 hot repeats of a small seeded question set (cache);
//   1 concurrent duplicate of the previous cold question, due at the same
//     instant (coalescer);
//   2 small or medium corpus scenarios registered as scenario cases.
// These shares, and the pool sizes below, are assumptions: no trace of real
// allocation traffic exists to draw them from.  They give every request
// kind a share large enough to show in one phase of a run.
//
// The offered rates are fixed shares of one worker's measured capacity on
// this stream (capacity_rps, printed every run: requests submitted over the
// serial replay time of the distinct questions among them).
//
// The question stream comes from kPanelSeed; the run's seed draws the
// arrival times.  Every request carries the same node budget and no
// wall-clock budget.  Arrivals come one per 1/rate slot at a seeded point
// inside the slot; latency runs from each request's due time, so a stall
// also charges the requests behind it.  Poisson arrivals were tried first:
// with a few 0.5 s requests from the blow-up band in every phase, their
// bursts moved the 90th percentile 3x between seeds.  The end-to-end
// latencies come from the low-rate phase, which gets 80% of the
// time; the high phase's figures are printed by name.
//
// Threads: this thread generates the load and collects the answers, and
// the service runs one worker (see service_config).
// Afterwards every distinct question is replayed serially through the
// pipeline entry points the service uses; each exact answer must be
// byte-identical (svc::to_json) to its replay.
#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "hslb/cesm/configs.hpp"
#include "hslb/common/rng.hpp"
#include "hslb/hslb/pipeline.hpp"
#include "hslb/obs/metrics.hpp"
#include "hslb/scen/build.hpp"
#include "hslb/scen/generate.hpp"
#include "hslb/svc/service.hpp"

namespace perfbench {
namespace {

using namespace hslb;
using cesm::ComponentKind;

constexpr long kMaxNodes = 100;     ///< B&B node budget of every request
/// One worker's capacity on this stream, in requests per second: the median
/// capacity_rps of ten untraced 20 s runs (seeds 101-110, offered 9.6 and
/// 14.4 req/s; quartiles 25.0 and 28.7) on a shared 4-core x86-64 box,
/// Release build.
constexpr double kCapacityRps = 27.5;
/// Offered rates: 20% and 50% of that capacity.  Queueing amplifies the
/// build box's speed drift, which scaling by the speed probe does not undo:
/// at 40% the low-rate p90 moved 1.6x as much as the CPU time per request
/// between runs, and at 30% the scaled p50 and p90 still spread 0.12 and
/// 0.19 over five runs.
constexpr double kLowRate = 0.2 * kCapacityRps;
constexpr double kHighRate = 0.5 * kCapacityRps;
/// Share of the measured time spent at the low rate; the end-to-end
/// latencies come from that phase (110 requests in a 25 s run).
constexpr double kLowShare = 0.8;
constexpr double kP99LimitMs = 2000.0;  ///< max_rps latency limit
/// The load thread lets the speed probe run (about 0.5 ms) only when the
/// next request is due later than this.
constexpr double kProbeSlackUs = 2000.0;
// Pool sizes (assumptions, see above).
constexpr int kCurves = 8;
constexpr int kSampleSets = 6;
constexpr int kHotQuestions = 6;
constexpr int kMinN = 128;
constexpr int kMaxN = 2048;

enum class Kind { kFits, kSamples, kHot, kDuplicate, kScenario };

const char* to_string(Kind kind) {
  switch (kind) {
    case Kind::kFits:
      return "fits";
    case Kind::kSamples:
      return "samples";
    case Kind::kHot:
      return "hot";
    case Kind::kDuplicate:
      return "duplicate";
    case Kind::kScenario:
      return "scenario";
  }
  return "?";
}

struct Question {
  Kind kind = Kind::kFits;
  svc::AllocationRequest request;
  std::string label;  ///< input, for failure reports
};

std::map<ComponentKind, perf::PerfModel> svc_bench_curve() {
  std::map<ComponentKind, perf::PerfModel> fits;
  fits[ComponentKind::kAtm] =
      perf::PerfModel(perf::PerfParams{40000.0, 0.001, 1.2, 10.0});
  fits[ComponentKind::kOcn] =
      perf::PerfModel(perf::PerfParams{25000.0, 0.002, 1.1, 20.0});
  fits[ComponentKind::kIce] =
      perf::PerfModel(perf::PerfParams{8000.0, 0.0, 1.0, 5.0});
  fits[ComponentKind::kLnd] =
      perf::PerfModel(perf::PerfParams{3000.0, 0.0, 1.0, 2.0});
  return fits;
}

/// Everything a run's traffic draws from, built in set-up.
struct Pools {
  std::vector<std::map<ComponentKind, perf::PerfModel>> curves;
  std::vector<std::vector<cesm::BenchmarkSample>> sample_sets;
  std::vector<scen::Scenario> scenarios;
  std::vector<Question> hot;
};

svc::AllocationRequest base_request() {
  svc::AllocationRequest request;
  request.max_nodes = kMaxNodes;
  request.solver_threads = 1;
  return request;
}

Question fits_question(const Pools& pools, int curve, int n) {
  Question q;
  q.kind = Kind::kFits;
  q.request = base_request();
  q.request.total_nodes = n;
  q.request.fits = pools.curves[static_cast<std::size_t>(curve)];
  q.label = "fits curve " + std::to_string(curve) + " N=" + std::to_string(n);
  return q;
}

Pools make_pools(std::uint64_t seed) {
  Pools pools;
  common::Rng rng(seed ^ 0x737663ull);
  pools.curves.push_back(svc_bench_curve());
  for (int i = 1; i < kCurves; ++i) {
    std::map<ComponentKind, perf::PerfModel> fits;
    for (const auto& [kind, model] : pools.curves.front()) {
      perf::PerfParams p = model.params();
      p.a *= rng.uniform(0.85, 1.15);
      p.b *= rng.uniform(0.85, 1.15);
      p.d *= rng.uniform(0.85, 1.15);
      fits[kind] = perf::PerfModel(p);
    }
    pools.curves.push_back(std::move(fits));
  }
  const cesm::CaseConfig one_degree = cesm::one_degree_case();
  // Sample sets: simulated benchmark runs at the reference layout, run
  // serially here (gather_benchmarks would wake an OpenMP team per set,
  // whose start-up time on this box swung set-up time tenfold).
  for (int i = 0; i < kSampleSets; ++i) {
    const int n = static_cast<int>(rng.uniform_int(256, kMaxN));
    std::vector<cesm::BenchmarkSample> samples;
    for (const int total : core::default_gather_totals(n)) {
      const cesm::RunResult run = cesm::run_case(
          one_degree,
          cesm::reference_layout(one_degree, cesm::LayoutKind::kHybrid, total),
          rng.next_u64() >> 16);
      for (const ComponentKind kind : cesm::kModeledComponents) {
        samples.push_back(
            {kind, run.layout.at(kind), run.component_seconds.at(kind)});
      }
    }
    pools.sample_sets.push_back(std::move(samples));
  }
  // Scenario cases: the first small and medium scenarios of the canonical
  // corpus.
  for (const scen::GeneratedScenario& g :
       scen::generate_corpus(scen::GenerateOptions{})) {
    const int size_grade = g.family.rfind("small", 0) == 0    ? 0
                           : g.family.rfind("medium", 0) == 0 ? 1
                                                               : 2;
    if ((size_grade == 0 && g.index_in_family < 4) ||
        (size_grade == 1 && g.index_in_family < 1)) {
      pools.scenarios.push_back(g.scenario);
    }
  }
  for (int i = 0; i < kHotQuestions; ++i) {
    Question q = fits_question(
        pools, static_cast<int>(rng.uniform_int(0, kCurves - 1)),
        static_cast<int>(rng.uniform_int(kMinN, kMaxN)));
    q.kind = Kind::kHot;
    q.label = "hot " + q.label;
    pools.hot.push_back(std::move(q));
  }
  return pools;
}

/// The question stream: request i is the same for every run length.
std::vector<Question> make_stream(std::uint64_t seed, const Pools& pools,
                                  std::size_t count) {
  common::Rng rng(seed ^ 0x73747265616dull);
  const Kind block[] = {Kind::kFits,     Kind::kFits,     Kind::kFits,
                        Kind::kFits,     Kind::kFits,     Kind::kFits,
                        Kind::kFits,     Kind::kSamples,  Kind::kSamples,
                        Kind::kSamples,  Kind::kSamples,  Kind::kSamples,
                        Kind::kHot,      Kind::kHot,      Kind::kHot,
                        Kind::kHot,      Kind::kHot,      Kind::kDuplicate,
                        Kind::kScenario, Kind::kScenario};
  constexpr int kNStrata = 16;
  std::vector<int> strata;
  std::vector<Question> stream;
  std::size_t last_cold = 0;
  bool have_cold = false;
  std::vector<Kind> kinds;
  while (stream.size() < count) {
    if (kinds.empty()) {
      kinds.assign(std::begin(block), std::end(block));
      std::shuffle(kinds.begin(), kinds.end(), rng);
    }
    const Kind kind = kinds.back();
    kinds.pop_back();
    Question q;
    switch (kind) {
      case Kind::kFits: {
        if (strata.empty()) {
          for (int s = 0; s < kNStrata; ++s) {
            strata.push_back(s);
          }
          std::shuffle(strata.begin(), strata.end(), rng);
        }
        const int s = strata.back();
        strata.pop_back();
        const double width = static_cast<double>(kMaxN - kMinN) / kNStrata;
        const int n = static_cast<int>(
            kMinN + std::floor(rng.uniform(s * width, (s + 1) * width)));
        q = fits_question(pools, static_cast<int>(rng.uniform_int(0, kCurves - 1)),
                          n);
        break;
      }
      case Kind::kSamples: {
        const int set = static_cast<int>(rng.uniform_int(0, kSampleSets - 1));
        const int n = static_cast<int>(rng.uniform_int(kMinN, kMaxN));
        q.kind = Kind::kSamples;
        q.request = base_request();
        q.request.total_nodes = n;
        q.request.samples = pools.sample_sets[static_cast<std::size_t>(set)];
        q.label = "samples set " + std::to_string(set) +
                  " N=" + std::to_string(n);
        break;
      }
      case Kind::kHot:
        q = pools.hot[static_cast<std::size_t>(
            rng.uniform_int(0, kHotQuestions - 1))];
        break;
      case Kind::kDuplicate:
        if (!have_cold) {
          continue;
        }
        q = stream[last_cold];
        q.kind = Kind::kDuplicate;
        q.label = "duplicate of " + stream[last_cold].label;
        break;
      case Kind::kScenario: {
        const scen::Scenario& s = pools.scenarios[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(pools.scenarios.size()) - 1))];
        q.kind = Kind::kScenario;
        q.request = base_request();
        q.request.case_name = s.name;
        q.label = "scenario " + s.name;
        break;
      }
    }
    stream.push_back(std::move(q));
    if (kind == Kind::kFits || kind == Kind::kSamples) {
      last_cold = stream.size() - 1;
      have_cold = true;
    }
  }
  return stream;
}

/// Arrival offsets (seconds) for one phase: one request per 1/rate slot,
/// due at a seeded point in the middle half of its slot; a duplicate is due
/// at the same instant as the request before it.
std::vector<double> arrivals(common::Rng& rng, double rate, double duration,
                             const std::vector<Question>& stream,
                             std::size_t first) {
  std::vector<double> due;
  long slot = 0;
  double t = 0.0;
  for (std::size_t i = first; i < stream.size(); ++i) {
    if (stream[i].kind != Kind::kDuplicate || due.empty()) {
      t = (static_cast<double>(slot++) + rng.uniform(0.25, 0.75)) / rate;
    }
    if (t >= duration) {
      break;
    }
    due.push_back(t);
  }
  return due;
}

/// One request as the load saw it.
struct Record {
  std::size_t question = 0;
  int phase = 0;  ///< 0 low, 1 high
  double due_us = 0.0;
  double submit_start_us = 0.0;
  double submit_end_us = 0.0;
  double done_us = 0.0;
  bool cache_hit = false;
  bool coalesced = false;
  std::size_t queue_depth = 0;
  std::optional<svc::SolveOutcome> outcome;  ///< empty: never resolved
  std::uint32_t span = 0;
};

struct LoopResult {
  std::vector<Record> records;
  double cpu_seconds[2] = {0.0, 0.0};
  bool backlog_grows[2] = {false, false};
};

svc::ServiceConfig service_config() {
  svc::ServiceConfig config;
  // One worker.  With three on this 4-core box the same 30 cold requests
  // ran 0.9-1.45x as fast as with one, and the low-rate p90 moved up to 3x
  // between runs; worker scaling needs a workload of its own.
  config.workers = 1;
  config.queue_capacity = 4096;
  return config;
}

void register_scenarios(svc::AllocationService& service, const Pools& pools) {
  for (const scen::Scenario& s : pools.scenarios) {
    service.register_scenario(s);
  }
}

/// Drive both phases against a fresh service from this one thread: it
/// submits each request at its due time and, while waiting, blocks on the
/// oldest outstanding future to stamp completions.  The one worker takes
/// the queue in order, so requests finish in the order they were queued (a
/// coalesced follower with its leader).  Polling every 100 us instead woke
/// this thread 10,000 times a second, CPU time that cpu_ms_per_op counted
/// and that did not follow the machine's speed.  While it waits the thread
/// lets the speed probe time its kernel.  `tracer` records a request span
/// per request with its submit child when enabled.  `between_phases` runs
/// after the low phase has drained.
template <typename BetweenFn>
LoopResult open_loop(const RunArgs& args, const std::vector<Question>& stream,
                     const std::vector<double> (&due)[2], const Pools& pools,
                     Tracer& tracer, BetweenFn between_phases) {
  svc::AllocationService service(service_config());
  register_scenarios(service, pools);
  LoopResult out;
  for (int phase = 0; phase < 2; ++phase) {
    for (const double t : due[phase]) {
      Record r;
      r.question = out.records.size();
      r.phase = phase;
      r.due_us = t * 1e6;
      out.records.push_back(std::move(r));
    }
  }

  std::vector<std::pair<std::size_t, svc::ResponseFuture>> pending;
  // Stamp every finished request; `pending` keeps submission order.
  auto reap = [&] {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (pending[i].second.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        if (kept != i) {
          pending[kept] = std::move(pending[i]);
        }
        ++kept;
        continue;
      }
      Record& r = out.records[pending[i].first];
      if (r.done_us == 0.0) {
        r.done_us = now_us();
      }
      r.outcome = pending[i].second.get();
      if (r.span != 0) {
        tracer.close(r.span, r.done_us);
      }
    }
    pending.resize(kept);
  };
  // Wait until `until_us`, or until nothing is outstanding when `drain`,
  // stamping completions as they happen.
  auto wait_until = [&](double until_us, bool drain) {
    for (reap(); !(drain && pending.empty()); reap()) {
      if (until_us - now_us() > kProbeSlackUs) {
        sample_speed(args);
      }
      const double left_us = until_us - now_us();
      if (left_us <= 0.0) {
        return;
      }
      const std::chrono::duration<double, std::micro> left(left_us);
      if (pending.empty()) {
        std::this_thread::sleep_for(left);
      } else {
        (void)pending.front().second.wait_for(left);
      }
    }
  };

  std::size_t index = 0;
  for (int phase = 0; phase < 2; ++phase) {
    const double phase_start = now_us();
    const double cpu_start = process_cpu_seconds();
    std::vector<double> outstanding;
    for (std::size_t k = 0; k < due[phase].size(); ++k, ++index) {
      Record& r = out.records[index];
      r.due_us += phase_start;
      wait_until(r.due_us, false);
      r.span = tracer.enabled() ? tracer.open("request", 0, r.due_us) : 0;
      r.submit_start_us = now_us();
      svc::AllocationService::Ticket ticket =
          service.submit(stream[r.question].request);
      r.submit_end_us = now_us();
      tracer.add("svc.submit", r.span, r.submit_start_us, r.submit_end_us);
      r.cache_hit = ticket.cache_hit;
      r.coalesced = ticket.coalesced;
      if (ticket.cache_hit) {
        r.done_us = r.submit_end_us;
      }
      if (tracer.enabled()) {
        r.queue_depth = service.queue_depth();
      }
      pending.emplace_back(index, std::move(ticket.future));
      outstanding.push_back(static_cast<double>(pending.size()));
    }
    // Drain this phase before the next one starts.
    wait_until(now_us() + 120e6, true);
    out.cpu_seconds[phase] = process_cpu_seconds() - cpu_start;
    // The backlog grows when the mean outstanding count over the last
    // quarter of arrivals exceeds twice the first quarter's, plus two.
    const std::size_t q = outstanding.size() / 4;
    if (q > 0) {
      double head = 0.0, tail = 0.0;
      for (std::size_t i = 0; i < q; ++i) {
        head += outstanding[i];
        tail += outstanding[outstanding.size() - 1 - i];
      }
      out.backlog_grows[phase] = tail > 2.0 * head + 2.0 * static_cast<double>(q);
    }
    if (phase == 0) {
      between_phases();
    }
  }
  service.shutdown();
  return out;
}

/// The service's answer to `q`, recomputed serially through the same entry
/// points the service's workers call.
struct Replay {
  std::string json;
  std::string error;
  double ms = 0.0;
  bool has_stats = false;
  minlp::MinlpResult solver;
  long fit_calls = 0;  ///< the library's perf.fit.calls count
};

Replay replay(const Question& q, const Pools& pools, Tracer& tracer) {
  Replay out;
  const double t0 = now_us();
  ScopedSpan root(tracer, "replay", 0);
  try {
    svc::AllocationResponse response;
    if (q.kind == Kind::kScenario) {
      const auto it = std::find_if(
          pools.scenarios.begin(), pools.scenarios.end(),
          [&](const scen::Scenario& s) { return s.name == q.request.case_name; });
      minlp::SolverOptions solver;
      solver.max_nodes = q.request.max_nodes;
      solver.threads = q.request.solver_threads;
      solver.use_sos_branching = q.request.use_sos;
      scen::BuildOptions build_options;
      build_options.use_sos = q.request.use_sos;
      scen::ScenarioModelVars vars;
      minlp::Model model;
      {
        ScopedSpan span(tracer, "scen.build", root.id());
        model = scen::build_scenario_model(*it, &vars, build_options);
      }
      {
        ScopedSpan span(tracer, "minlp.solve", root.id());
        const double s0 = now_us();
        out.solver = minlp::solve(model, solver);
        add_solver_spans(tracer, span.id(), s0, out.solver.stats);
      }
      out.has_stats = true;
      if (out.solver.x.size() == 0) {
        out.error = "scenario solve found no feasible point";
      } else {
        const scen::ScenAllocation a =
            scen::extract_scenario_allocation(*it, vars, out.solver);
        response.solver_status = out.solver.status;
        response.nodes_explored = out.solver.stats.nodes_explored;
        response.scenario_nodes = a.nodes;
        response.scenario_objective = a.objective;
      }
    } else {
      core::PipelineConfig config;
      config.case_config = cesm::one_degree_case();
      config.layout = q.request.layout;
      config.objective = q.request.objective;
      config.total_nodes = q.request.total_nodes;
      config.tsync = q.request.tsync;
      config.constrain_atm = q.request.constrain_atm;
      config.constrain_ocean = q.request.constrain_ocean;
      config.use_sos = q.request.use_sos;
      config.fit_options = q.request.fit_options;
      config.solver.max_wall_seconds = q.request.max_wall_seconds;
      config.solver.max_nodes = q.request.max_nodes;
      config.solver.threads = q.request.solver_threads;
      obs::Registry counters;
      config.obs.metrics = &counters;
      core::HslbResult result;
      {
        ScopedSpan span(tracer, "hslb.solve", root.id());
        result = q.request.fits.empty()
                     ? core::run_hslb_from_samples(config, q.request.samples)
                     : core::run_hslb_from_fits(config, q.request.fits);
      }
      out.fit_calls = std::lround(
          counters.snapshot().counter_value("perf.fit.calls"));
      out.solver = result.solver_result;
      out.has_stats = true;
      response.allocation = result.allocation;
      response.tsync_used = result.tsync_used;
      response.solver_status = result.solver_result.status;
      response.nodes_explored = result.solver_result.stats.nodes_explored;
      response.degraded = result.degraded;
    }
    if (out.error.empty()) {
      out.json = svc::to_json(response);
    }
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  out.ms = (now_us() - t0) * 1e-3;
  return out;
}

/// Traced runs time a samples-mode question's four perf::fit calls on their
/// own, beside its replay, for the perf.fit layer figures.
void fit_probe(const Question& q, Tracer& tracer) {
  for (const ComponentKind kind : cesm::kModeledComponents) {
    const cesm::Series series = cesm::series_for(q.request.samples, kind);
    const ScopedSpan span(tracer, "perf.fit", 0);
    (void)perf::fit(series.nodes, series.seconds, q.request.fit_options);
  }
}

bool is_shed(svc::ErrorCode code) {
  return code == svc::ErrorCode::kQueueFull ||
         code == svc::ErrorCode::kDeadlineExceeded ||
         code == svc::ErrorCode::kOverloaded ||
         code == svc::ErrorCode::kShutdown;
}

}  // namespace

void run_svc_mixed(const RunArgs& args, Tracer& tracer, Report& report) {
  // Set-up: question pools, the question stream and arrival schedules, and
  // one service started, fed the scenario catalog, warmed and stopped.  The
  // timed set-ups run before, between and after the untraced load's phases,
  // so that they see the machine speed the load saw (it drifted by up to 40%
  // within seconds on the shared build box); the first one's inputs are
  // used.  Traced runs measure an untraced and a traced loop, each half as
  // long.
  const double loop_s = args.seconds / (args.trace ? 2.0 : 1.0);
  const double phase_s[2] = {loop_s * kLowShare, loop_s * (1.0 - kLowShare)};
  struct Inputs {
    Pools pools;
    std::vector<Question> stream;
    std::vector<double> due[2];
  };
  std::vector<Interval> setups;
  auto setup = [&] {
    sample_speed(args);
    const double t0 = now_us();
    Inputs in;
    in.pools = make_pools(kPanelSeed);
    const std::size_t expected = std::max<std::size_t>(
        200, static_cast<std::size_t>(
                 (kLowRate * phase_s[0] + kHighRate * phase_s[1]) * 1.5));
    in.stream = make_stream(kPanelSeed, in.pools, expected);
    common::Rng rng(args.seed ^ 0x617272ull);
    in.due[0] = arrivals(rng, kLowRate, phase_s[0], in.stream, 0);
    in.due[1] =
        arrivals(rng, kHighRate, phase_s[1], in.stream, in.due[0].size());
    svc::AllocationService service(service_config());
    register_scenarios(service, in.pools);
    svc::AllocationRequest warm = base_request();
    warm.total_nodes = 100;  // outside the stream's N range
    warm.fits = in.pools.curves.front();
    (void)service.solve(warm);
    service.shutdown();
    setups.push_back({t0, now_us()});
    return in;
  };
  auto setups_until = [&](int count) {
    while (setups.size() < static_cast<std::size_t>(count)) {
      (void)setup();
    }
  };
  const Inputs inputs = setup();
  const Pools& pools = inputs.pools;
  const std::vector<Question>& stream = inputs.stream;
  setups_until(kSetupRepeats / 3);

  Tracer off(false);
  const LoopResult plain = open_loop(
      args, stream, inputs.due, pools, off,
      [&] { setups_until(2 * kSetupRepeats / 3); });
  setups_until(kSetupRepeats);
  sample_speed(args);
  LoopResult traced;
  if (args.trace) {
    traced = open_loop(args, stream, inputs.due, pools, tracer, [] {});
  }

  // Serial replay of every distinct question, in order of first arrival.
  std::map<std::string, Replay> replays;
  std::vector<double> replay_ms;
  SolverTotals solver;
  long fit_calls = 0;
  long first_nodes = 0, first_pivots = 0, first_limited = 0, first_fits = 0;
  constexpr std::size_t kGoldenQuestions = 40;
  // The golden covers the stream's first kGoldenQuestions distinct
  // questions, replayed even when a short run did not submit them all.
  std::vector<std::string> keys;
  for (const Question& q : stream) {
    keys.push_back(svc::canonical_key(q.request));
  }
  const std::size_t submitted = plain.records.size();
  std::size_t golden_questions = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (i >= submitted && golden_questions >= kGoldenQuestions) {
      break;
    }
    if (replays.count(keys[i]) != 0) {
      continue;
    }
    const bool asked = i < submitted;
    Replay rep = replay(stream[i], pools, args.trace && asked ? tracer : off);
    if (golden_questions < kGoldenQuestions && rep.has_stats) {
      first_nodes += rep.solver.stats.nodes_explored;
      first_pivots += rep.solver.stats.simplex_iterations;
      first_limited += rep.solver.status == minlp::MinlpStatus::kNodeLimit;
      first_fits += rep.fit_calls;
    }
    ++golden_questions;
    if (asked) {
      replay_ms.push_back(rep.ms);
      fit_calls += rep.fit_calls;
      if (rep.has_stats) {
        solver.add(rep.solver, rep.ms);
      }
      if (args.trace && stream[i].kind == Kind::kSamples) {
        fit_probe(stream[i], tracer);
      }
    }
    replays.emplace(keys[i], std::move(rep));
  }
  report.work["questions"] = std::to_string(kGoldenQuestions);
  report.work["bb_nodes"] = std::to_string(first_nodes);
  report.work["lp_pivots"] = std::to_string(first_pivots);
  report.work["node_limited"] = std::to_string(first_limited);
  report.work["fit_calls"] = std::to_string(first_fits);

  // Check every answer against its replay; collect latencies.
  std::vector<Interval> low_requests;
  std::vector<double> latency[2], traced_latency, submit_us, lag_ms, wait_ms;
  long hits = 0, coalesced = 0, shed = 0, degraded = 0, answers = 0;
  std::size_t max_depth = 0;
  double attributed_solve_ms = 0.0;
  auto account = [&](const LoopResult& loop, bool is_traced) {
    for (const Record& r : loop.records) {
      const Question& q = stream[r.question];
      ++report.attempted;
      if (!r.outcome.has_value()) {
        report.fail(std::string(to_string(q.kind)) + " " + q.label +
                    ": no answer before the drain deadline");
        continue;
      }
      const double ms = (r.done_us - r.due_us) * 1e-3;
      if (!r.outcome->has_value()) {
        const svc::Error& e = r.outcome->error();
        shed += is_shed(e.code);
        report.fail(std::string(to_string(q.kind)) + " " + q.label + ": " +
                    svc::to_string(e.code) + " (" + e.phase + ") " + e.message);
        continue;
      }
      const svc::AllocationResponse& response = r.outcome->value();
      const Replay& rep = replays.at(keys[r.question]);
      const bool exact = response.served == svc::ServeLevel::kExact;
      if (exact) {
        const bool same = rep.error.empty() && svc::to_json(response) == rep.json;
        report.check(same, std::string(to_string(q.kind)) + " " + q.label +
                               ": answer differs from its serial replay" +
                               (rep.error.empty() ? "" : " (" + rep.error + ")"));
        if (!same) {
          report.fail(std::string(to_string(q.kind)) + " " + q.label +
                      ": wrong answer");
          continue;
        }
      }
      if (!is_traced) {
        latency[r.phase].push_back(ms);
        if (r.phase == 0) {
          low_requests.push_back({r.due_us, r.done_us});
        }
        continue;
      }
      traced_latency.push_back(ms);
      ++answers;
      hits += r.cache_hit;
      coalesced += r.coalesced;
      degraded += !exact || response.degraded;
      submit_us.push_back(r.submit_end_us - r.submit_start_us);
      lag_ms.push_back((r.submit_start_us - r.due_us) * 1e-3);
      max_depth = std::max(max_depth, r.queue_depth);
      // A leader's wait is its latency minus the solve it ran; a cache hit
      // or a coalesced follower ran none.
      const double solve = r.cache_hit || r.coalesced ? 0.0 : rep.ms;
      attributed_solve_ms += solve;
      wait_ms.push_back(ms - solve);
      if (r.span != 0 && solve > 0.0) {
        tracer.add("svc.solve", r.span, r.submit_end_us,
                   r.submit_end_us + solve * 1e3, true);
      }
    }
  };
  account(plain, false);
  if (args.trace) {
    account(traced, true);
  }

  // The rate ladder: the two phases' rates, highest first.  A rung counts
  // only if its p99 has ten samples beyond it.
  double max_rps = std::numeric_limits<double>::quiet_NaN();
  std::string ladder;
  for (int phase = 1; phase >= 0; --phase) {
    const std::size_t n = latency[phase].size();
    const bool enough = samples_beyond(n, 0.99) >= 10;
    ladder += (ladder.empty() ? "" : ", ") +
              exact(phase == 1 ? kHighRate : kLowRate) +
              " req/s n=" + std::to_string(n);
    if (enough && percentile(latency[phase], 0.99) <= kP99LimitMs &&
        !plain.backlog_grows[phase] && std::isnan(max_rps)) {
      max_rps = phase == 1 ? kHighRate : kLowRate;
    }
  }
  name_percentiles(report, "req_ms", latency[0], {0.5, 0.9, 0.99}, ".low");
  name_percentiles(report, "req_ms", latency[1], {0.5, 0.9, 0.99}, ".high");
  report.name("max_rps", max_rps, "1/s",
              "highest rung {" + ladder + "} with p99 <= " +
                  exact(kP99LimitMs) +
                  " ms on >= 10 samples beyond it and no growing backlog");
  // One worker's capacity on this stream: requests submitted over the
  // serial replay time of the distinct questions among them (hot repeats
  // and duplicates cost the worker nothing).
  const double replay_s =
      std::accumulate(replay_ms.begin(), replay_ms.end(), 0.0) * 1e-3;
  report.name("capacity_rps",
              replay_s > 0.0 ? static_cast<double>(submitted) / replay_s : 0.0,
              "1/s", "submitted requests / serial replay seconds");
  report.name("distinct_questions", static_cast<double>(replays.size()),
              "count", "replayed serially");

  if (!args.trace) {
    report.segments = {{low_requests, plain.cpu_seconds[0]}};
    report.setups = setups;
    return;
  }
  zero_layer_metrics(report);
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const double n = static_cast<double>(traced.records.size());
  // Layer work is per replayed question: the service ran each once.
  const double questions = static_cast<double>(replay_ms.size());
  auto& m = report.metrics;
  m["perf.fit_ms"] = ratio(tracer.total_ms("perf.fit"), questions);
  m["perf.fit_calls"] = ratio(static_cast<double>(fit_calls), questions);
  m["scen.build_ms"] = ratio(tracer.total_ms("scen.build"), questions);
  set_solver_layer_metrics(report, solver, questions);
  m["svc.submit_us.p50"] = median(submit_us);
  m["svc.cache_hit_ratio"] = ratio(static_cast<double>(hits), n);
  m["svc.coalesced_ratio"] = ratio(static_cast<double>(coalesced), n);
  m["svc.shed_ratio"] = ratio(static_cast<double>(shed), n);
  m["svc.degraded_ratio"] = ratio(static_cast<double>(degraded),
                                  static_cast<double>(answers));
  m["svc.queue_depth.max"] = static_cast<double>(max_depth);
  m["svc.gen_lag_ms.p99"] = percentile(lag_ms, 0.99);
  m["svc.solve_ms.p50"] = median(replay_ms);
  m["svc.wait_ms.p50"] = median(wait_ms);
  m["svc.wait_ms.p99"] = percentile(wait_ms, 0.99);
  std::vector<double> plain_latency = latency[0];
  plain_latency.insert(plain_latency.end(), latency[1].begin(),
                       latency[1].end());
  const double plain_mean = mean(plain_latency);
  m["obs.trace_overhead_pct"] =
      plain_mean > 0.0 ? (mean(traced_latency) / plain_mean - 1.0) * 100.0
                       : 0.0;
  // Reconciliation per answered request: latency = submit + the solve it
  // ran (replay time; 0 for hits and followers) + residue (waiting).
  const double submit_ms = mean(submit_us) * 1e-3;
  const double solve_ms = ratio(attributed_solve_ms, static_cast<double>(answers));
  m["residue_ms"] = mean(traced_latency) - submit_ms - solve_ms;
  report.op_ms_traced = mean(traced_latency);
  report.layers.emplace_back("svc.submit", submit_ms);
  report.layers.emplace_back("svc.solve (replay)", solve_ms);
}

}  // namespace perfbench
