// Observability context and instrumentation macros.
//
// Library code is instrumented against a *thread-local* context (one trace
// session pointer + one metrics registry pointer).  Per-thread installs make
// Install reentrant: concurrent pipelines -- the allocation service runs one
// per worker thread -- each see only their own sinks, and nested installs
// restore correctly without cross-thread races.  Code that fans work out to
// other threads captures obs::current_context() and re-installs it on the
// worker (see minlp::WorkerPool).  When nothing is installed every
// instrumentation point degenerates to a thread-local load and a not-taken
// branch; defining HSLB_OBS_DISABLE at compile time removes the macros
// entirely.
//
// Usage:
//   obs::TraceSession trace;
//   obs::Registry metrics;
//   {
//     obs::Install install(&trace, &metrics);   // overlay, restored on exit
//     run_workload();
//   }
//   write_file("trace.json", trace.to_chrome_json());
#pragma once

#include "hslb/obs/metrics.hpp"
#include "hslb/obs/trace.hpp"

namespace hslb::obs {

/// Observability wiring carried by configs (e.g. core::PipelineConfig).
/// Both pointers are borrowed: the caller owns the session/registry and
/// reads them after the run.  Null members mean "leave as is".
///
/// `parent_span` carries the span-nesting context across threads: when a
/// captured context is Installed on another thread, spans opened there nest
/// under the span that was open at capture time (the solver worker pool
/// relies on this; the allocation service sets it explicitly so solver
/// epochs nest under the owning request span).
/// 0 means "leave the thread's current nesting as is".
struct Options {
  TraceSession* trace = nullptr;
  Registry* metrics = nullptr;
  std::uint64_t parent_span = 0;
  bool enabled() const { return trace != nullptr || metrics != nullptr; }
};

/// Currently installed sinks on *this thread* (null when observability is
/// off).  TraceSession and Registry are themselves thread-safe, so the same
/// session may be installed on many threads at once.
TraceSession* current_trace();
Registry* current_metrics();

/// Both current sinks plus the innermost open span as an Options bundle --
/// capture this before handing work to another thread, then Install it
/// there: counters land in the same registry and spans nest under the span
/// that was open at capture time.
Options current_context();

/// RAII overlay of the calling thread's context.  Only non-null members
/// override; the previous context is restored on destruction, so nested
/// installs (pipeline inside an instrumented harness) compose.
class Install {
 public:
  explicit Install(const Options& options);
  Install(TraceSession* trace, Registry* metrics);
  ~Install();
  Install(const Install&) = delete;
  Install& operator=(const Install&) = delete;

 private:
  TraceSession* previous_trace_ = nullptr;
  Registry* previous_metrics_ = nullptr;
  std::uint64_t previous_parent_span_ = 0;
};

}  // namespace hslb::obs

#if defined(HSLB_OBS_DISABLE)

#define HSLB_SPAN(...) \
  do {                 \
  } while (false)
#define HSLB_COUNT(name, delta) \
  do {                          \
  } while (false)

#else

#define HSLB_OBS_CONCAT_INNER(a, b) a##b
#define HSLB_OBS_CONCAT(a, b) HSLB_OBS_CONCAT_INNER(a, b)

/// Open a span for the rest of the enclosing scope:
///   HSLB_SPAN("minlp.solve");
/// Records into the installed trace session; no-op when none is installed.
#define HSLB_SPAN(...)                                 \
  ::hslb::obs::ScopedSpan HSLB_OBS_CONCAT(             \
      hslb_obs_span_, __LINE__)(__VA_ARGS__)

/// Bump a named counter in the installed registry (no-op when none):
///   HSLB_COUNT("lp.simplex.solves", 1);
/// Hot loops should cache &registry->counter(...) instead (map lookup here).
#define HSLB_COUNT(name, delta)                                       \
  do {                                                                \
    if (::hslb::obs::Registry* hslb_obs_registry =                    \
            ::hslb::obs::current_metrics()) {                         \
      hslb_obs_registry->counter(name).add(                           \
          static_cast<double>(delta));                                \
    }                                                                 \
  } while (false)

#endif  // HSLB_OBS_DISABLE
