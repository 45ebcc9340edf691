#include "hslb/obs/obs.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

namespace hslb::obs {
namespace {

/// Per-thread span nesting level.  Process-wide rather than per-session:
/// only one session is active at a time in practice, and an overlayed
/// session still wants globally consistent nesting.
thread_local int t_depth = 0;

/// Id of the innermost open span on this thread (0 = none).  ScopedSpan
/// maintains it; Install seeds it from Options::parent_span so spans opened
/// on a worker thread nest under the span that dispatched the work.
thread_local std::uint64_t t_parent_span = 0;

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", value);
  return buf;
}

}  // namespace

TraceSession::TraceSession() : epoch_(std::chrono::steady_clock::now()) {}

double TraceSession::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::uint64_t TraceSession::next_span_id() {
  return next_id_.fetch_add(1, std::memory_order_relaxed);
}

int TraceSession::thread_id_for_current_thread() {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = thread_ids_.try_emplace(
      std::this_thread::get_id(), static_cast<int>(thread_ids_.size()));
  return it->second;
}

void TraceSession::record(TraceEvent event) {
  const std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(std::move(event));
}

void TraceSession::record_counter(const std::string& name, double value) {
  const double ts = now_us();
  const int tid = thread_id_for_current_thread();
  const std::lock_guard<std::mutex> lock(mutex_);
  counters_.push_back(CounterSample{name, ts, value, tid});
}

std::vector<TraceEvent> TraceSession::events() const {
  std::vector<TraceEvent> out;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    out = events_;
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.start_us < b.start_us;
            });
  return out;
}

std::vector<CounterSample> TraceSession::counter_samples() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

std::string TraceSession::to_chrome_json() const {
  const std::vector<TraceEvent> spans = events();
  const std::vector<CounterSample> counters = counter_samples();
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : spans) {
    if (!first) {
      os << ",";
    }
    first = false;
    os << "\n{\"name\":\"" << json_escape(e.name) << "\",\"cat\":\""
       << json_escape(e.category) << "\",\"ph\":\"X\",\"ts\":"
       << json_number(e.start_us) << ",\"dur\":" << json_number(e.duration_us)
       << ",\"pid\":1,\"tid\":" << e.thread_id;
    os << ",\"args\":{\"depth\":" << e.depth << ",\"span\":" << e.id
       << ",\"parent\":" << e.parent;
    for (const auto& [key, value] : e.args) {
      os << ",\"" << json_escape(key) << "\":\"" << json_escape(value)
         << "\"";
    }
    os << "}}";
  }
  for (const CounterSample& c : counters) {
    if (!first) {
      os << ",";
    }
    first = false;
    os << "\n{\"name\":\"" << json_escape(c.name)
       << "\",\"ph\":\"C\",\"ts\":" << json_number(c.timestamp_us)
       << ",\"pid\":1,\"tid\":" << c.thread_id << ",\"args\":{\"value\":"
       << json_number(c.value) << "}}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return os.str();
}

std::string TraceSession::flame_summary() const {
  struct Agg {
    long long count = 0;
    double total_us = 0.0;
    double max_us = 0.0;
    int min_depth = 1 << 20;
  };
  std::map<std::string, Agg> by_name;
  for (const TraceEvent& e : events()) {
    Agg& agg = by_name[e.name];
    ++agg.count;
    agg.total_us += e.duration_us;
    agg.max_us = std::max(agg.max_us, e.duration_us);
    agg.min_depth = std::min(agg.min_depth, e.depth);
  }
  std::vector<std::pair<std::string, Agg>> rows(by_name.begin(),
                                                by_name.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.total_us > b.second.total_us;
  });
  common::Table table({"span", "count", "total,ms", "mean,ms", "max,ms"});
  table.set_align(0, common::Align::kLeft);
  for (const auto& [name, agg] : rows) {
    table.add_row();
    // Indent by the shallowest depth the span was seen at, flame-style.
    table.cell(std::string(static_cast<std::size_t>(
                               std::min(agg.min_depth, 8) * 2),
                           ' ') +
               name);
    table.cell(agg.count);
    table.cell(agg.total_us / 1e3, 3);
    table.cell(agg.total_us / 1e3 / static_cast<double>(agg.count), 3);
    table.cell(agg.max_us / 1e3, 3);
  }
  return table.to_text();
}

ScopedSpan::ScopedSpan(std::string name, std::string category)
    : ScopedSpan(current_trace(), std::move(name), std::move(category)) {}

ScopedSpan::ScopedSpan(TraceSession* session, std::string name,
                       std::string category)
    : session_(session) {
  if (session_ == nullptr) {
    return;
  }
  event_.name = std::move(name);
  event_.category = std::move(category);
  event_.thread_id = session_->thread_id_for_current_thread();
  event_.depth = t_depth++;
  event_.id = session_->next_span_id();
  event_.parent = t_parent_span;
  previous_parent_ = t_parent_span;
  t_parent_span = event_.id;
  event_.start_us = session_->now_us();
}

ScopedSpan::~ScopedSpan() {
  if (session_ == nullptr) {
    return;
  }
  --t_depth;
  t_parent_span = previous_parent_;
  event_.duration_us = session_->now_us() - event_.start_us;
  session_->record(std::move(event_));
}

void ScopedSpan::arg(std::string key, std::string value) {
  if (session_ != nullptr) {
    event_.args.emplace_back(std::move(key), std::move(value));
  }
}

void ScopedSpan::arg(std::string key, double value) {
  arg(std::move(key), common::format_fixed(value, 3));
}

void ScopedSpan::arg(std::string key, long long value) {
  arg(std::move(key), std::to_string(value));
}

namespace {

// The installed context is per-thread.  It used to be a pair of process-wide
// atomics, which made concurrent Install/restore pairs from different threads
// (the allocation service's workers, each running a pipeline with its own
// sinks) corrupt each other's saved "previous" pointers.  Thread-local slots
// make Install reentrant by construction; code that fans work out to other
// threads (the solver worker pool, the service worker pool) captures
// current_context() and re-installs it on the worker.
thread_local TraceSession* t_trace = nullptr;
thread_local Registry* t_metrics = nullptr;

}  // namespace

TraceSession* current_trace() { return t_trace; }

Registry* current_metrics() { return t_metrics; }

std::uint64_t current_span() { return t_parent_span; }

Options current_context() {
  return Options{t_trace, t_metrics, t_parent_span};
}

Install::Install(const Options& options)
    : previous_trace_(t_trace),
      previous_metrics_(t_metrics),
      previous_parent_span_(t_parent_span) {
  if (options.trace != nullptr) {
    t_trace = options.trace;
  }
  if (options.metrics != nullptr) {
    t_metrics = options.metrics;
  }
  if (options.parent_span != 0) {
    t_parent_span = options.parent_span;
  }
}

Install::Install(TraceSession* trace, Registry* metrics)
    : Install(Options{trace, metrics, 0}) {}

Install::~Install() {
  t_trace = previous_trace_;
  t_metrics = previous_metrics_;
  t_parent_span = previous_parent_span_;
}

}  // namespace hslb::obs
