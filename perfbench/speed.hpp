// Machine-speed reference for the end-to-end times.
//
// The shared 4-core build box changes speed under the benchmark: over four
// minutes the same rebal-drift horizons ran between 0.65x and 1.2x their
// median time, in stretches of tens of seconds, so the raw times of whole
// runs spread by 0.1-0.3 (quartile distance / median) across runs, past the
// 0.25 bound, however long a run was.  A fixed kernel timed between the
// operations slows with them, and scaling by it takes most of that spread
// out (README.md, "Machine-speed scaling").
//
// The kernel runs in a child process forked before the program makes any
// library call, so it shares no library state (OpenMP teams, heap, caches
// warmed by an operation) with the program.  The benchmark asks for a
// timing between operations and waits for it; the child pins itself to the
// CPU the asking thread runs on, which that thread leaves idle while it
// waits, and times the kernel in its own thread CPU time.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <vector>

namespace perfbench {

/// One kernel timing: when it started (now_us() clock) and the CPU time it
/// took, in microseconds.
struct SpeedSample {
  double at_us = 0.0;
  double kernel_us = 0.0;
};

/// The child process that times the kernel on request.  Construct it
/// before any library call; the destructor stops and reaps the child.
class SpeedProbe {
 public:
  SpeedProbe();
  ~SpeedProbe();
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  /// Time the kernel once if the last timing is kProbeEveryMs old or
  /// more; blocks for about half a millisecond when it does.
  void sample_if_due();
  /// Stop the child, wait for it to end and return every timing.
  std::vector<SpeedSample> stop();

 private:
  void end_child();

  int control_ = -1;  ///< write end: a CPU number per request; EOF stops
  int data_ = -1;     ///< read end: one SpeedSample per request
  pid_t child_ = -1;
  double last_us_ = -1e300;
  std::vector<SpeedSample> samples_;
};

/// The scale factor of a run's end-to-end times: (kReferenceKernelUs over
/// the run's median kernel time) to the power kSensitivity, 1 without
/// timings.  One factor per run: factors from windows of 2-10 s around each
/// operation let the kernel's own noise through (six pipeline-1deg runs'
/// p90s spread 0.13-0.21 with them, 0.10 with one factor).
class SpeedScale {
 public:
  explicit SpeedScale(std::vector<SpeedSample> samples);
  double factor() const;
  /// Median kernel time over the whole run (0 without timings).
  double median_kernel_us() const;
  std::size_t size() const { return samples_.size(); }

 private:
  std::vector<SpeedSample> samples_;
};

}  // namespace perfbench
