#include "speed.hpp"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <ctime>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {
namespace {

/// Least time between kernel timings; each takes about 0.5 ms of CPU, so
/// sampling costs a serial workload about 2% of its run.
constexpr double kProbeEveryMs = 20.0;
/// The box's reference speed: the kernel's median time in quiet stretches
/// was 400-460 us.
constexpr double kReferenceKernelUs = 450.0;
/// How strongly the workloads' times follow the kernel's: across ten
/// rebal-drift runs of identical work, a 1.75x spread of kernel medians came
/// with a 1.43x spread of operation times (log ratio 0.64).  Over eleven
/// sets of 5-10 runs of the four workloads, this exponent left the widest
/// spread of any set's end-to-end times at 0.17 (quartile distance /
/// median), against 0.29 raw, 0.25 fully scaled (exponent 1) and 0.18 for
/// scaling only runs slower than the reference.
constexpr double kSensitivity = 0.65;

double thread_cpu_us() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) * 1e-3;
}

volatile double g_kernel_sink = 0.0;

/// Gaussian elimination on a small diagonally dominant matrix, repeated:
/// L1-resident floating-point loads, multiplies and dependent updates, the
/// mix the LP factor and pivot code runs.  On the build box its time
/// tracked the time of identical rebal-drift horizons (correlation 0.9
/// over 5-20 s windows) better than a register-only loop (0.7-0.87).
void kernel() {
  constexpr int kN = 48;
  constexpr int kRepeats = 24;
  double m[kN][kN];
  double acc = 0.0;
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (int i = 0; i < kN; ++i) {
      for (int j = 0; j < kN; ++j) {
        m[i][j] = (i == j ? 50.0 : 0.0) + 1.0 / (1 + i + j + rep);
      }
    }
    for (int k = 0; k < kN; ++k) {
      for (int i = k + 1; i < kN; ++i) {
        const double f = m[i][k] / m[k][k];
        for (int j = k; j < kN; ++j) {
          m[i][j] -= f * m[k][j];
        }
      }
    }
    acc += m[kN - 1][kN - 1];
  }
  g_kernel_sink = g_kernel_sink + acc;
}

bool write_all(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, p, size);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t size) {
  char* p = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = ::read(fd, p, size);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// The child: for each CPU number read, pin to that CPU, time the kernel
/// and send the timing back; exit at EOF.
[[noreturn]] void run_sampler(int control, int data) {
  int cpu = -1;
  while (read_all(control, &cpu, sizeof(cpu))) {
    if (cpu >= 0 && cpu < CPU_SETSIZE) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      (void)::sched_setaffinity(0, sizeof(set), &set);
    }
    SpeedSample s;
    s.at_us = now_us();
    const double cpu_start = thread_cpu_us();
    kernel();
    s.kernel_us = thread_cpu_us() - cpu_start;
    if (!write_all(data, &s, sizeof(s))) {
      break;
    }
  }
  _exit(0);
}

}  // namespace

SpeedProbe::SpeedProbe() {
  int control[2];
  int data[2];
  if (::pipe2(control, O_CLOEXEC) != 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  if (::pipe2(data, O_CLOEXEC) != 0) {
    ::close(control[0]);
    ::close(control[1]);
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  (void)now_us();  // fix the clock's epoch, so the child shares it
  child_ = ::fork();
  if (child_ < 0) {
    for (const int fd : {control[0], control[1], data[0], data[1]}) {
      ::close(fd);
    }
    throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  }
  if (child_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() == 1) {
      _exit(1);
    }
    ::close(control[1]);
    ::close(data[0]);
    run_sampler(control[0], data[1]);
  }
  ::close(control[0]);
  ::close(data[1]);
  control_ = control[1];
  data_ = data[0];
}

SpeedProbe::~SpeedProbe() { end_child(); }

void SpeedProbe::sample_if_due() {
  if (child_ <= 0 || now_us() - last_us_ < kProbeEveryMs * 1e3) {
    return;
  }
  const int cpu = ::sched_getcpu();
  SpeedSample s;
  if (!write_all(control_, &cpu, sizeof(cpu)) ||
      !read_all(data_, &s, sizeof(s))) {
    end_child();  // the child is gone; the run keeps what it has
    return;
  }
  samples_.push_back(s);
  last_us_ = now_us();
}

void SpeedProbe::end_child() {
  if (child_ <= 0) {
    return;
  }
  ::close(control_);
  ::close(data_);
  int status = 0;
  while (::waitpid(child_, &status, 0) < 0 && errno == EINTR) {
  }
  child_ = -1;
}

std::vector<SpeedSample> SpeedProbe::stop() {
  end_child();
  return std::move(samples_);
}

SpeedScale::SpeedScale(std::vector<SpeedSample> samples)
    : samples_(std::move(samples)) {}

double SpeedScale::factor() const {
  const double median = median_kernel_us();
  return median > 0.0 ? std::pow(kReferenceKernelUs / median, kSensitivity)
                      : 1.0;
}

double SpeedScale::median_kernel_us() const {
  if (samples_.empty()) {
    return 0.0;
  }
  std::vector<double> kernel_us;
  for (const SpeedSample& s : samples_) {
    kernel_us.push_back(s.kernel_us);
  }
  auto mid = kernel_us.begin() + static_cast<std::ptrdiff_t>(kernel_us.size() / 2);
  std::nth_element(kernel_us.begin(), mid, kernel_us.end());
  return *mid;
}

}  // namespace perfbench
