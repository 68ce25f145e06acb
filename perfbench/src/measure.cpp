#include "measure.hpp"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "obs/mem.hpp"

namespace perfbench {

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double rss_mb() { return m3d::obs::sample_rss().rss_mb; }
double peak_rss_mb() { return m3d::obs::sample_rss().hwm_mb; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

StderrCapture::StderrCapture() {
  int fds[2] = {-1, -1};
  std::fflush(stderr);
  if (pipe(fds) != 0) throw std::runtime_error("perfbench: pipe() failed");
  saved_fd_ = dup(2);
  if (saved_fd_ < 0 || dup2(fds[1], 2) < 0) {
    close(fds[0]);
    close(fds[1]);
    if (saved_fd_ >= 0) close(saved_fd_);
    throw std::runtime_error("perfbench: cannot redirect stderr");
  }
  // fd 2 is now the only write end, so restoring it in finish() is what
  // delivers EOF to the reader.
  close(fds[1]);
  read_fd_ = fds[0];
  reader_ = std::thread([this] {
    char buf[4096];
    for (;;) {
      const ssize_t n = read(read_fd_, buf, sizeof buf);
      if (n <= 0) break;
      text_.append(buf, static_cast<size_t>(n));
    }
  });
}

StderrCapture::~StderrCapture() { finish(); }

const std::string& StderrCapture::finish() {
  if (finished_) return text_;
  finished_ = true;
  std::fflush(stderr);
  dup2(saved_fd_, 2);
  close(saved_fd_);
  reader_.join();
  close(read_fd_);
  return text_;
}

}  // namespace perfbench
