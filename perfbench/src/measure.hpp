// Measurement primitives shared by the timed and the traced runs: wall and
// process-CPU clocks, resident-memory samples, the median, and a
// stderr capture that lets the benchmark count the library's warnings from
// outside.
#pragma once

#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic clock since an arbitrary origin.
double wall_s();

/// CPU seconds consumed by the whole process (all threads).
double process_cpu_s();

/// Current and peak resident set of the process, in MB (0 without procfs).
double rss_mb();
double peak_rss_mb();

/// Median (mean of the middle two for an even count); 0 for no samples.
double median(std::vector<double> v);

/// Redirects file descriptor 2 into a pipe drained by a reader thread, for
/// the lifetime of the object, so warnings the library logs can be counted
/// without touching the library. Nothing is written to disk.
class StderrCapture {
 public:
  StderrCapture();
  ~StderrCapture();
  StderrCapture(const StderrCapture&) = delete;
  StderrCapture& operator=(const StderrCapture&) = delete;

  /// Restores stderr and returns everything written while captured.
  /// Idempotent: later calls return the same text.
  const std::string& finish();

 private:
  int saved_fd_ = -1;
  int read_fd_ = -1;
  bool finished_ = false;
  std::string text_;
  std::thread reader_;
};

}  // namespace perfbench
