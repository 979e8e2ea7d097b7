// Benchmark-side span recorder for the traced run.
//
// Spans are recorded around calls into the library's public functions,
// from the benchmark's own code; nothing inside the library is
// instrumented. A span has a name, a start, an end and a parent (the
// span open on the same recorder when it began). Spans stay in memory
// and are written once, as Chrome trace-event JSON, when the run ends.
#pragma once

#include <chrono>
#include <string>
#include <vector>

namespace perfbench {

class Recorder {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = -1.0;  ///< < start_us while the span is open.
    int parent = -1;       ///< Index into spans(), -1 for a root.
  };

  Recorder();

  /// Opens a span as a child of the innermost open span.
  int open(std::string name);
  void close(int id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Duration minus the part covered by direct children.
  double self_us(int id) const;

  /// Chrome trace-event JSON ("X" events; args carry id, parent and
  /// self time).
  std::string chrome_json() const;

 private:
  double now_us() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Times one scope. With a recorder it also records a span; without
/// one it is a plain stopwatch, so traced and untraced runs execute the
/// same code.
class Scope {
 public:
  Scope(Recorder* rec, const char* name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Seconds since the scope opened.
  double seconds() const;

 private:
  Recorder* rec_;
  int id_ = -1;
  std::chrono::steady_clock::time_point start_;
};

/// Seconds on the steady clock since an arbitrary origin.
double now_s();

}  // namespace perfbench
