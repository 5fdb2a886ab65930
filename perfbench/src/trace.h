// In-memory span trace for the benchmark's traced mode.
//
// A Span is an RAII scope around one public library call: it records the
// call's name, start, end, the enclosing span on the same thread (parent)
// and the request id set by the innermost RequestScope. Spans land in a
// per-thread buffer (no lock on the hot path) and are merged and written
// out once, when the run ends; the per-layer metrics are computed from the
// merged list. With tracing off a Span costs one branch.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  int64_t start_ns = 0;  ///< steady clock
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = root
  uint64_t request = 0;  ///< 0 = not part of a request
  double value = 0;      ///< optional count recorded at the boundary
};

int64_t NowNs();

class Trace {
 public:
  static void Enable(bool on);
  static bool enabled();

  /// Appends a finished span (e.g. one reported by a child process).
  static void Add(SpanRecord record);

  /// Every span recorded so far, from all threads. Call once the threads
  /// that recorded them have finished.
  static std::vector<SpanRecord> Collect();

  /// Writes Collect() as JSON lines; returns false on I/O failure.
  static bool WriteJsonl(const std::string& path);
};

class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_value(double v) { value_ = v; }
  uint64_t id() const { return id_; }

 private:
  const char* name_;
  int64_t start_ns_ = 0;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  double value_ = 0;
};

/// Tags every span opened on this thread while it is alive with `request`.
class RequestScope {
 public:
  explicit RequestScope(uint64_t request);
  ~RequestScope();
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  uint64_t saved_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
