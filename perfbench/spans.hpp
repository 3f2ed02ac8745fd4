// In-memory span recorder for the benchmark's traced run.
//
// A span is one call into a library layer, timed from outside the library:
// name, start, end, parent span and thread. Spans stay in memory while the
// traced replay runs and are written as Chrome trace_event JSON when the
// benchmark ends. A span's self time is its duration minus the part of its
// interval that its child spans cover (children may run concurrently on
// other threads, so the covered part is the union of their intervals).
//
// The layer of a span is its name up to the first '.': "platform.probe"
// belongs to "platform", "fuzz.oracle.vm" to "fuzz".
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index of the enclosing span, -1 for a root
  int thread = 0;   ///< dense id of the recording thread
};

/// Process-wide recorder. Thread-safe: concurrent paths and sweep shards
/// record into it from several threads.
class SpanRecorder {
public:
  static SpanRecorder& instance();

  /// Opens a span and returns its index. `parent < 0` means "the calling
  /// thread's innermost open span" (or none).
  int open(std::string name, int parent);
  void close(int id);

  std::vector<SpanRecord> snapshot() const;

private:
  mutable std::mutex mutex_;  // guards spans_ and threads_
  std::vector<SpanRecord> spans_;
  std::map<std::thread::id, int> threads_;
};

/// RAII span over the recorder singleton.
class Span {
public:
  explicit Span(std::string name, int parent = -1)
      : id_(SpanRecorder::instance().open(std::move(name), parent)) {}
  ~Span() { SpanRecorder::instance().close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int id() const { return id_; }

private:
  int id_;
};

/// Totals over a finished recording.
struct SpanTotals {
  std::map<std::string, double> total_s;  ///< by span name, inclusive
  std::map<std::string, double> self_s;   ///< by span name
  std::map<std::string, double> layer_self_s;
  double all_self_s = 0;  ///< sum of every span's self time
  double root_s = 0;      ///< duration of the root spans
  double root_self_s = 0; ///< root time no child span covers
};

SpanTotals summarize(const std::vector<SpanRecord>& spans);

/// Chrome trace_event document ("X" complete events, microseconds since
/// the first span), loadable in Perfetto or chrome://tracing.
mbcr::json::Value chrome_trace(const std::vector<SpanRecord>& spans);

}  // namespace perfbench
