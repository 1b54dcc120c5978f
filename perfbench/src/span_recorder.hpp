// Span recorder for the benchmark's traced run.
//
// Spans are recorded from outside the simulator, around the calls the
// benchmark makes into each layer. Each thread that records gets its own
// fixed-capacity buffer (allocated once, at its first span), so recording
// takes no lock and allocates nothing; the buffers are merged when the run
// ends. A span carries a name, a start, an end and the id of the span that
// caused it — possibly on another thread (a shard task's parent is the
// sweep the engine thread opened).
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// (thread slot << 32 | index in that thread's buffer) + 1; 0 means "none".
using SpanId = std::uint64_t;

/// One recorded span. Trivially constructible, so a thread's buffer costs
/// memory only as spans are written into it.
struct Span {
  SpanId id;
  SpanId parent;
  std::int64_t start_ns;
  std::int64_t end_ns;  ///< -1 while open.
  std::uint32_t name;
  std::uint32_t thread;
  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

class SpanRecorder {
 public:
  /// `capacity_per_thread` spans fit in each thread's buffer; further spans
  /// are counted as dropped (open returns 0, close(0) is a no-op).
  explicit SpanRecorder(std::size_t capacity_per_thread);

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Register a span name (setup, one thread). Returns its id.
  std::uint32_t name_id(std::string_view name);
  [[nodiscard]] const std::string& name(std::uint32_t id) const { return names_.at(id); }

  /// Open a span on the calling thread, stamped now.
  SpanId open(std::uint32_t name, SpanId parent = 0);
  /// Stamp the end of a span. Must run on the thread that opened it.
  void close(SpanId id);

  /// Every recorded span of every thread, ordered by thread then start.
  /// Call only once the recording threads are quiescent (after the run).
  [[nodiscard]] std::vector<Span> merged() const;
  [[nodiscard]] std::uint64_t dropped() const;

  /// Write merged() as CSV: id,parent,thread,name,start_ns,end_ns.
  void write_csv(const std::filesystem::path& path) const;

  [[nodiscard]] static std::int64_t now_ns();

 private:
  struct ThreadBuffer {
    std::unique_ptr<Span[]> spans;  ///< Uninitialized beyond `size`.
    std::size_t size = 0;
    std::uint64_t dropped = 0;
    std::uint32_t thread = 0;
  };
  ThreadBuffer& local();

  const std::size_t capacity_;
  const std::uint64_t epoch_;  ///< Distinguishes recorders in thread-local caches.
  std::vector<std::string> names_;
  mutable std::mutex mu_;  ///< Guards buffers_ (registration and merge).
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// A half-open time interval [start, end) in nanoseconds.
struct Interval {
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// Length of the part of `parent` that the union of `children` covers
/// (children may overlap each other and stick out of the parent).
[[nodiscard]] std::int64_t covered_ns(Interval parent, std::vector<Interval> children);

/// Self time of every span in `spans`: its duration minus the part of that
/// interval its child spans cover. Indexed like `spans`.
[[nodiscard]] std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

}  // namespace perfbench
