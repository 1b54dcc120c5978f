#include "span_recorder.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> g_next_epoch{1};

/// The calling thread's buffer for the recorder with the cached epoch.
struct LocalCache {
  std::uint64_t epoch = 0;
  void* buffer = nullptr;
};
thread_local LocalCache t_cache;

}  // namespace

SpanRecorder::SpanRecorder(std::size_t capacity_per_thread)
    : capacity_(capacity_per_thread), epoch_(g_next_epoch.fetch_add(1)) {}

std::int64_t SpanRecorder::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint32_t SpanRecorder::name_id(std::string_view name) {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) return static_cast<std::uint32_t>(it - names_.begin());
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

SpanRecorder::ThreadBuffer& SpanRecorder::local() {
  if (t_cache.epoch != epoch_) {
    auto buf = std::make_unique<ThreadBuffer>();
    buf->spans = std::make_unique_for_overwrite<Span[]>(capacity_);
    std::lock_guard<std::mutex> lk(mu_);
    buf->thread = static_cast<std::uint32_t>(buffers_.size());
    t_cache = LocalCache{epoch_, buf.get()};
    buffers_.push_back(std::move(buf));
  }
  return *static_cast<ThreadBuffer*>(t_cache.buffer);
}

SpanId SpanRecorder::open(std::uint32_t name, SpanId parent) {
  ThreadBuffer& b = local();
  if (b.size == capacity_) {
    ++b.dropped;
    return 0;
  }
  const std::size_t index = b.size++;
  const SpanId id = ((static_cast<SpanId>(b.thread) << 32) | index) + 1;
  Span& s = b.spans[index];
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.thread = b.thread;
  s.end_ns = -1;
  s.start_ns = now_ns();
  return id;
}

void SpanRecorder::close(SpanId id) {
  if (id == 0) return;
  const std::int64_t end = now_ns();
  ThreadBuffer& b = local();
  const auto thread = static_cast<std::uint32_t>((id - 1) >> 32);
  const std::size_t index = (id - 1) & 0xffffffffULL;
  if (thread != b.thread || index >= b.size) {
    throw std::logic_error("SpanRecorder::close: span was opened on another thread");
  }
  b.spans[index].end_ns = end;
}

std::vector<Span> SpanRecorder::merged() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::size_t total = 0;
  for (const auto& b : buffers_) total += b->size;
  std::vector<Span> out;
  out.reserve(total);
  for (const auto& b : buffers_) out.insert(out.end(), b->spans.get(), b->spans.get() + b->size);
  return out;
}

std::uint64_t SpanRecorder::dropped() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::uint64_t n = 0;
  for (const auto& b : buffers_) n += b->dropped;
  return n;
}

void SpanRecorder::write_csv(const std::filesystem::path& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open " + path.string());
  os << "id,parent,thread,name,start_ns,end_ns\n";
  for (const Span& s : merged()) {
    os << s.id << ',' << s.parent << ',' << s.thread << ',' << names_.at(s.name) << ','
       << s.start_ns << ',' << s.end_ns << '\n';
  }
  if (!os) throw std::runtime_error("write failed: " + path.string());
}

std::int64_t covered_ns(Interval parent, std::vector<Interval> children) {
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  std::int64_t covered = 0;
  std::int64_t cursor = parent.start;  // everything before cursor is accounted for
  for (const Interval& c : children) {
    const std::int64_t lo = std::max(c.start, cursor);
    const std::int64_t hi = std::min(c.end, parent.end);
    if (hi > lo) {
      covered += hi - lo;
      cursor = hi;
    }
  }
  return covered;
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::unordered_map<SpanId, std::size_t> index_of;
  index_of.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index_of.emplace(spans[i].id, i);
  std::vector<std::vector<Interval>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0 || s.end_ns < 0) continue;
    const auto it = index_of.find(s.parent);
    if (it != index_of.end()) children[it->second].push_back({s.start_ns, s.end_ns});
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns < 0) continue;
    self[i] = s.duration_ns() - covered_ns({s.start_ns, s.end_ns}, std::move(children[i]));
  }
  return self;
}

}  // namespace perfbench
