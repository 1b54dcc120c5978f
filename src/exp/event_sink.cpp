#include "exp/event_sink.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "exp/report.hpp"
#include "sim/engine.hpp"

namespace perfcloud::exp {

// --- CsvGridWriter ---

CsvGridWriter::CsvGridWriter(std::ostream& os, std::vector<std::string> columns)
    : os_(os), columns_(std::move(columns)), cells_(columns_.size()) {
  os_ << "t";
  for (const std::string& c : columns_) os_ << ',' << c;
  os_ << '\n';
}

void CsvGridWriter::add(std::size_t column, double t, double value) {
  if (column >= columns_.size()) throw std::out_of_range("CsvGridWriter: unknown column");
  if (row_open_ && t > row_t_ + sim::kTimeAlignTolS) flush_row();
  if (!row_open_) {
    row_open_ = true;
    row_t_ = t;
  } else if (t < row_t_ - sim::kTimeAlignTolS) {
    throw std::logic_error("CsvGridWriter: record at t=" + std::to_string(t) +
                           " arrived after row t=" + std::to_string(row_t_) + " was opened");
  }
  cells_[column] = value;
}

void CsvGridWriter::seal(double watermark) {
  if (row_open_ && row_t_ < watermark - sim::kTimeAlignTolS) flush_row();
}

void CsvGridWriter::finish() {
  if (row_open_) flush_row();
}

void CsvGridWriter::flush_row() {
  os_ << row_t_;
  for (std::optional<double>& cell : cells_) {
    os_ << ',';
    if (cell.has_value()) os_ << *cell;
    cell.reset();
  }
  os_ << '\n';
  row_open_ = false;
  ++rows_written_;
}

// --- EventSink ---

EventSink::EventSink(Options opt) : opt_(std::move(opt)) {
  if (!opt_.trace_csv_path.empty()) {
    trace_file_.open(opt_.trace_csv_path);
    if (!trace_file_) throw std::runtime_error("cannot open " + opt_.trace_csv_path);
  }
  if (!opt_.events_jsonl_path.empty()) {
    events_file_.open(opt_.events_jsonl_path);
    if (!events_file_) throw std::runtime_error("cannot open " + opt_.events_jsonl_path);
  }
  if (opt_.async) {
    writer_ = std::thread([this] { writer_loop(); });
  }
}

EventSink::~EventSink() {
  try {
    close();
  } catch (...) {
    // Destructors must not throw; close() explicitly to observe errors.
  }
}

EventSink::SourceId EventSink::add_trace_column(std::string column) {
  if (registration_locked_) {
    throw std::logic_error("EventSink: trace columns must be registered before the first drain");
  }
  columns_.push_back(std::move(column));
  staged_samples_.emplace_back();
  return columns_.size() - 1;
}

EventSink::SourceId EventSink::add_event_source(std::string name) {
  if (registration_locked_) {
    throw std::logic_error("EventSink: event sources must be registered before the first drain");
  }
  source_names_.push_back(std::move(name));
  staged_events_.emplace_back();
  counters_.emplace_back();
  return source_names_.size() - 1;
}

void EventSink::emit_sample(SourceId column, sim::SimTime t, double value) {
  if (closed_) throw std::logic_error("EventSink: emit_sample after close");
  staged_samples_.at(column).push_back(
      Sample{t.seconds(), static_cast<std::uint32_t>(column), value});
}

void EventSink::emit_event(SourceId source, sim::SimTime t, std::string kind, double value) {
  if (closed_) throw std::logic_error("EventSink: emit_event after close");
  staged_events_.at(source).push_back(
      Event{t.seconds(), static_cast<std::uint32_t>(source), std::move(kind), value});
}

void EventSink::bump_counter(SourceId source, std::string_view key, double delta) {
  if (closed_) throw std::logic_error("EventSink: bump_counter after close");
  auto& counters = counters_.at(source);
  const auto it = counters.find(key);
  if (it != counters.end()) {
    it->second += delta;
  } else {
    counters.emplace(std::string(key), delta);
  }
}

EventSink::CounterId EventSink::add_counter(SourceId source, std::string key) {
  if (registration_locked_) {
    throw std::logic_error("EventSink: counters must be registered before the first drain");
  }
  if (source >= source_names_.size()) throw std::out_of_range("EventSink: unknown source");
  counter_slots_.push_back(CounterSlot{source, std::move(key), 0.0, false});
  return counter_slots_.size() - 1;
}

void EventSink::bump_counter_id(CounterId id, double delta) {
  if (closed_) throw std::logic_error("EventSink: bump_counter_id after close");
  CounterSlot& slot = counter_slots_.at(id);
  slot.value += delta;
  slot.touched = true;
}

namespace {

/// Merge the per-source staged buffers into `out`, ordered by (time, source
/// index), records of one source keeping their order. Concatenating the
/// buffers in index order and stable-sorting by time alone yields exactly
/// that: the stable sort preserves the concatenation order for equal
/// timestamps. O(log n) per record beats a k-way cursor scan's O(k) once
/// sources number in the dozens, and stays correct even if a producer ever
/// staged out of time order.
template <typename Record>
void merge_staged(std::vector<std::vector<Record>>& staged, std::vector<Record>& out) {
  std::size_t total = 0;
  for (const auto& buf : staged) total += buf.size();
  out.reserve(total);
  for (auto& buf : staged) {
    for (Record& r : buf) out.push_back(std::move(r));
    buf.clear();
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Record& a, const Record& b) { return a.t < b.t; });
}

}  // namespace

void EventSink::drain(sim::SimTime watermark) {
  if (closed_) return;
  registration_locked_ = true;

  Batch batch;
  batch.watermark = watermark.seconds();
  merge_staged(staged_samples_, batch.samples);
  merge_staged(staged_events_, batch.events);

  if (!batch.samples.empty() || !batch.events.empty()) {
    samples_recorded_ += batch.samples.size();
    events_recorded_ += batch.events.size();
    ++batches_drained_;
    if (opt_.async) {
      bool writer_may_wait = false;
      {
        std::lock_guard<std::mutex> lk(mu_);
        // The writer only blocks on cv_work_ when it saw an empty queue and
        // went idle; if it is mid-batch or has work queued it will re-check
        // the queue before waiting, so the futex wake can be skipped.
        writer_may_wait = queue_.empty() && !writer_busy_;
        queue_.push_back(std::move(batch));
      }
      if (writer_may_wait) cv_work_.notify_one();
    } else {
      write_batch(batch);
    }
  }
}

void EventSink::flush() {
  if (closed_) return;
  drain(sim::SimTime::infinity());
  std::exception_ptr error;
  if (opt_.async) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_idle_.wait(lk, [&] { return queue_.empty() && !writer_busy_; });
    error = writer_error_;
    writer_error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

void EventSink::close() {
  if (closed_) return;
  flush();
  if (writer_.joinable()) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      shutdown_ = true;
    }
    cv_work_.notify_all();
    writer_.join();
  }
  closed_ = true;

  // Fold touched counter slots into the named maps before the summary is
  // written: the summary's bytes depend only on (source, key, total), so a
  // key bumped by id, by name, or both prints exactly as before. Untouched
  // slots — registered but never bumped — are skipped, matching a name-keyed
  // counter that never saw a bump.
  for (const CounterSlot& slot : counter_slots_) {
    if (!slot.touched) continue;
    auto& counters = counters_[slot.source];
    const auto it = counters.find(slot.key);
    if (it != counters.end()) {
      it->second += slot.value;
    } else {
      counters.emplace(slot.key, slot.value);
    }
  }

  if (events_file_.is_open()) {
    events_file_ << "{\"summary\":{";
    bool first_source = true;
    for (std::size_t s = 0; s < source_names_.size(); ++s) {
      if (counters_[s].empty()) continue;
      if (!first_source) events_file_ << ',';
      first_source = false;
      events_file_ << '"' << json_escape(source_names_[s]) << "\":{";
      bool first_key = true;
      for (const auto& [key, value] : counters_[s]) {
        if (!first_key) events_file_ << ',';
        first_key = false;
        events_file_ << '"' << json_escape(key) << "\":" << value;
      }
      events_file_ << '}';
    }
    events_file_ << "}}\n";
    events_file_.close();
  }
  if (trace_file_.is_open()) {
    // Header-only file when no sample ever arrived.
    if (csv_ == nullptr) csv_ = std::make_unique<CsvGridWriter>(trace_file_, columns_);
    csv_->finish();
    trace_file_.close();
  }
}

void EventSink::bind(sim::Engine& engine) {
  engine.add_post_barrier_hook([this](sim::SimTime now) { drain(now); });
  engine.add_run_end_hook([this](sim::SimTime) {
    if (!closed_) flush();
  });
}

void EventSink::write_batch(const Batch& batch) {
  if (trace_file_.is_open() && (!batch.samples.empty() || csv_ != nullptr)) {
    if (csv_ == nullptr) csv_ = std::make_unique<CsvGridWriter>(trace_file_, columns_);
    for (const Sample& s : batch.samples) csv_->add(s.column, s.t, s.value);
    csv_->seal(batch.watermark);
  }
  if (events_file_.is_open()) {
    for (const Event& e : batch.events) {
      events_file_ << "{\"t\":" << e.t << ",\"source\":\""
                   << json_escape(source_names_[e.source]) << "\",\"kind\":\""
                   << json_escape(e.kind) << "\",\"value\":" << e.value << "}\n";
    }
  }
}

void EventSink::writer_loop() {
  for (;;) {
    Batch batch;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_work_.wait(lk, [&] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with nothing left to write
      batch = std::move(queue_.front());
      queue_.pop_front();
      writer_busy_ = true;
    }
    try {
      write_batch(batch);
    } catch (...) {
      std::lock_guard<std::mutex> lk(mu_);
      if (!writer_error_) writer_error_ = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      writer_busy_ = false;
      if (queue_.empty()) cv_idle_.notify_all();
    }
  }
}

}  // namespace perfcloud::exp
