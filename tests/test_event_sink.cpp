// EventSink: the staged, optionally-asynchronous emission subsystem. The
// load-bearing property is byte-identity — sync inline writes and the async
// writer thread must produce the same files for the same records, and those
// files must hold exactly the expected grid and event lines.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "exp/event_sink.hpp"
#include "exp/report.hpp"
#include "exp/summary.hpp"

namespace perfcloud::exp {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

// --- CsvGridWriter ---

TEST(CsvGridWriter, StreamsAlignedGrid) {
  std::ostringstream os;
  CsvGridWriter w(os, {"alpha", "beta"});
  w.add(0, 1.0, 10.0);
  w.add(0, 2.0, 20.0);
  w.add(1, 2.0, 200.0);
  w.add(1, 3.0, 300.0);
  w.finish();
  EXPECT_EQ(os.str(), "t,alpha,beta\n1,10,\n2,20,200\n3,,300\n");
  EXPECT_EQ(w.rows_written(), 3u);
}

TEST(CsvGridWriter, ToleranceCollapsesRowsAndLastRecordWins) {
  std::ostringstream os;
  CsvGridWriter w(os, {"a"});
  w.add(0, 1.0, 1.0);
  w.add(0, 1.0 + 2e-7, 2.0);  // same instant up to tolerance: one row, last wins
  w.finish();
  EXPECT_EQ(os.str(), "t,a\n1,2\n");

  // Two columns whose periodic schedules drifted apart by accumulated FP
  // error share one row per instant, not two half-empty rows.
  std::ostringstream drifted;
  CsvGridWriter d(drifted, {"alpha", "beta"});
  d.add(0, 1.0, 10.0);
  d.add(1, 1.0 + 2e-7, 100.0);
  d.add(0, 2.0, 20.0);
  d.add(1, 2.0 + 5e-7, 200.0);
  d.finish();
  EXPECT_EQ(drifted.str(), "t,alpha,beta\n1,10,100\n2,20,200\n");
}

TEST(CsvGridWriter, TimeRegressionThrows) {
  std::ostringstream os;
  CsvGridWriter w(os, {"a"});
  w.add(0, 5.0, 1.0);
  EXPECT_THROW(w.add(0, 1.0, 2.0), std::logic_error);
}

TEST(CsvGridWriter, UnknownColumnThrows) {
  std::ostringstream os;
  CsvGridWriter w(os, {"a"});
  EXPECT_THROW(w.add(1, 0.0, 0.0), std::out_of_range);
}

TEST(CsvGridWriter, SealFlushesOnlyProvenClosedRows) {
  std::ostringstream os;
  CsvGridWriter w(os, {"a"});
  w.add(0, 1.0, 1.0);
  w.seal(1.0);  // a later sweep could still fire at the watermark itself
  EXPECT_EQ(w.rows_written(), 0u);
  w.seal(2.0);  // now the row is provably complete
  EXPECT_EQ(w.rows_written(), 1u);
  w.finish();
  EXPECT_EQ(w.rows_written(), 1u);  // finish is idempotent, no empty extra row
}

// --- EventSink ---

/// Drive one sink through a deterministic record stream with interleaved
/// drains, the way the engine's post-barrier hook does.
void emit_workload(EventSink& sink) {
  const auto io = sink.add_trace_column("h0/io_dev");
  const auto cpi = sink.add_trace_column("h0/cpi_dev");
  const auto cloud = sink.add_event_source("cloud");
  const auto node = sink.add_event_source("host-0");
  for (int i = 0; i < 200; ++i) {
    const sim::SimTime t(i * 0.1);
    sink.emit_sample(io, t, 1.5 * i);
    if (i % 3 == 0) sink.emit_sample(cpi, t, 0.25 * i);
    if (i % 7 == 0) sink.emit_event(cloud, t, "migrate vm=" + std::to_string(i), 1.0);
    if (i % 11 == 0) sink.emit_event(node, t, "io_cap vm=3", 1.0e6 / (i + 1));
    sink.bump_counter(node, "control_intervals");
    if (i % 10 == 0) sink.drain(t);
  }
  sink.bump_counter(cloud, "migrations", 29.0);
  sink.close();
}

TEST(EventSink, SyncAndAsyncProduceByteIdenticalFiles) {
  const std::string sync_csv = "/tmp/perfcloud_sink_sync.csv";
  const std::string sync_jsonl = "/tmp/perfcloud_sink_sync.jsonl";
  const std::string async_csv = "/tmp/perfcloud_sink_async.csv";
  const std::string async_jsonl = "/tmp/perfcloud_sink_async.jsonl";
  {
    EventSink sink({.trace_csv_path = sync_csv, .events_jsonl_path = sync_jsonl, .async = false});
    emit_workload(sink);
    EXPECT_FALSE(sink.async());
    EXPECT_EQ(sink.samples_recorded(), 200u + 67u);
    EXPECT_GT(sink.batches_drained(), 0u);
  }
  {
    EventSink sink(
        {.trace_csv_path = async_csv, .events_jsonl_path = async_jsonl, .async = true});
    emit_workload(sink);
    EXPECT_TRUE(sink.async());
  }
  const std::string want_csv = slurp(sync_csv);
  const std::string want_jsonl = slurp(sync_jsonl);
  EXPECT_FALSE(want_csv.empty());
  EXPECT_FALSE(want_jsonl.empty());
  EXPECT_EQ(slurp(async_csv), want_csv);
  EXPECT_EQ(slurp(async_jsonl), want_jsonl);
}

TEST(EventSink, MatchesTraceRecorderBytesForIdenticalSamples) {
  // A gappy two-column sample set streamed through the async writer with
  // interleaved drains gives exactly the aligned grid: one row per instant,
  // an empty cell where a column has no sample.
  const std::string path = "/tmp/perfcloud_sink_streamed.csv";
  {
    EventSink sink({.trace_csv_path = path, .async = true});
    const auto left = sink.add_trace_column("left");
    const auto right = sink.add_trace_column("right");
    for (int i = 0; i < 50; ++i) {
      const sim::SimTime t(i * 2.0);
      sink.emit_sample(left, t, 3.0 * i);
      if (i % 4 != 0) sink.emit_sample(right, t, 100.0 - i);
      if (i % 5 == 0) sink.drain(t);
    }
    sink.close();
  }
  const std::string want =
      "t,left,right\n"
      "0,0,\n2,3,99\n4,6,98\n6,9,97\n8,12,\n"
      "10,15,95\n12,18,94\n14,21,93\n16,24,\n18,27,91\n"
      "20,30,90\n22,33,89\n24,36,\n26,39,87\n28,42,86\n"
      "30,45,85\n32,48,\n34,51,83\n36,54,82\n38,57,81\n"
      "40,60,\n42,63,79\n44,66,78\n46,69,77\n48,72,\n"
      "50,75,75\n52,78,74\n54,81,73\n56,84,\n58,87,71\n"
      "60,90,70\n62,93,69\n64,96,\n66,99,67\n68,102,66\n"
      "70,105,65\n72,108,\n74,111,63\n76,114,62\n78,117,61\n"
      "80,120,\n82,123,59\n84,126,58\n86,129,57\n88,132,\n"
      "90,135,55\n92,138,54\n94,141,53\n96,144,\n98,147,51\n";
  EXPECT_EQ(slurp(path), want);
}

TEST(EventSink, WritesEventsAndSummaryJsonl) {
  const std::string path = "/tmp/perfcloud_sink_events.jsonl";
  {
    EventSink sink({.events_jsonl_path = path, .async = false});
    const auto src = sink.add_event_source("cloud");
    sink.emit_event(src, sim::SimTime(1.5), "migrate vm=7 dst=host-1", 1.0);
    sink.bump_counter(src, "migrations");
    sink.bump_counter(src, "migrations");
    sink.drain(sim::SimTime(2.0));
    sink.close();
  }
  std::ifstream f(path);
  std::string line;
  ASSERT_TRUE(std::getline(f, line));
  EXPECT_EQ(line, R"({"t":1.5,"source":"cloud","kind":"migrate vm=7 dst=host-1","value":1})");
  ASSERT_TRUE(std::getline(f, line));
  EXPECT_EQ(line, R"({"summary":{"cloud":{"migrations":2}}})");
  EXPECT_FALSE(std::getline(f, line));
}

TEST(EventSink, EmptySinkWritesHeaderOnlyCsvLikeEmptyRecorder) {
  // No sample ever arrived: the file is the header row alone.
  const std::string path = "/tmp/perfcloud_sink_empty.csv";
  {
    EventSink sink({.trace_csv_path = path, .async = true});
    sink.add_trace_column("only");
    sink.close();
  }
  EXPECT_EQ(slurp(path), "t,only\n");
}

TEST(EventSink, RegistrationAfterFirstDrainThrows) {
  EventSink sink({.async = false});
  sink.add_trace_column("a");
  sink.drain(sim::SimTime(0.0));
  EXPECT_THROW(sink.add_trace_column("b"), std::logic_error);
  EXPECT_THROW(sink.add_event_source("s"), std::logic_error);
}

TEST(EventSink, EmitAfterCloseThrows) {
  EventSink sink({.async = false});
  const auto col = sink.add_trace_column("a");
  const auto src = sink.add_event_source("s");
  sink.close();
  EXPECT_THROW(sink.emit_sample(col, sim::SimTime(0.0), 0.0), std::logic_error);
  EXPECT_THROW(sink.emit_event(src, sim::SimTime(0.0), "x", 0.0), std::logic_error);
  EXPECT_THROW(sink.bump_counter(src, "k"), std::logic_error);
}

TEST(EventSink, BadPathThrows) {
  EXPECT_THROW(EventSink({.trace_csv_path = "/nonexistent-dir/x.csv"}), std::runtime_error);
}

// --- Trace recording ---
// The cases exp::TraceRecorder was held to, now asserted on EventSink, which
// writes `perfcloud_sim --csv` traces. Each column's samples are emitted as
// a whole series before the next column's, as the recorder took them, so the
// sink's drain has to merge the columns into time order.

TEST(TraceRecorder, WritesAlignedCsv) {
  const std::string path = "/tmp/perfcloud_trace_test.csv";
  {
    EventSink sink({.trace_csv_path = path, .async = false});
    const auto alpha = sink.add_trace_column("alpha");
    const auto beta = sink.add_trace_column("beta");
    sink.emit_sample(alpha, sim::SimTime(1.0), 10.0);
    sink.emit_sample(alpha, sim::SimTime(2.0), 20.0);
    sink.emit_sample(beta, sim::SimTime(2.0), 200.0);
    sink.emit_sample(beta, sim::SimTime(3.0), 300.0);
    sink.close();
  }
  // beta missing at t=1, both present at t=2, alpha missing at t=3.
  EXPECT_EQ(slurp(path), "t,alpha,beta\n1,10,\n2,20,200\n3,,300\n");
}

TEST(TraceRecorder, NearDuplicateTimestampsCollapseToOneRow) {
  // Two columns sampled at "the same" instant but drifted apart by
  // accumulated FP error in their periodic schedules: they must land in ONE
  // grid row, not two rows with spuriously empty cells.
  const std::string path = "/tmp/perfcloud_trace_neardup.csv";
  {
    EventSink sink({.trace_csv_path = path, .async = true});
    const auto alpha = sink.add_trace_column("alpha");
    const auto beta = sink.add_trace_column("beta");
    sink.emit_sample(alpha, sim::SimTime(1.0), 10.0);
    sink.emit_sample(alpha, sim::SimTime(2.0), 20.0);
    sink.emit_sample(beta, sim::SimTime(1.0 + 2e-7), 100.0);
    sink.emit_sample(beta, sim::SimTime(2.0 + 5e-7), 200.0);
    sink.close();
  }
  EXPECT_EQ(slurp(path), "t,alpha,beta\n1,10,100\n2,20,200\n");
}

TEST(TraceRecorder, WithinToleranceDuplicateInOneSeriesLastWins) {
  const std::string path = "/tmp/perfcloud_trace_dupcol.csv";
  {
    EventSink sink({.trace_csv_path = path, .async = false});
    const auto alpha = sink.add_trace_column("alpha");
    sink.emit_sample(alpha, sim::SimTime(1.0), 5.0);
    sink.emit_sample(alpha, sim::SimTime(1.0 + 2e-7), 7.0);
    sink.close();
  }
  EXPECT_EQ(slurp(path), "t,alpha\n1,7\n");
}

TEST(TraceRecorder, EmptyRecorderWritesHeaderOnly) {
  // No column registered and no sample emitted: the time column alone.
  const std::string path = "/tmp/perfcloud_trace_empty.csv";
  {
    EventSink sink({.trace_csv_path = path, .async = false});
    sink.close();
  }
  EXPECT_EQ(slurp(path), "t\n");
}

TEST(TraceRecorder, BadPathThrows) {
  // Configured as `--csv` configures it: the trace and its .jsonl events file
  // side by side in a directory that does not exist.
  EXPECT_THROW(EventSink({.trace_csv_path = "/nonexistent-dir/x.csv",
                          .events_jsonl_path = "/nonexistent-dir/x.jsonl",
                          .async = false}),
               std::runtime_error);
}

TEST(EventSink, SummaryRecordRoundTripsRunSummary) {
  const std::string path = "/tmp/perfcloud_sink_summary.jsonl";
  RunSummary s;
  s.jobs_submitted = 5;
  s.jobs_completed = 4;
  s.mean_jct = 123.5;
  s.attempts_total = 40;
  {
    EventSink sink({.events_jsonl_path = path, .async = false});
    const auto src = sink.add_event_source("run");
    record(sink, src, s);
    sink.close();
  }
  const std::string got = slurp(path);
  EXPECT_NE(got.find("\"jobs_submitted\":5"), std::string::npos);
  EXPECT_NE(got.find("\"jobs_completed\":4"), std::string::npos);
  EXPECT_NE(got.find("\"mean_jct_s\":123.5"), std::string::npos);
  EXPECT_NE(got.find("\"attempts_total\":40"), std::string::npos);
}

TEST(JsonEscape, EscapesControlAndStructuralCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("x\ny"), "x\\ny");
  EXPECT_EQ(json_escape(std::string("\x01", 1)), "\\u0001");
}

}  // namespace
}  // namespace perfcloud::exp
