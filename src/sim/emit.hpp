// Abstract emission interface for observation samples and events.
//
// The control path (node managers, cloud manager) produces trace samples,
// report events, and summary counters, but lives below the experiment layer
// that knows about files and writer threads. This interface inverts that
// dependency: producers hold a `Sink*` and emit through it; the concrete
// implementation (`exp::EventSink`) stages the records during the sharded
// phase and writes them off the barrier on a background thread.
//
// Thread-confinement contract (mirrors the shard-pool rules): every SourceId
// is owned by exactly one shard task (or by the engine thread); only the
// owner may emit through it during the sharded phase. Registration is
// engine-thread-only, during setup, before the first post-barrier drain.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "sim/types.hpp"

namespace perfcloud::sim {

class EmitSink {
 public:
  using SourceId = std::size_t;
  using CounterId = std::size_t;

  virtual ~EmitSink() = default;

  /// Register a trace column (a named sample stream destined for the CSV
  /// grid). Returns the column's id; ids order the deterministic merge.
  virtual SourceId add_trace_column(std::string column) = 0;
  /// Register an event source (a named producer of report rows / counters).
  virtual SourceId add_event_source(std::string name) = 0;

  /// Append one trace sample. Times must be non-decreasing per column.
  virtual void emit_sample(SourceId column, SimTime t, double value) = 0;
  /// Append one report row. Times must be non-decreasing per source.
  virtual void emit_event(SourceId source, SimTime t, std::string kind, double value) = 0;
  /// Add `delta` to a named summary counter of `source` (written once, at
  /// close, as the run-summary record). Takes a string_view so per-quantum
  /// bumps with literal keys construct no temporary std::string — part of
  /// the steady-state zero-allocation contract.
  virtual void bump_counter(SourceId source, std::string_view key, double delta = 1.0) = 0;

  /// Register a summary counter of `source` under `key` during setup,
  /// returning a dense id whose bumps are one array index — no string
  /// lookup on the hot path at all. A registered-but-never-bumped counter
  /// leaves no trace in the summary, exactly as if bump_counter had never
  /// seen the key; bumps by id and by name to the same key fold into one
  /// summary entry.
  virtual CounterId add_counter(SourceId source, std::string key) = 0;
  /// Add `delta` to a counter registered with add_counter.
  virtual void bump_counter_id(CounterId id, double delta = 1.0) = 0;
};

}  // namespace perfcloud::sim
