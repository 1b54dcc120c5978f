// The benchmark's workloads: inputs generated from a seed, and one
// simulation built from them either through the simulator's own `exp::`
// builders (untraced) or rebuilt here with spans around every call into a
// layer (traced). Both builds register the same activities in the same
// order, so they must produce the same result fingerprint.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "exp/chaos.hpp"
#include "exp/cluster.hpp"
#include "exp/event_sink.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_plan.hpp"
#include "span_recorder.hpp"
#include "workloads/job.hpp"

namespace perfbench {

enum class Kind { kBusyMix, kFleetChaos };

struct WorkloadSpec {
  std::string name;
  Kind kind = Kind::kBusyMix;
  unsigned shards = 1;
};

/// The benchmark's workloads, by name.
[[nodiscard]] const std::vector<WorkloadSpec>& workloads();
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);

/// One low-priority tenant VM to boot.
struct TenantSpec {
  enum class Tool { kFio, kStream, kDd, kOltp };
  Tool tool = Tool::kFio;
  std::size_t host = 0;
  double start_s = 0.0;
  double duration_s = -1.0;  ///< < 0: runs until the simulation ends.
  double duty_period_s = 0.0;
  int threads = 0;
  /// Ground truth for identification scoring: an antagonist, not a
  /// bystander.
  bool antagonist = true;
};

/// Everything a workload run needs, generated from the seed alone.
struct Inputs {
  perfcloud::exp::ClusterParams params;
  perfcloud::core::PerfCloudConfig cfg;
  /// Closed-loop clients: each submits its next job once the previous one
  /// has finished.
  std::vector<std::vector<perfcloud::wl::JobSpec>> clients;
  /// Each client checks once a second, at its own phase in [0, 1) s.
  std::vector<double> client_phase_s;
  std::vector<TenantSpec> tenants;
  std::optional<perfcloud::faults::FaultPlan> faults;
  /// The VM-stall fault targets the first worker on this host (the id is
  /// only known once the cluster exists).
  std::size_t stall_host = 0;
  double stall_at_s = 0.0;
  double stall_for_s = 0.0;
  bool sink = false;
  double time_limit_s = 0.0;
};

[[nodiscard]] Inputs make_inputs(const WorkloadSpec& w, std::uint64_t seed);
[[nodiscard]] std::size_t job_count(const Inputs& in);

/// What the sink wrote, and whether re-reading it matched memory.
struct SinkCheck {
  std::uint64_t records = 0;  ///< Samples + events the sink recorded.
  std::uint64_t bytes = 0;    ///< Size of the CSV and JSONL files.
  bool ok = true;
  std::string error;
};

struct RunResult {
  std::vector<double> jcts;  ///< Per job in submission order; +inf if unfinished.
  double efficiency = 0.0;
  double final_time_s = 0.0;
  perfcloud::exp::ChaosReport report;
  /// Median over detected antagonists of the time from their start to the
  /// first deviation-threshold crossing on their host; < 0 when none is.
  double detect_latency_s = -1.0;
  int antagonists_undetected = 0;
  std::size_t jobs_total = 0;
  long attempts = 0;
  long attempts_wasted = 0;
  long identifications = 0;
  long cap_commands = 0;
  long cap_commands_dropped = 0;
  int faults_injected = 0;
  int faults_recovered = 0;
  SinkCheck sink;

  /// Hash of the per-job JCTs, the efficiency and the final sim time.
  [[nodiscard]] std::uint64_t fingerprint() const;
};

/// Span names, per-host probe slots and process-wide allocation deltas of
/// one traced run.
struct LayerTrace {
  explicit LayerTrace(std::size_t hosts);

  SpanRecorder rec;
  std::uint32_t n_run, n_tick_sweep, n_tick, n_poll, n_clients, n_core_sweep, n_escalation,
      n_policy, n_drain, n_close;
  // Open bracket spans, engine thread only (shard tasks read tick_sweep as
  // their parent; the pool's hand-off orders the write before the reads).
  SpanId root = 0, tick_sweep = 0, core_sweep = 0, escalation = 0, policy = 0, drain = 0,
         run_end = 0;
  unsigned shards = 1;
  // Per-host slots written by that host's tick task only.
  std::vector<std::uint64_t> quiescent_ticks;
  // Allocation-gauge deltas; counted only with one shard, where the gauge
  // sees nothing but the bracketed call.
  std::uint64_t tick_allocs = 0, tick_bytes = 0, poll_allocs = 0, sweep_allocs = 0;
  std::uint64_t sweep_alloc_start = 0;
};

/// One built simulation. Construction is the set-up the benchmark times.
class Scenario {
 public:
  /// `trace` non-null builds the traced variant; `out_dir` receives the
  /// sink's files.
  Scenario(const Inputs& in, LayerTrace* trace, const std::filesystem::path& out_dir);
  ~Scenario();

  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  /// Drive the simulation to completion (or the time limit) and close the
  /// sink. This is the part the benchmark times.
  void run();
  /// Score the finished run and re-read the sink's files.
  [[nodiscard]] RunResult collect();

 private:
  struct Clients;

  void build_traced_cluster();
  void enable_perfcloud_traced();
  void attach_sink_traced();

  const Inputs& in_;
  LayerTrace* trace_;
  std::filesystem::path csv_path_;
  std::filesystem::path jsonl_path_;
  perfcloud::exp::Cluster cluster_;
  std::unique_ptr<perfcloud::exp::EventSink> sink_;
  std::unique_ptr<perfcloud::faults::FaultInjector> injector_;
  std::unique_ptr<Clients> clients_;
  std::vector<int> antagonist_ids_;
  std::vector<int> tenant_ids_;
};

/// Per-layer metrics of a finished traced run (`wall_s`: its root span).
[[nodiscard]] std::map<std::string, double> layer_metrics(const LayerTrace& trace,
                                                          const RunResult& r);

}  // namespace perfbench
