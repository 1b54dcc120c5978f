#include "scenario.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "cloud/placement.hpp"
#include "sim/alloc_gauge.hpp"
#include "sim/time_series.hpp"
#include "stats.hpp"
#include "workloads/antagonists.hpp"
#include "workloads/benchmarks.hpp"

namespace perfbench {

namespace pc = perfcloud;
using pc::sim::SimTime;

// ---------------------------------------------------------------- workloads

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> kAll = {
      {"busy_mix", Kind::kBusyMix, 1},
      {"busy_mix_s4", Kind::kBusyMix, 4},
      {"fleet_chaos", Kind::kFleetChaos, 1},
  };
  return kAll;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

namespace {

template <typename T>
void shuffle(std::vector<T>& xs, pc::sim::Rng& rng) {
  for (std::size_t i = xs.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(xs[i - 1], xs[j]);
  }
}

/// `n` job specs, exactly `small_share` of them small. Sizes are stratified
/// (small ones cycle through [2, 9], large ones evenly spaced over
/// [10, large_max]) and names cycle through `names`, so every seed offers the
/// same total work; the seed decides which job gets which size and the
/// order the clients see them in.
std::vector<pc::wl::JobSpec> job_mix(int n, double small_share, int large_max,
                                     const std::vector<std::string>& names, pc::sim::Rng& rng) {
  const int n_small = static_cast<int>(std::lround(n * small_share));
  const int n_large = n - n_small;
  std::vector<int> sizes;
  for (int i = 0; i < n_small; ++i) sizes.push_back(2 + i % 8);
  for (int i = 0; i < n_large; ++i) {
    const double f = n_large > 1 ? static_cast<double>(i) / (n_large - 1) : 0.0;
    sizes.push_back(10 + static_cast<int>(std::lround(f * (large_max - 10))));
  }
  shuffle(sizes, rng);
  std::vector<pc::wl::JobSpec> jobs;
  for (int i = 0; i < n; ++i) {
    jobs.push_back(pc::wl::make_benchmark(names[static_cast<std::size_t>(i) % names.size()],
                                          sizes[static_cast<std::size_t>(i)]));
  }
  return jobs;
}

/// Deal `jobs` (shuffled) round-robin onto `clients` closed-loop clients.
std::vector<std::vector<pc::wl::JobSpec>> deal(std::vector<pc::wl::JobSpec> jobs, int clients,
                                               pc::sim::Rng& rng) {
  shuffle(jobs, rng);
  std::vector<std::vector<pc::wl::JobSpec>> out(static_cast<std::size_t>(clients));
  for (std::size_t i = 0; i < jobs.size(); ++i) out[i % out.size()].push_back(jobs[i]);
  return out;
}

const std::vector<std::string> kMapReduce = {"terasort", "wordcount", "inverted-index"};
const std::vector<std::string> kSpark = {"pagerank", "logreg", "svm"};

/// Fig 11 shape: 150 spread workers on 15 hosts, 40 fio/STREAM episodes on
/// random hosts, PerfCloud at the paper's configuration.
void busy_mix_inputs(Inputs& in, pc::sim::Rng& rng) {
  in.params.hosts = 15;
  in.params.workers = 150;
  in.params.tick_dt = 0.25;
  in.cfg.monitor_series_capacity = in.cfg.correlation_window;

  std::vector<pc::wl::JobSpec> jobs = job_mix(480, 0.8, 50, kMapReduce, rng);
  for (pc::wl::JobSpec& j : job_mix(480, 0.8, 50, kSpark, rng)) jobs.push_back(std::move(j));
  in.clients = deal(std::move(jobs), 24, rng);

  pc::sim::Rng placement = rng.split(0x9fac);
  for (int i = 0; i < 40; ++i) {
    TenantSpec t;
    t.tool = i % 2 == 0 ? TenantSpec::Tool::kFio : TenantSpec::Tool::kStream;
    t.host = static_cast<std::size_t>(placement.uniform_int(0, in.params.hosts - 1));
    t.start_s = rng.uniform(0.0, 1200.0);
    t.duration_s = rng.uniform(240.0, 600.0);
    t.threads = t.tool == TenantSpec::Tool::kStream ? 16 : 0;
    in.tenants.push_back(t);
  }
  in.time_limit_s = 20000.0;
}

/// A sparse fleet: 384 hosts, the workers packed onto the first six, every
/// other host idle until the migration policy or a crash re-placement
/// lands something there. The hot hosts carry episodes of duty-cycled fio
/// (four distinct periods) and STREAM pairs, one constant-rate dd and four
/// innocent OLTP bystanders, under a five-fault plan, with PerfCloud
/// sampling every second and every record streamed through an EventSink.
void fleet_chaos_inputs(Inputs& in, pc::sim::Rng& rng) {
  constexpr std::size_t kHot = 6;
  in.params.hosts = 384;
  in.params.workers = 72;
  in.params.vm_vcpus = 4;
  in.params.placement = pc::exp::Placement::kPacked;
  in.params.tick_dt = 0.25;
  in.params.migration = pc::cloud::MigrationModel{.bandwidth_bps = 1.0e9, .downtime_s = 0.5};
  in.params.policy = pc::policy::PolicyParams{};
  in.cfg.sample_interval_s = 1.0;
  in.cfg.monitor_series_capacity = in.cfg.correlation_window;

  std::vector<pc::wl::JobSpec> jobs = job_mix(288, 0.8, 24, kMapReduce, rng);
  for (pc::wl::JobSpec& j : job_mix(288, 0.8, 24, kSpark, rng)) jobs.push_back(std::move(j));
  in.clients = deal(std::move(jobs), 16, rng);

  using Tool = TenantSpec::Tool;
  const double fio_periods[] = {23.0, 31.0, 43.0, 59.0};
  for (std::size_t i = 0; i < 28; ++i) {
    in.tenants.push_back({.tool = Tool::kFio,
                          .host = i % kHot,
                          .start_s = rng.uniform(20.0, 1500.0),
                          .duration_s = rng.uniform(150.0, 300.0),
                          .duty_period_s = fio_periods[i % 4]});
  }
  for (std::size_t g = 0; g < 8; ++g) {
    const double start = rng.uniform(50.0, 1500.0);
    const double duration = rng.uniform(150.0, 300.0);
    for (int k = 0; k < 2; ++k) {
      in.tenants.push_back({.tool = Tool::kStream,
                            .host = (2 * g + 1) % kHot,
                            .start_s = start,
                            .duration_s = duration,
                            .threads = 8});
    }
  }
  in.tenants.push_back({.tool = Tool::kDd, .host = 0, .start_s = rng.uniform(30.0, 90.0)});
  for (std::size_t host = 1; host <= 4; ++host) {
    in.tenants.push_back(
        {.tool = Tool::kOltp, .host = host, .start_s = rng.uniform(0.0, 60.0), .antagonist = false});
  }

  pc::faults::FaultPlan plan(rng.split(0xfa17).uniform_int(1, 1 << 30));
  plan.monitor_blackout("host-0", rng.uniform(150.0, 250.0), 60.0)
      .cap_command_loss("host-1", rng.uniform(100.0, 200.0), 300.0, 0.5)
      .disk_degrade("host-3", rng.uniform(200.0, 300.0), 150.0, 0.5)
      .host_crash("host-2", rng.uniform(300.0, 400.0), 200.0);
  in.faults = plan;
  in.stall_host = 4;
  in.stall_at_s = rng.uniform(250.0, 350.0);
  in.stall_for_s = 40.0;
  in.sink = true;
  in.time_limit_s = 20000.0;
}

}  // namespace

Inputs make_inputs(const WorkloadSpec& w, std::uint64_t seed) {
  Inputs in;
  pc::sim::Rng rng(seed ^ 0x5eed0bec4b3e7c11ULL);
  in.params.seed = rng.split(1).uniform_int(1, std::int64_t{1} << 40);
  in.params.shards = w.shards;
  in.params.sched_period = 1.0;
  if (w.kind == Kind::kBusyMix) {
    busy_mix_inputs(in, rng);
  } else {
    fleet_chaos_inputs(in, rng);
  }
  for (std::size_t c = 0; c < in.clients.size(); ++c) in.client_phase_s.push_back(rng.uniform());
  return in;
}

std::size_t job_count(const Inputs& in) {
  std::size_t n = 0;
  for (const auto& q : in.clients) n += q.size();
  return n;
}

// ------------------------------------------------------------------ results

std::uint64_t RunResult::fingerprint() const {
  Fingerprint fp;
  for (const double j : jcts) fp.add(j);
  fp.add(efficiency);
  fp.add(final_time_s);
  return fp.value();
}

LayerTrace::LayerTrace(std::size_t hosts)
    : rec(std::size_t{1} << 21),
      n_run(rec.name_id("sim.run")),
      n_tick_sweep(rec.name_id("virt.tick.sweep")),
      n_tick(rec.name_id("virt.tick")),
      n_poll(rec.name_id("workloads.poll")),
      n_clients(rec.name_id("bench.clients")),
      n_core_sweep(rec.name_id("core.sweep")),
      n_escalation(rec.name_id("core.escalation")),
      n_policy(rec.name_id("policy.barrier")),
      n_drain(rec.name_id("exp.sink.drain")),
      n_close(rec.name_id("exp.sink.close")),
      quiescent_ticks(hosts, 0) {}

// ------------------------------------------------------------------ clients

/// Closed-loop clients: each keeps one job in flight and submits its next
/// one at its first check after the previous finished.
struct Scenario::Clients {
  explicit Clients(const std::vector<std::vector<pc::wl::JobSpec>>& q)
      : queues(q), next(q.size(), 0), current(q.size(), -1) {
    for (const auto& c : q) remaining += c.size();
  }

  void tick(std::size_t c, pc::wl::ScaleOutFramework& fw) {
    if (current[c] >= 0 && !fw.find_job(current[c])->finished()) return;
    current[c] = -1;
    if (next[c] == queues[c].size()) return;
    current[c] = fw.submit(queues[c][next[c]++]);
    submitted.push_back(current[c]);
    --remaining;
  }

  const std::vector<std::vector<pc::wl::JobSpec>>& queues;
  std::vector<std::size_t> next;
  std::vector<pc::wl::JobId> current;
  std::vector<pc::wl::JobId> submitted;
  std::size_t remaining = 0;
};

// ----------------------------------------------------------------- scenario

namespace {

std::uint64_t allocs_now() { return pc::sim::alloc_gauge_read().allocs; }

int boot_tenant(pc::exp::Cluster& c, const TenantSpec& t) {
  namespace wl = pc::wl;
  const std::string& host = c.hosts.at(t.host);
  switch (t.tool) {
    case TenantSpec::Tool::kFio: {
      wl::FioRandomRead::Params p{.duration_s = t.duration_s, .start_s = t.start_s};
      if (t.duty_period_s > 0.0) p.duty_period_s = t.duty_period_s;
      return pc::exp::add_fio(c, host, p);
    }
    case TenantSpec::Tool::kStream:
      return pc::exp::add_stream(c, host,
                                 wl::StreamBenchmark::Params{.threads = t.threads,
                                                             .duration_s = t.duration_s,
                                                             .start_s = t.start_s});
    case TenantSpec::Tool::kDd:
      // Constant offered rate and a volume that outlasts any run.
      return pc::exp::add_dd_writer(
          c, host, wl::DdSequentialWriter::Params{.total_bytes = 4.0e12, .start_s = t.start_s});
    case TenantSpec::Tool::kOltp:
      return pc::exp::add_oltp(c, host,
                               wl::SysbenchOltp::Params{.duration_s = 1.0e9, .start_s = t.start_s});
  }
  throw std::logic_error("unknown tenant tool");
}

}  // namespace

Scenario::Scenario(const Inputs& in, LayerTrace* trace, const std::filesystem::path& out_dir)
    : in_(in), trace_(trace) {
  if (trace_ == nullptr) {
    cluster_ = pc::exp::make_cluster(in_.params);
  } else {
    build_traced_cluster();
  }
  for (const TenantSpec& t : in_.tenants) {
    const int id = boot_tenant(cluster_, t);
    tenant_ids_.push_back(id);
    if (t.antagonist) antagonist_ids_.push_back(id);
  }
  if (trace_ == nullptr) {
    pc::exp::enable_perfcloud(cluster_, in_.cfg);
  } else {
    enable_perfcloud_traced();
  }
  if (in_.sink) {
    std::filesystem::create_directories(out_dir);
    csv_path_ = out_dir / "trace.csv";
    jsonl_path_ = out_dir / "events.jsonl";
    sink_ = std::make_unique<pc::exp::EventSink>(pc::exp::EventSink::Options{
        .trace_csv_path = csv_path_.string(), .events_jsonl_path = jsonl_path_.string()});
    if (trace_ == nullptr) {
      pc::exp::attach_sink(cluster_, *sink_);
    } else {
      attach_sink_traced();
    }
  }
  if (in_.faults.has_value()) {
    pc::faults::FaultPlan plan = *in_.faults;
    const std::string& host = cluster_.hosts.at(in_.stall_host);
    for (const pc::cloud::VmRecord& r : cluster_.cloud->vms_on_host(host)) {
      if (std::find(cluster_.worker_vm_ids.begin(), cluster_.worker_vm_ids.end(), r.id) !=
          cluster_.worker_vm_ids.end()) {
        plan.vm_stall(r.id, in_.stall_at_s, in_.stall_for_s);
        break;
      }
    }
    injector_ = std::make_unique<pc::faults::FaultInjector>(*cluster_.cloud, std::move(plan));
    pc::exp::attach_faults(cluster_, *injector_, sink_.get());
  }
  clients_ = std::make_unique<Clients>(in_.clients);
  pc::wl::ScaleOutFramework* fw = cluster_.framework.get();
  Clients* clients = clients_.get();
  for (std::size_t c = 0; c < in_.clients.size(); ++c) {
    const SimTime phase(in_.client_phase_s[c]);
    if (trace_ == nullptr) {
      cluster_.engine->every(1.0, [clients, fw, c](SimTime) { clients->tick(c, *fw); }, phase);
    } else {
      LayerTrace& t = *trace_;
      cluster_.engine->every(
          1.0,
          [&t, clients, fw, c](SimTime) {
            const SpanId id = t.rec.open(t.n_clients, t.root);
            clients->tick(c, *fw);
            t.rec.close(id);
          },
          phase);
    }
  }
}

Scenario::~Scenario() = default;

void Scenario::build_traced_cluster() {
  // Mirrors exp::make_cluster step for step, except that host ticking and
  // framework polling are registered here, wrapped in spans.
  const pc::exp::ClusterParams& p = in_.params;
  if (!p.host_speed_factors.empty() || p.placement == pc::exp::Placement::kRandom) {
    throw std::logic_error("traced build supports homogeneous spread/packed clusters only");
  }
  // ScaleOutFramework::start also records the period for its failure
  // injection; the traced build polls without it, so the period must be
  // the framework's default.
  if (p.sched_period != 1.0) throw std::logic_error("traced build needs sched_period == 1");
  pc::exp::Cluster& c = cluster_;
  c.params = p;
  c.engine = std::make_unique<pc::sim::Engine>(p.seed,
                                               p.timeq.value_or(pc::sim::time_queue_from_env()));
  if (p.shards > 0) c.engine->set_shards(p.shards);
  if (p.schedule.has_value()) c.engine->set_schedule(*p.schedule);
  c.cloud = std::make_unique<pc::cloud::CloudManager>(*c.engine);
  for (int h = 0; h < p.hosts; ++h) {
    pc::hw::ServerConfig cfg = p.server;
    cfg.name = "host-" + std::to_string(h);
    c.cloud->add_host(cfg);
    c.hosts.push_back(cfg.name);
  }
  if (p.migration.enabled()) c.cloud->set_migration_model(p.migration);

  pc::virt::VmConfig shape;
  shape.vcpus = p.vm_vcpus;
  shape.priority = pc::virt::Priority::kHigh;
  std::vector<std::string> worker_hosts = c.hosts;
  if (p.worker_host_limit > 0 && static_cast<std::size_t>(p.worker_host_limit) < c.hosts.size()) {
    worker_hosts.resize(static_cast<std::size_t>(p.worker_host_limit));
  }
  if (p.placement == pc::exp::Placement::kSpread) {
    c.worker_vm_ids = pc::cloud::place_spread(*c.cloud, worker_hosts, p.workers, shape, p.app_id);
  } else {
    const int by_cores = p.server.cpu.cores / std::max(1, shape.vcpus);
    const int by_dram = static_cast<int>(p.server.dram / shape.memory);
    const int per_host = std::max(1, std::min(by_cores, by_dram));
    c.worker_vm_ids = pc::cloud::place_packed(*c.cloud, worker_hosts, p.workers, per_host, shape,
                                              p.app_id);
  }
  c.framework = std::make_unique<pc::wl::ScaleOutFramework>(*c.engine, p.app_id);
  for (const pc::cloud::VmRecord& r : c.cloud->all_vms()) {
    if (std::find(c.worker_vm_ids.begin(), c.worker_vm_ids.end(), r.id) !=
        c.worker_vm_ids.end()) {
      c.framework->add_worker(c.vm(r.id), r.host);
    }
  }

  LayerTrace& t = *trace_;
  t.shards = c.engine->shards();
  pc::sim::Engine& engine = *c.engine;
  const double dt = p.tick_dt;
  // In place of CloudManager::start_ticking: a probe periodic registered
  // just before the sweep opens the sweep span; the sweep's barrier closes
  // it. Each task wraps one Hypervisor::tick.
  engine.every(dt, [&t](SimTime) { t.tick_sweep = t.rec.open(t.n_tick_sweep, t.root); },
               SimTime(dt));
  pc::sim::ShardedPeriodic& sweep = engine.every_sharded(dt, SimTime(dt));
  sweep.set_barrier([&t](SimTime) { t.rec.close(t.tick_sweep); });
  for (std::size_t i = 0; i < c.hosts.size(); ++i) {
    pc::virt::Hypervisor* hv = &c.cloud->host(c.hosts[i]);
    sweep.add_task([&t, hv, dt, i](SimTime now) {
      // A quiescent host's tick is an O(1) early-out, cheaper than the two
      // clock reads that would time it: count it, time the rest.
      if (hv->is_quiescent(now)) {
        ++t.quiescent_ticks[i];
        hv->tick(now, dt);
        return;
      }
      const bool count = t.shards == 1;
      const pc::sim::AllocGaugeSnapshot a0 = count ? pc::sim::alloc_gauge_read()
                                                   : pc::sim::AllocGaugeSnapshot{};
      const SpanId id = t.rec.open(t.n_tick, t.tick_sweep);
      hv->tick(now, dt);
      t.rec.close(id);
      if (count) {
        const pc::sim::AllocGaugeSnapshot a1 = pc::sim::alloc_gauge_read();
        t.tick_allocs += a1.allocs - a0.allocs;
        t.tick_bytes += a1.bytes - a0.bytes;
      }
    });
  }
  // In place of ScaleOutFramework::start.
  pc::wl::ScaleOutFramework* fw = c.framework.get();
  engine.every(p.sched_period, [&t, fw](SimTime now) {
    const std::uint64_t a0 = allocs_now();
    const SpanId id = t.rec.open(t.n_poll, t.root);
    fw->poll(now);
    t.rec.close(id);
    t.poll_allocs += allocs_now() - a0;
  });
}

void Scenario::enable_perfcloud_traced() {
  // Node managers, escalations and the policy register themselves with the
  // cloud's shared host pipeline. Probes registered just before and after
  // them in the same periodic / barrier list bracket each phase.
  pc::exp::Cluster& c = cluster_;
  LayerTrace& t = *trace_;
  const double period = in_.cfg.sample_interval_s;
  c.engine->every(
      period,
      [&t](SimTime) {
        t.core_sweep = t.rec.open(t.n_core_sweep, t.root);
        t.sweep_alloc_start = allocs_now();
      },
      SimTime(period));
  c.cloud->register_host_pipeline(period, nullptr, [&t](SimTime) {
    t.rec.close(t.core_sweep);
    if (t.shards == 1) t.sweep_allocs += allocs_now() - t.sweep_alloc_start;
    t.escalation = t.rec.open(t.n_escalation, t.root);
  });
  for (const std::string& h : c.hosts) {
    auto nm = std::make_unique<pc::core::NodeManager>(*c.cloud, h, in_.cfg);
    nm->set_control_enabled(true);
    nm->start();
    c.node_managers.push_back(std::move(nm));
  }
  c.cloud->register_host_pipeline(period, nullptr, [&t](SimTime) {
    t.rec.close(t.escalation);
    t.policy = t.rec.open(t.n_policy, t.root);
  });
  if (c.params.policy.has_value()) pc::exp::enable_policy(c, *c.params.policy);
  c.cloud->register_host_pipeline(period, nullptr, [&t](SimTime) { t.rec.close(t.policy); });
}

void Scenario::attach_sink_traced() {
  pc::sim::Engine& engine = *cluster_.engine;
  LayerTrace& t = *trace_;
  engine.add_post_barrier_hook([&t](SimTime) { t.drain = t.rec.open(t.n_drain, t.root); });
  engine.add_run_end_hook([&t](SimTime) { t.run_end = t.rec.open(t.n_close, t.root); });
  pc::exp::attach_sink(cluster_, *sink_);
  engine.add_post_barrier_hook([&t](SimTime) { t.rec.close(t.drain); });
  engine.add_run_end_hook([&t](SimTime) { t.rec.close(t.run_end); });
}

void Scenario::run() {
  if (trace_ != nullptr) trace_->root = trace_->rec.open(trace_->n_run);
  const Clients& clients = *clients_;
  const pc::wl::ScaleOutFramework& fw = *cluster_.framework;
  cluster_.engine->run_while([&] { return clients.remaining > 0 || !fw.all_done(); },
                             SimTime(in_.time_limit_s));
  if (sink_ != nullptr) {
    const SpanId id = trace_ != nullptr ? trace_->rec.open(trace_->n_close, trace_->root) : 0;
    sink_->close();
    if (trace_ != nullptr) trace_->rec.close(id);
  }
  if (trace_ != nullptr) trace_->rec.close(trace_->root);
}

namespace {

/// First time at or after `since` that `s` reaches `threshold`; < 0 never.
double first_crossing(const pc::sim::TimeSeries& s, double threshold, double since) {
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s.time(i).seconds() >= since && s.value(i) >= threshold) return s.time(i).seconds();
  }
  return -1.0;
}

/// Value of the first `"key":<number>` after `from` in `text`; NaN if absent.
double json_number_after(const std::string& text, std::size_t from, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = text.find(needle, from);
  if (at == std::string::npos) return std::nan("");
  return std::strtod(text.c_str() + at + needle.size(), nullptr);
}

/// Sum of every `"key":<number>` in `text`.
double json_sum(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  double sum = 0.0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    sum += std::strtod(text.c_str() + at + needle.size(), nullptr);
  }
  return sum;
}

}  // namespace

RunResult Scenario::collect() {
  pc::exp::Cluster& c = cluster_;
  RunResult r;
  r.final_time_s = c.engine->now().seconds();
  r.efficiency = c.framework->utilization_efficiency();
  r.jobs_total = job_count(in_);
  for (const pc::wl::JobId id : clients_->submitted) {
    const pc::wl::Job* job = c.framework->find_job(id);
    const bool done = job != nullptr && job->completed();
    r.jcts.push_back(done ? job->jct() : std::numeric_limits<double>::infinity());
  }
  // Jobs a client never got to submit count as unfinished too.
  r.jcts.resize(r.jobs_total, std::numeric_limits<double>::infinity());

  r.report = pc::exp::chaos_report(c, in_.cfg, antagonist_ids_);
  r.attempts = r.report.summary.attempts_total;
  r.attempts_wasted = r.report.summary.attempts_killed;

  // Per-antagonist detection latency: from its start to the first
  // deviation-threshold crossing on the host it was booted on. The
  // distribution is heavy-tailed, so the run reports its median.
  std::vector<double> latencies;
  for (std::size_t i = 0; i < in_.tenants.size(); ++i) {
    const TenantSpec& t = in_.tenants[i];
    if (!t.antagonist || t.start_s >= r.final_time_s) continue;
    const pc::core::NodeManager& nm = c.node_manager(t.host);
    double first = first_crossing(nm.io_signal(c.params.app_id), in_.cfg.io_deviation_threshold,
                                  t.start_s);
    const double cpi = first_crossing(nm.cpi_signal(c.params.app_id),
                                      in_.cfg.cpi_deviation_threshold, t.start_s);
    if (cpi >= 0.0 && (first < 0.0 || cpi < first)) first = cpi;
    if (first < 0.0) {
      ++r.antagonists_undetected;
      continue;
    }
    latencies.push_back(first - t.start_s);
  }
  if (!latencies.empty()) r.detect_latency_s = median(latencies);

  for (const auto& nm : c.node_managers) {
    r.identifications += static_cast<long>(nm->io_first_identified().size() +
                                           nm->cpu_first_identified().size());
    r.cap_commands_dropped += nm->cap_commands_dropped();
    for (const int id : tenant_ids_) {
      r.cap_commands +=
          static_cast<long>(nm->io_cap_series(id).size() + nm->cpu_cap_series(id).size());
    }
  }
  if (injector_ != nullptr) {
    r.faults_injected = injector_->injected();
    r.faults_recovered = injector_->recovered();
  }

  if (sink_ != nullptr) {
    // Re-read what the sink wrote and hold it against the in-memory counts.
    SinkCheck& chk = r.sink;
    chk.records = sink_->samples_recorded() + sink_->events_recorded();
    chk.bytes = std::filesystem::file_size(csv_path_) + std::filesystem::file_size(jsonl_path_);
    const auto fail = [&chk](const std::string& what) {
      if (chk.ok) chk.error = what;
      chk.ok = false;
    };
    std::ifstream csv(csv_path_);
    std::string line;
    std::uint64_t cells = 0;
    std::uint64_t rows = 0;
    std::getline(csv, line);  // header
    while (std::getline(csv, line)) {
      ++rows;
      std::size_t start = line.find(',');  // skip the time column
      while (start != std::string::npos) {
        const std::size_t end = line.find(',', start + 1);
        const std::size_t len = (end == std::string::npos ? line.size() : end) - start - 1;
        if (len > 0) ++cells;
        start = end;
      }
    }
    if (cells != sink_->samples_recorded()) {
      fail("CSV holds " + std::to_string(cells) + " samples, sink recorded " +
           std::to_string(sink_->samples_recorded()));
    }
    if (rows == 0 && sink_->samples_recorded() > 0) fail("CSV has no rows");

    std::ifstream jsonl(jsonl_path_);
    std::uint64_t events = 0;
    std::string summary;
    while (std::getline(jsonl, line)) {
      if (line.rfind("{\"summary\":", 0) == 0) {
        summary = line;
      } else {
        ++events;
      }
    }
    if (events != sink_->events_recorded()) {
      fail("JSONL holds " + std::to_string(events) + " events, sink recorded " +
           std::to_string(sink_->events_recorded()));
    }
    if (summary.empty()) fail("JSONL has no summary record");
    const auto expect = [&](const std::string& source, const std::string& key, double want) {
      const std::size_t at = summary.find("\"" + source + "\":{");
      double got = at == std::string::npos ? std::nan("") : json_number_after(summary, at, key);
      if (std::isnan(got) && want == 0.0) got = 0.0;  // never-bumped counters are omitted
      if (got != want) {
        fail("summary " + source + "/" + key + " = " + std::to_string(got) + ", expected " +
             std::to_string(want));
      }
    };
    expect("cloud", "migrations", static_cast<double>(c.cloud->migrations_completed()));
    expect("cloud", "migrations_started", static_cast<double>(c.cloud->migrations_started()));
    expect("cloud", "migrations_aborted", static_cast<double>(c.cloud->migrations_aborted()));
    expect("faults", "faults_injected", r.faults_injected);
    expect("faults", "faults_recovered", r.faults_recovered);
    expect("policy", "policy_triggered", static_cast<double>(r.report.policy_triggered));
    expect("policy", "policy_migrated", static_cast<double>(r.report.policy_migrated));
    if (json_sum(summary, "cap_commands_dropped") != static_cast<double>(r.cap_commands_dropped)) {
      fail("summary cap_commands_dropped does not match the node managers");
    }
  }
  return r;
}

// ------------------------------------------------------------ layer metrics

std::map<std::string, double> layer_metrics(const LayerTrace& t, const RunResult& r) {
  const std::vector<Span> spans = t.rec.merged();
  const std::vector<std::int64_t> self = self_times_ns(spans);
  struct Agg {
    double calls = 0.0;
    double self_s = 0.0;
    std::vector<double> dur_us;
  };
  std::map<std::uint32_t, Agg> by_name;
  double wall_s = 0.0;
  double engine_self_s = 0.0;
  // Per tick sweep: its duration and the sum of its tasks.
  std::map<SpanId, std::pair<double, double>> sweeps;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns < 0) throw std::logic_error("span left open: " + t.rec.name(s.name));
    Agg& a = by_name[s.name];
    a.calls += 1.0;
    a.self_s += static_cast<double>(self[i]) * 1e-9;
    a.dur_us.push_back(static_cast<double>(s.duration_ns()) * 1e-3);
    if (s.name == t.n_run) {
      wall_s = static_cast<double>(s.duration_ns()) * 1e-9;
      engine_self_s = static_cast<double>(self[i]) * 1e-9;
    } else if (s.name == t.n_tick_sweep) {
      sweeps[s.id].first = static_cast<double>(s.duration_ns()) * 1e-9;
    } else if (s.name == t.n_tick) {
      sweeps[s.parent].second += static_cast<double>(s.duration_ns()) * 1e-9;
    }
  }
  const auto agg = [&](std::uint32_t name) -> const Agg& {
    static const Agg kNone;
    const auto it = by_name.find(name);
    return it == by_name.end() ? kNone : it->second;
  };
  // The 99th percentile when at least ten samples lie beyond it, else the
  // highest percentile that has them.
  const auto p99_us = [](const Agg& a) {
    if (a.dur_us.empty()) return 0.0;
    static constexpr std::uint32_t kCandidates[] = {9900, 9500, 9000, 7500, 5000};
    const std::uint32_t p = highest_supported_percentile(a.dur_us.size(), kCandidates);
    return quantile(a.dur_us, (p == 0 ? 5000 : p) / 10000.0);
  };
  const auto per_call = [](double total, double calls) { return calls > 0.0 ? total / calls : 0.0; };

  std::map<std::string, double> m;
  const Agg& tick = agg(t.n_tick);
  double quiescent = 0.0;
  for (const std::uint64_t q : t.quiescent_ticks) quiescent += static_cast<double>(q);
  const bool one_shard = t.shards == 1;
  // Calls count every tick; the timed figures cover the non-quiescent ones.
  m["virt.tick.calls"] = tick.calls + quiescent;
  m["virt.tick.self_s"] = tick.self_s;
  m["virt.tick.p50_us"] = tick.dur_us.empty() ? 0.0 : median(tick.dur_us);
  m["virt.tick.p99_us"] = p99_us(tick);
  m["virt.tick.allocs_per_call"] =
      one_shard ? per_call(static_cast<double>(t.tick_allocs), tick.calls) : 0.0;
  m["virt.tick.bytes_per_call"] =
      one_shard ? per_call(static_cast<double>(t.tick_bytes), tick.calls) : 0.0;
  m["virt.tick.quiescent_frac"] = per_call(quiescent, tick.calls + quiescent);

  const Agg& poll = agg(t.n_poll);
  m["workloads.poll.calls"] = poll.calls;
  m["workloads.poll.self_s"] = poll.self_s;
  m["workloads.poll.p99_us"] = p99_us(poll);
  m["workloads.poll.allocs_per_call"] = per_call(static_cast<double>(t.poll_allocs), poll.calls);
  m["workloads.attempts"] = static_cast<double>(r.attempts);
  m["workloads.attempts_wasted"] = static_cast<double>(r.attempts_wasted);

  const Agg& sweep = agg(t.n_core_sweep);
  m["core.sweep.calls"] = sweep.calls;
  m["core.sweep.self_s"] = sweep.self_s;
  m["core.sweep.p99_us"] = p99_us(sweep);
  m["core.sweep.allocs_per_call"] =
      one_shard ? per_call(static_cast<double>(t.sweep_allocs), sweep.calls) : 0.0;
  m["core.escalation.self_s"] = agg(t.n_escalation).self_s;
  m["core.identifications"] = static_cast<double>(r.identifications);
  m["core.cap_commands"] = static_cast<double>(r.cap_commands);
  m["core.cap_commands_dropped"] = static_cast<double>(r.cap_commands_dropped);
  m["core.detect_latency_sim_s"] = r.detect_latency_s;

  m["policy.barrier.self_s"] = agg(t.n_policy).self_s;
  m["policy.triggered"] = static_cast<double>(r.report.policy_triggered);
  m["policy.migrated"] = static_cast<double>(r.report.policy_migrated);
  m["cloud.migrations_started"] = static_cast<double>(r.report.migrations_started);
  m["cloud.migrations_completed"] = static_cast<double>(r.report.migrations_completed);
  m["cloud.migrations_aborted"] = static_cast<double>(r.report.migrations_aborted);
  m["faults.injected"] = r.faults_injected;
  m["faults.recovered"] = r.faults_recovered;

  m["exp.sink.drain_s"] = agg(t.n_drain).self_s;
  m["exp.sink.close_s"] = agg(t.n_close).self_s;
  m["exp.sink.records"] = static_cast<double>(r.sink.records);
  m["exp.sink.bytes"] = static_cast<double>(r.sink.bytes);

  double task_sum = 0.0;
  double capacity = 0.0;
  double barrier_wait = 0.0;
  for (const auto& [id, sw] : sweeps) {
    task_sum += sw.second;
    capacity += t.shards * sw.first;
    barrier_wait += std::max(0.0, t.shards * sw.first - sw.second);
  }
  // Engine-thread time outside every layer span: the root's self time plus
  // the tick sweeps' own (dispatch, claim and wake-up; no task running).
  m["sim.engine.self_s"] = engine_self_s + agg(t.n_tick_sweep).self_s;
  m["sim.shard.sweeps"] = static_cast<double>(sweeps.size());
  m["sim.shard.task_sum_s"] = task_sum;
  // One shard runs its tasks inline: there is no barrier to wait at.
  m["sim.shard.barrier_wait_s"] = one_shard ? 0.0 : barrier_wait;
  m["sim.shard.efficiency"] = per_call(task_sum, capacity);
  m["trace.wall_s"] = wall_s;
  m["trace.bench_clients_s"] = agg(t.n_clients).self_s;
  return m;
}

}  // namespace perfbench
