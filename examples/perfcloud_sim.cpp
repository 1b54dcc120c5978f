// perfcloud_sim — scenario-driven command-line front end to the simulator.
//
// Compose a cluster, a workload, antagonists, and a mitigation scheme from
// the command line; get job completion times, deviation-signal stats, and
// (optionally) a trace for plotting: `--csv PATH` streams every host's
// deviation signals to PATH and the cap, identification and migration events
// to PATH with its extension replaced by .jsonl.
//
// Examples:
//   perfcloud_sim                                   # defaults: quickstart-ish
//   perfcloud_sim --benchmark logreg --size 30 --stream 1 --scheme perfcloud
//   perfcloud_sim --hosts 4 --workers 24 --fio 2 --scheme dolly-4 --runs 5
//   perfcloud_sim --benchmark terasort --fio 1 --scheme perfcloud
//                 --csv /tmp/trace.csv --seed 7
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <string>

#include "baselines/dolly.hpp"
#include "baselines/late.hpp"
#include "baselines/scheme.hpp"
#include "exp/cluster.hpp"
#include "exp/event_sink.hpp"
#include "exp/report.hpp"
#include "exp/summary.hpp"
#include "sim/stats.hpp"
#include "workloads/benchmarks.hpp"

using namespace perfcloud;

namespace {

struct Options {
  int hosts = 1;
  int workers = 10;
  std::string benchmark = "terasort";
  int size = 10;
  int fio = 0;
  int stream = 0;
  int oltp = 0;
  std::string scheme = "default";
  int runs = 1;
  std::uint64_t seed = 42;
  bool shm = false;
  int sockets = 1;
  std::string csv;
  double antagonist_start = 10.0;
};

[[noreturn]] void usage(const char* argv0, int exit_code) {
  std::cout
      << "usage: " << argv0 << " [options]\n\n"
      << "cluster:\n"
      << "  --hosts N            physical hosts (default 1)\n"
      << "  --workers N          worker VMs, spread over hosts (default 10)\n"
      << "  --sockets N          NUMA sockets per host (default 1)\n"
      << "  --shm                enable shared-memory shuffle between colocated workers\n"
      << "workload:\n"
      << "  --benchmark NAME     one of:";
  for (const std::string& n : wl::extended_benchmark_names()) std::cout << ' ' << n;
  std::cout
      << " (default terasort)\n"
      << "  --size N             maps / tasks-per-stage (default 10)\n"
      << "  --runs N             repeat the job N times, report stats (default 1)\n"
      << "antagonists (all start at --antagonist-start, default 10 s):\n"
      << "  --fio N              N fio random-read VMs on host-0\n"
      << "  --stream N           N 16-thread STREAM VMs on host-0\n"
      << "  --oltp N             N sysbench-oltp VMs on host-0\n"
      << "  --antagonist-start S arrival time in seconds\n"
      << "mitigation:\n"
      << "  --scheme S           default | late | dolly-2 | dolly-4 | dolly-6 | perfcloud\n"
      << "output:\n"
      << "  --seed N             RNG seed (default 42)\n"
      << "  --csv PATH           perfcloud scheme: deviation signals to PATH (CSV),\n"
      << "                       cap/identification/migration events to PATH.jsonl\n"
      << "  --help               this text\n";
  std::exit(exit_code);
}

/// The events file that accompanies a --csv trace: same path, .jsonl
/// extension.
std::string events_path(const std::string& csv) {
  return std::filesystem::path(csv).replace_extension(".jsonl").string();
}

Options parse(int argc, char** argv) {
  Options o;
  const auto need_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << argv[i] << "\n";
      usage(argv[0], 2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") usage(argv[0], 0);
    else if (arg == "--hosts") o.hosts = std::stoi(need_value(i));
    else if (arg == "--workers") o.workers = std::stoi(need_value(i));
    else if (arg == "--sockets") o.sockets = std::stoi(need_value(i));
    else if (arg == "--shm") o.shm = true;
    else if (arg == "--benchmark") o.benchmark = need_value(i);
    else if (arg == "--size") o.size = std::stoi(need_value(i));
    else if (arg == "--runs") o.runs = std::stoi(need_value(i));
    else if (arg == "--fio") o.fio = std::stoi(need_value(i));
    else if (arg == "--stream") o.stream = std::stoi(need_value(i));
    else if (arg == "--oltp") o.oltp = std::stoi(need_value(i));
    else if (arg == "--antagonist-start") o.antagonist_start = std::stod(need_value(i));
    else if (arg == "--scheme") o.scheme = need_value(i);
    else if (arg == "--seed") o.seed = std::stoull(need_value(i));
    else if (arg == "--csv") {
      o.csv = need_value(i);
      if (events_path(o.csv) == o.csv) {
        std::cerr << "--csv path must not end in .jsonl (the events file takes that name)\n";
        usage(argv[0], 2);
      }
    }
    else {
      std::cerr << "unknown option " << arg << "\n";
      usage(argv[0], 2);
    }
  }
  return o;
}

double run_once(const Options& o, std::uint64_t seed, bool first_run) {
  // Declared before the cluster so it outlives the engine hooks it binds.
  std::unique_ptr<exp::EventSink> sink;
  exp::ClusterParams p;
  p.hosts = o.hosts;
  p.workers = o.workers;
  p.seed = seed;
  p.server.sockets = o.sockets;
  exp::Cluster c = exp::make_cluster(p);
  c.framework->set_shared_memory_shuffle(o.shm);

  for (int i = 0; i < o.fio; ++i) {
    exp::add_fio(c, c.hosts[0], wl::FioRandomRead::Params{.start_s = o.antagonist_start});
  }
  for (int i = 0; i < o.stream; ++i) {
    exp::add_stream(c, c.hosts[0],
                    wl::StreamBenchmark::Params{.threads = 16, .start_s = o.antagonist_start});
  }
  for (int i = 0; i < o.oltp; ++i) {
    exp::add_oltp(c, c.hosts[0], wl::SysbenchOltp::Params{.start_s = o.antagonist_start});
  }

  if (o.scheme == "late") {
    c.framework->set_speculator(std::make_unique<base::LateSpeculator>(
        base::LateSpeculator::Params{}, o.workers * 2));
  } else if (o.scheme == "perfcloud") {
    exp::enable_perfcloud(c, core::PerfCloudConfig{});
    if (first_run && !o.csv.empty()) {
      sink = std::make_unique<exp::EventSink>(exp::EventSink::Options{
          .trace_csv_path = o.csv, .events_jsonl_path = events_path(o.csv)});
      exp::attach_sink(c, *sink);
    }
  } else if (o.scheme.rfind("dolly-", 0) == 0) {
    // handled at submission below
  } else if (o.scheme != "default") {
    std::cerr << "unknown scheme " << o.scheme << "\n";
    std::exit(2);
  }

  const wl::JobSpec job = wl::make_benchmark(o.benchmark, o.size);
  double jct = 0.0;
  if (o.scheme.rfind("dolly-", 0) == 0) {
    const int clones = std::stoi(o.scheme.substr(6));
    const auto ids = c.framework->submit_cloned(job, clones);
    exp::run_until_done(c, 36000.0);
    jct = c.framework->group_jct(c.framework->find_job(ids[0])->clone_group);
  } else {
    jct = exp::run_job(c, job);
  }

  if (first_run) {
    exp::print(std::cout, exp::summarize(*c.framework));
  }
  if (sink != nullptr) {
    sink->close();
    std::cout << "trace written to " << o.csv << "\n";
  }
  return jct;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);

  std::cout << "cluster: " << o.hosts << " host(s), " << o.workers << " workers, " << o.sockets
            << " socket(s)" << (o.shm ? ", shared-memory shuffle" : "") << "\n"
            << "workload: " << o.benchmark << " size " << o.size << ", scheme " << o.scheme
            << ", antagonists: fio x" << o.fio << ", stream x" << o.stream << ", oltp x"
            << o.oltp << "\n\n";

  std::vector<double> jcts;
  for (int r = 0; r < o.runs; ++r) {
    const double jct = run_once(o, o.seed + static_cast<std::uint64_t>(r), r == 0);
    jcts.push_back(jct);
    std::cout << "run " << (r + 1) << ": JCT " << exp::fmt(jct, 1) << " s\n";
  }
  if (o.runs > 1) {
    const sim::BoxStats b = sim::box_stats_of(jcts);
    std::cout << "\nJCT over " << o.runs << " runs: median " << exp::fmt(b.median, 1) << " s, IQR ["
              << exp::fmt(b.q1, 1) << ", " << exp::fmt(b.q3, 1) << "], min/max "
              << exp::fmt(b.min, 1) << "/" << exp::fmt(b.max, 1) << " s\n";
  }
  return 0;
}
