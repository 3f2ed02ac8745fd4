// perfbench — the end-to-end benchmark of the mbcr pipeline.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --mbcr PATH --work DIR [--trace-out FILE]
//
// perfbench/run.py builds this package and passes --mbcr (the built
// `mbcr` CLI, the sweep's worker binary) and --work (a scratch directory
// inside the checkout). See perfbench/README.md for the workloads and the
// metrics.
//
// --trace 0 times whole operations, one at a time (closed loop). Once two
// have run it starts none that would end after --seconds, and it prints
// the end-to-end metrics as medians over the operations. --trace 1 runs
// the operation once untraced, then replays the same calls through the
// layers' public functions under spans, and prints the per-layer metrics.
// Either way the last line of stdout is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the line before it the exact simulated statistics ("sim").
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "spans.hpp"
#include "util/pool.hpp"
#include "workloads.hpp"

namespace {

namespace json = mbcr::json;
using namespace perfbench;

/// Set-up figures per run; the median is reported. Each figure is the
/// fastest of kSetupTries back-to-back set-ups, which drops the
/// scheduling hiccups of thread start. How fast a set-up of tens of
/// microseconds runs depended by up to 1.5x on the CPU it ran on and on
/// the moment, so a median taken on one CPU within a few milliseconds
/// moved between runs. The figures therefore rotate over the CPUs the
/// process may use and are spaced out over about two seconds.
constexpr int kSetups = 101;
constexpr int kSetupTries = 10;
constexpr std::chrono::milliseconds kSetupGap{20};
/// Operations a timed run makes at least: the result must repeat.
constexpr std::size_t kMinOps = 2;

struct Usage {
  double cpu_s = 0;         ///< user + sys, this process and reaped children
  double child_rss_mb = 0;  ///< peak RSS of the largest reaped child
};

Usage usage_now() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  Usage u;
  u.cpu_s = secs(self.ru_utime) + secs(self.ru_stime) +
            secs(children.ru_utime) + secs(children.ru_stime);
  u.child_rss_mb = static_cast<double>(children.ru_maxrss) * 1e-3;  // kB
  return u;
}

/// Resets this process's peak RSS to its current RSS (Linux
/// /proc/self/clear_refs), so each operation's peak is measured alone.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// This process's peak RSS since the last reset, in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) * 1e-3;
  }
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  return static_cast<double>(self.ru_maxrss) * 1e-3;
}

/// The CPUs this process may run on.
std::vector<int> allowed_cpus(cpu_set_t& allowed) {
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof allowed, &allowed);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  return cpus;
}

/// Moves the calling thread onto `cpu`, then allows it every CPU again, so
/// the threads it starts inherit the full set. The scheduler leaves the
/// thread where it is until it has a reason to move it.
void move_to_cpu(int cpu, const cpu_set_t& allowed) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(0, sizeof one, &one);
  sched_setaffinity(0, sizeof allowed, &allowed);
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

Options parse_options(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --flag value pairs, got '" + key +
                                  "'");
    }
    flags[key.substr(2)] = argv[i + 1];
  }
  const auto take = [&](const char* key, bool required) -> std::string {
    const auto it = flags.find(key);
    if (it == flags.end()) {
      if (required) {
        throw std::invalid_argument(std::string("missing --") + key);
      }
      return "";
    }
    std::string v = it->second;
    flags.erase(it);
    return v;
  };
  Options o;
  o.workload = take("workload", true);
  o.seed = std::stoull(take("seed", true));
  o.seconds = std::stod(take("seconds", true));
  const std::string trace = take("trace", true);
  if (trace != "0" && trace != "1") {
    throw std::invalid_argument("--trace must be 0 or 1");
  }
  o.trace = trace == "1";
  o.mbcr = take("mbcr", false);
  o.work = take("work", true);
  o.trace_out = take("trace-out", false);
  if (!flags.empty()) {
    throw std::invalid_argument("unknown flag --" + flags.begin()->first);
  }
  return o;
}

json::Value metric(double value, const char* unit) {
  json::Object m;
  m.emplace_back("value", value);
  m.emplace_back("unit", unit);
  return json::Value(std::move(m));
}

void print_result(const Checks& checks, json::Object metrics) {
  for (const std::string& f : checks.failures) {
    std::cerr << "perfbench: CHECK FAILED: " << f << "\n";
  }
  json::Object doc;
  doc.emplace_back("correct", checks.clean());
  doc.emplace_back("attempted", checks.attempted);
  doc.emplace_back("failed", checks.failures.size());
  doc.emplace_back("metrics", json::Value(std::move(metrics)));
  std::cout << json::Value(std::move(doc)).dump(0) << std::endl;
}

void print_sim(const SimStats& s) {
  json::Object doc;
  doc.emplace_back("sim", s.detail);
  doc.emplace_back("model",
                   "randomized-cache platform model, unvalidated against "
                   "hardware: no reference measurements, no error figure");
  std::cout << json::Value(std::move(doc)).dump(0) << std::endl;
}

int run_timed(const Options& opt, Workload& w) {
  Checks checks;
  std::vector<double> setups;
  cpu_set_t allowed;
  const std::vector<int> cpus = allowed_cpus(allowed);
  for (int i = 0; i < kSetups; ++i) {
    std::this_thread::sleep_for(kSetupGap);
    if (!cpus.empty()) move_to_cpu(cpus[i % cpus.size()], allowed);
    double fastest = w.setup();
    for (int t = 1; t < kSetupTries; ++t) {
      fastest = std::min(fastest, w.setup());
    }
    setups.push_back(fastest);
  }
  mbcr::ThreadPool::shared();  // started once, before any timed operation

  std::vector<double> wall, cpu, rss, runs_per_s, cases_per_s;
  const std::int64_t start = now_ns();
  for (std::size_t op = 0;; ++op) {
    reset_peak_rss();
    const Usage u0 = usage_now();
    const std::int64_t t0 = now_ns();
    w.execute();
    const double secs = static_cast<double>(now_ns() - t0) * 1e-9;
    const Usage u1 = usage_now();
    rss.push_back(std::max(peak_rss_mb(), u1.child_rss_mb));
    const OpSummary s = w.summarize(checks);
    wall.push_back(secs);
    cpu.push_back(u1.cpu_s - u0.cpu_s);
    runs_per_s.push_back(s.runs / secs);
    cases_per_s.push_back(s.cases / secs);
    if (op == 0) w.self_test(checks);
    std::cerr << "perfbench: " << opt.workload << " op " << op << ": " << secs
              << " s\n";
    const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;
    // Start no operation that would end past --seconds, once enough ran.
    if (op + 1 >= kMinOps && elapsed + secs > opt.seconds) break;
  }
  print_sim(w.sim());
  std::cerr << "perfbench: " << opt.workload << ": " << wall.size()
            << " operations, median " << median(wall) << " s\n";

  json::Object m;
  m.emplace_back("wall_s", metric(median(wall), "s"));
  m.emplace_back("cpu_s", metric(median(cpu), "s"));
  m.emplace_back("peak_rss_mb", metric(median(rss), "MB"));
  m.emplace_back("runs_per_s", metric(median(runs_per_s), "1/s"));
  m.emplace_back("cases_per_s", metric(median(cases_per_s), "1/s"));
  m.emplace_back("setup_s", metric(median(setups), "s"));
  print_result(checks, std::move(m));
  return 0;
}

/// The per-layer metrics, in BENCHMARK.json order. Span-derived ones are
/// filled from the recording; counts come from the workload's replay.
struct LayerMetric {
  const char* name;
  const char* unit;
};

constexpr LayerMetric kLayerMetrics[] = {
    {"platform.probe_s", "s"},
    {"platform.converge_replay_s", "s"},
    {"platform.extend_s", "s"},
    {"platform.measure_s", "s"},
    {"platform.runs", "count"},
    {"platform.entries_replayed", "count"},
    {"platform.ns_per_entry", "ns"},
    {"mbpta.converge_self_s", "s"},
    {"mbpta.refits", "count"},
    {"mbpta.evt_fit_s", "s"},
    {"mbpta.sample_mb", "MB"},
    {"tac.analyze_s", "s"},
    {"tac.required_runs", "count"},
    {"tac.capped_paths", "count"},
    {"ir.execute_s", "s"},
    {"ir.executions", "count"},
    {"pub.apply_s", "s"},
    {"cpu.trace_build_s", "s"},
    {"cpu.trace_entries", "count"},
    {"core.emit_s", "s"},
    {"core.path_wait_s", "s"},
    {"sweep.plan_s", "s"},
    {"sweep.worker_s", "s"},
    {"sweep.verify_s", "s"},
    {"sweep.merge_s", "s"},
    {"sweep.journal_mb", "MB"},
    {"sweep.attempts", "count"},
    {"fuzz.make_case_s", "s"},
    {"fuzz.oracle.replay_s", "s"},
    {"fuzz.oracle.batch_s", "s"},
    {"fuzz.oracle.campaign_s", "s"},
    {"fuzz.oracle.pub_s", "s"},
    {"fuzz.oracle.tac_s", "s"},
    {"fuzz.oracle.study_json_s", "s"},
    {"fuzz.oracle.vm_s", "s"},
    {"fuzz.oracle.verify_s", "s"},
    {"fuzz.oracle.evt_s", "s"},
    {"fuzz.features", "count"},
    {"self_frac.platform", "frac"},
    {"self_frac.mbpta", "frac"},
    {"self_frac.tac", "frac"},
    {"self_frac.ir", "frac"},
    {"self_frac.pub", "frac"},
    {"self_frac.cpu", "frac"},
    {"self_frac.core", "frac"},
    {"self_frac.sweep", "frac"},
    {"self_frac.fuzz", "frac"},
    {"trace.overhead_frac", "frac"},
    {"trace.unattributed_frac", "frac"},
    {"trace.stale", "count"},
    {"sim.r_mbpta", "count"},
    {"sim.r_tac", "count"},
    {"sim.r_total", "count"},
    {"sim.pwcet_1e-12", "cycles"},
    {"sim.sample_sum", "cycles"},
};

int run_traced(const Options& opt, Workload& w) {
  Checks checks;
  mbcr::ThreadPool::shared();
  const std::int64_t t0 = now_ns();
  w.execute();
  const double untraced_s = static_cast<double>(now_ns() - t0) * 1e-9;
  w.summarize(checks);
  w.self_test(checks);
  const SimStats sim = w.sim();
  print_sim(sim);

  const TraceOutcome outcome = w.traced(checks);
  const std::vector<SpanRecord> spans = SpanRecorder::instance().snapshot();
  const SpanTotals totals = summarize(spans);
  if (!outcome.matches) {
    std::cerr << "perfbench: traced replay does not reproduce the untraced "
                 "result; per-layer numbers are stale\n";
  }

  std::map<std::string, double> v = outcome.counts;
  for (const auto& [name, secs] : totals.total_s) v[name + "_s"] = secs;
  v["mbpta.converge_self_s"] = totals.self_s.count("mbpta.converge")
                                   ? totals.self_s.at("mbpta.converge")
                                   : 0.0;
  const double replay_s = v["platform.probe_s"] +
                          v["platform.converge_replay_s"] +
                          v["platform.extend_s"] + v["platform.measure_s"];
  const double entries = v["platform.entries_replayed"];
  v["platform.ns_per_entry"] = entries > 0 ? replay_s * 1e9 / entries : 0.0;
  for (const auto& [layer, secs] : totals.layer_self_s) {
    v["self_frac." + layer] =
        totals.all_self_s > 0 ? secs / totals.all_self_s : 0.0;
  }
  v["trace.overhead_frac"] = totals.root_s / untraced_s - 1.0;
  v["trace.unattributed_frac"] =
      totals.root_s > 0 ? totals.root_self_s / totals.root_s : 0.0;
  v["trace.stale"] = outcome.matches ? 0 : 1;
  for (const auto& [name, value] : sim.totals) v[name] = value;

  std::cerr << "perfbench: " << opt.workload << " untraced " << untraced_s
            << " s, traced " << totals.root_s << " s; self-time shares:";
  for (const auto& [layer, secs] : totals.layer_self_s) {
    std::cerr << " " << layer << "=" << secs / totals.all_self_s;
  }
  std::cerr << "\n";
  if (!opt.trace_out.empty()) {
    std::ofstream out(opt.trace_out);
    chrome_trace(spans).write(out, 0);
    out << "\n";
    if (!out) std::cerr << "perfbench: cannot write " << opt.trace_out << "\n";
  }

  json::Object m;
  for (const LayerMetric& lm : kLayerMetrics) {
    m.emplace_back(lm.name, metric(v.count(lm.name) ? v[lm.name] : 0.0,
                                   lm.unit));
  }
  print_result(checks, std::move(m));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse_options(argc, argv);
    const std::unique_ptr<Workload> w = make_workload(opt);
    return opt.trace ? run_traced(opt, *w) : run_timed(opt, *w);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
