#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/study.hpp"
#include "cpu/pipeline.hpp"
#include "fuzz/coverage.hpp"
#include "fuzz/fuzz.hpp"
#include "fuzz/oracles.hpp"
#include "obs/metrics.hpp"
#include "spans.hpp"
#include "suite/malardalen.hpp"
#include "sweep/journal.hpp"
#include "util/atomic_file.hpp"
#include "util/pool.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace json = mbcr::json;
namespace core = mbcr::core;
namespace sweep = mbcr::sweep;
namespace fuzz = mbcr::fuzz;
using mbcr::CompactTrace;

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

std::uint64_t digest(const std::string& text) {
  return mbcr::util::fnv1a64(text);
}

/// Runs `check` on a tampered output: it must report a failure.
void expect_fires(const std::string& what, Checks& checks,
                  const std::function<void(Checks&)>& check) {
  Checks probe;
  check(probe);
  checks.expect(!probe.clean(), "self-test: " + what + " passed the checks");
}

/// The first call records `digest`; later calls must match it.
void check_repeat(std::uint64_t digest, std::optional<std::uint64_t>& first,
                  const std::string& what, Checks& checks) {
  if (!first) first = digest;
  check_same(digest, *first, what, checks);
}

/// A copy of `doc` whose first path has member `key` replaced.
json::Value with_first_path_member(const json::Value& doc,
                                   const std::string& key, json::Value v) {
  json::Array paths = doc.at("paths").as_array();
  paths.front().set(key, std::move(v));
  json::Value out = doc;
  out.set("paths", json::Value(std::move(paths)));
  return out;
}

// ------------------------------------------------------------------ study

/// Per-path bookkeeping of the traced replay.
struct PathStats {
  std::size_t trace_entries = 0;
  std::size_t runs = 0;
  std::size_t refits = 0;
  std::size_t sample_bytes = 0;
  bool tac_capped = false;
};

/// The pipeline of core::Analyzer::analyze_program on one (pubbed) path,
/// call for call, with a span around each layer call.
core::PathAnalysis analyze_path(const mbcr::ir::Program& program,
                                const mbcr::ir::InputVector& input,
                                const core::AnalysisConfig& cfg,
                                const mbcr::platform::Machine& machine,
                                PathStats& stats) {
  core::PathAnalysis out;
  out.program_name = program.name;
  out.input_label = input.label;

  mbcr::ir::ExecResult exec;
  {
    Span span("ir.execute");
    mbcr::ir::ExecOptions options;
    options.executor = cfg.executor;
    exec = mbcr::ir::lower_and_execute(program, input, options);
  }
  CompactTrace trace;
  {
    Span span("cpu.trace_build");
    trace = CompactTrace::from(exec.trace);
  }
  out.trace_accesses = trace.size();
  {
    Span span("platform.probe");
    mbcr::platform::CampaignConfig probe_cfg = cfg.campaign;
    probe_cfg.master_seed = mbcr::mix64(0x9b0be, cfg.campaign.master_seed);
    const std::vector<double> probe = mbcr::platform::run_campaign(
        machine, trace, cfg.baseline_probe_runs, probe_cfg);
    out.baseline_cycles = mbcr::mean(probe);
  }
  {
    Span span("tac.analyze");
    out.tac = mbcr::tac::analyze_trace(
        exec.trace, cfg.machine.il1, cfg.machine.dl1, out.baseline_cycles,
        static_cast<double>(cfg.machine.timing.mem_latency), cfg.tac,
        cfg.machine.l2);
    out.r_tac = out.tac.required_runs;
  }
  mbcr::platform::CampaignSampler sampler(machine, trace, cfg.campaign);
  mbcr::mbpta::ConvergenceConfig conv = cfg.convergence;
  conv.probability = cfg.pwcet_probability;
  mbcr::mbpta::ConvergenceResult convergence;
  {
    Span span("mbpta.converge");
    convergence = mbcr::mbpta::converge_stream(
        [&sampler](std::vector<double>& sample, std::size_t k) {
          Span replay("platform.converge_replay");
          sampler.append_to(sample, k);
        },
        conv);
  }
  out.r_mbpta = convergence.runs;
  out.r_total = std::max(out.r_mbpta, out.r_tac);
  if (convergence.sample.size() < out.r_total) {
    Span span("platform.extend");
    sampler.append_to(convergence.sample,
                      out.r_total - convergence.sample.size());
  }
  {
    Span span("mbpta.evt_fit");
    out.pwcet_converged_only = mbcr::mbpta::PwcetCurve(
        std::span<const double>(convergence.sample.data(), out.r_mbpta),
        conv.evt);
    out.pwcet = mbcr::mbpta::PwcetCurve(convergence.sample, conv.evt);
  }
  const mbcr::TimingParams& t = cfg.machine.timing;
  const double worst_extra =
      cfg.machine.l2.enabled ? static_cast<double>(cfg.machine.l2.latency)
                             : 0.0;
  double ceiling = 0;
  for (const CompactTrace::Entry& e : trace.entries) {
    ceiling += static_cast<double>(t.cost(e.is_instr
                                              ? mbcr::AccessKind::kIFetch
                                              : mbcr::AccessKind::kLoad,
                                          false)) +
               worst_extra;
  }
  out.pwcet.set_upper_bound(ceiling);
  out.pwcet_converged_only.set_upper_bound(ceiling);

  stats.trace_entries = trace.size();
  stats.runs = cfg.baseline_probe_runs + sampler.runs_done();
  stats.refits = convergence.estimates.size();
  stats.sample_bytes = convergence.sample.capacity() * sizeof(double);
  stats.tac_capped = out.tac.required_runs >= cfg.tac.max_runs_cap;
  return out;
}

/// `run_study` on one suite kernel in a pub_tac or multipath mode.
class StudyWorkload final : public Workload {
public:
  explicit StudyWorkload(std::map<std::string, std::string> flags)
      : flags_(std::move(flags)), spec_(core::StudySpec::from_flags(flags_)) {}

  double setup() override {
    const std::int64_t start = now_ns();
    const mbcr::ThreadPool pool;  // the campaign pool a study starts
    const core::StudySpec spec = core::StudySpec::from_flags(flags_);
    spec.validate();
    const mbcr::suite::SuiteBenchmark bench =
        mbcr::suite::find(spec.suite)->make();
    return seconds_since(start);
  }

  void execute() override {
    result_ = core::run_study(spec_);
    doc_ = result_.to_json();
    text_ = doc_.dump();
  }

  OpSummary summarize(Checks& checks) override {
    check_study_doc(doc_, checks);
    check_repeat(digest(text_), first_digest_, "study document", checks);
    const double p = spec_.config.pwcet_probability;
    json::Object detail;
    sim_.totals.clear();
    for (const core::PathAnalysis& pa : result_.paths) {
      json::Object path;
      path.emplace_back("r_mbpta", pa.r_mbpta);
      path.emplace_back("r_tac", pa.r_tac);
      path.emplace_back("r_total", pa.r_total);
      path.emplace_back("pwcet_1e-12", pa.pwcet.at(p));
      detail.emplace_back(pa.input_label, json::Value(std::move(path)));
      sim_.totals["sim.r_mbpta"] += static_cast<double>(pa.r_mbpta);
      sim_.totals["sim.r_tac"] += static_cast<double>(pa.r_tac);
      sim_.totals["sim.r_total"] += static_cast<double>(pa.r_total);
    }
    sim_.totals["sim.pwcet_1e-12"] = result_.pwcet_at(p);
    sim_.detail = json::Value(std::move(detail));
    OpSummary s;
    s.runs = static_cast<double>(result_.runs_executed);
    s.cases = static_cast<double>(result_.paths.size());
    // Hold no samples into the next operation: peak RSS is one study's.
    result_ = core::StudyResult{};
    return s;
  }

  SimStats sim() const override { return sim_; }

  void self_test(Checks& checks) override {
    const json::Value& path0 = doc_.at("paths").as_array().front();
    const double r_total = path0.at("r_total").as_number();
    const double pwcet = path0.at("pwcet").at("value").as_number();
    expect_fires("study r_total off by one", checks, [&](Checks& c) {
      check_study_doc(with_first_path_member(doc_, "r_total", r_total + 1),
                      c);
    });
    expect_fires("study pwcet above its ceiling", checks, [&](Checks& c) {
      json::Value curve = path0.at("pwcet");
      curve.set("upper_bound", pwcet * 0.5);
      check_study_doc(with_first_path_member(doc_, "pwcet", curve), c);
    });
    expect_fires("study combined pwcet above the minimum", checks,
                 [&](Checks& c) {
                   json::Value doc = doc_;
                   json::Value combined;
                   combined.set("pwcet", pwcet * 2);
                   doc.set("combined", std::move(combined));
                   check_study_doc(doc, c);
                 });
    expect_fires("study document changed", checks, [&](Checks& c) {
      check_same(digest(text_ + " "), digest(text_), "study document", c);
    });
  }

  TraceOutcome traced(Checks& /*checks*/) override {
    const core::StudySpec& spec = spec_;
    const core::AnalysisConfig& cfg = spec.config;
    TraceOutcome out;
    core::StudyResult result;
    result.spec = spec;
    std::vector<PathStats> stats;
    std::vector<double> waits;
    std::string text;
    {
      Span root("workload.study");
      const std::int64_t study_start = now_ns();
      mbcr::ir::Program program;
      std::vector<mbcr::ir::InputVector> inputs;
      {
        Span span("core.resolve");
        spec.validate();
        mbcr::suite::SuiteBenchmark bench =
            mbcr::suite::find(spec.suite)->make();
        program = std::move(bench.program);
        if (spec.inputs == core::InputSelection::kAllPaths &&
            !bench.path_inputs.empty()) {
          inputs = std::move(bench.path_inputs);
        } else {
          inputs = {std::move(bench.default_input)};
        }
      }
      const mbcr::platform::Machine machine(cfg.machine);
      std::vector<core::PathAnalysis> paths(inputs.size());
      stats.resize(inputs.size());
      waits.resize(inputs.size());
      const auto analyze = [&](const mbcr::ir::Program& pubbed,
                               std::size_t i) {
        Span path("core.path", root.id());
        waits[i] = seconds_since(study_start);
        paths[i] = analyze_path(pubbed, inputs[i], cfg, machine, stats[i]);
      };
      const auto apply_pub = [&] {
        Span span("pub.apply");
        return mbcr::pub::apply_pub(program, cfg.pub);
      };
      if (spec.mode == core::StudyMode::kMultipath) {
        // As Analyzer::analyze_pubbed_paths: PUB once, then every path
        // concurrently on the shared pool, one path per claim.
        const mbcr::ir::Program pubbed = apply_pub();
        mbcr::ThreadPool::shared().parallel_for(
            inputs.size(), 1, [&](std::size_t begin, std::size_t end) {
              for (std::size_t i = begin; i < end; ++i) analyze(pubbed, i);
            });
      } else {
        for (std::size_t i = 0; i < inputs.size(); ++i) {
          analyze(apply_pub(), i);
        }
      }
      result.program_name = paths.front().program_name;
      for (const core::PathAnalysis& pa : paths) {
        result.runs_executed += cfg.baseline_probe_runs +
                                std::max(pa.r_total, pa.pwcet.sample_size());
      }
      result.paths = std::move(paths);
      Span span("core.emit");
      text = result.to_json().dump();
    }
    out.matches = text == text_;
    for (std::size_t i = 0; i < stats.size(); ++i) {
      const PathStats& ps = stats[i];
      out.counts["platform.runs"] += static_cast<double>(ps.runs);
      out.counts["platform.entries_replayed"] +=
          static_cast<double>(ps.runs) *
          static_cast<double>(ps.trace_entries);
      out.counts["mbpta.refits"] += static_cast<double>(ps.refits);
      out.counts["mbpta.sample_mb"] +=
          static_cast<double>(ps.sample_bytes) * 1e-6;
      out.counts["tac.capped_paths"] += ps.tac_capped ? 1 : 0;
      out.counts["ir.executions"] += 1;
      out.counts["cpu.trace_entries"] +=
          static_cast<double>(ps.trace_entries);
      out.counts["core.path_wait_s"] += waits[i];
    }
    for (const core::PathAnalysis& pa : result.paths) {
      out.counts["tac.required_runs"] +=
          static_cast<double>(pa.tac.required_runs);
    }
    return out;
  }

private:
  std::map<std::string, std::string> flags_;
  core::StudySpec spec_;
  core::StudyResult result_;
  json::Value doc_;
  std::string text_;
  std::optional<std::uint64_t> first_digest_;
  SimStats sim_;
};

// ------------------------------------------------------------------ sweep

constexpr std::size_t kSweepShards = 8;
constexpr std::size_t kSweepJobs = 4;

/// `mbcr sweep --mode measure` over 4 kernels x 2 L2 policies, driven as
/// a user runs it: supervised `mbcr worker` processes, journal, merge.
class SweepWorkload final : public Workload {
public:
  explicit SweepWorkload(const Options& options)
      : seed_(options.seed),
        mbcr_(options.mbcr),
        work_(fs::absolute(options.work).string()),
        spec_(make_spec(seed_)) {
    if (mbcr_.empty() || !fs::exists(mbcr_)) {
      throw std::invalid_argument("sweep workload needs --mbcr <mbcr CLI>");
    }
    fs::create_directories(work_);
  }

  double setup() override {
    const std::int64_t start = now_ns();
    plan(make_spec(seed_));
    return seconds_since(start);
  }

  void execute() override {
    // Hold no documents of the last operation: peak RSS is one sweep's.
    merged_ = sweep::MergeOutput{};
    text_ = std::string();
    dir_ = fresh_dir("sweep");
    sweep::SupervisorConfig config;
    config.shards = kSweepShards;
    config.jobs = kSweepJobs;
    config.dir = dir_;
    config.worker_command = {mbcr_, "worker"};
    outcome_ = sweep::run_sweep(spec_, config);
    merged_ = sweep::merge_sweep(dir_);
    text_ = merged_.doc.dump();
  }

  OpSummary summarize(Checks& checks) override {
    const std::vector<core::StudySpec> points = spec_.expand();
    check_sweep(outcome_, merged_, kSweepShards, points.size(), checks);
    const json::Value* studies = merged_.doc.find("studies");
    const bool all_points = checks.expect(
        studies != nullptr && studies->as_array().size() == points.size(),
        "sweep: merged document lacks a study per point");
    if (all_points && direct_point_.empty()) {
      // One point's merged document must be byte-identical to run_study
      // on the same measure spec (checked once per run: it is pure).
      direct_point_ = core::run_study(points.front()).to_json().dump();
      check_point(direct_point_, checks);
    }
    check_repeat(digest(text_), first_digest_, "sweep document", checks);
    OpSummary s;
    json::Object detail;
    sim_.totals.clear();
    if (all_points) {
      const json::Array& docs = studies->as_array();
      for (std::size_t p = 0; p < docs.size(); ++p) {
        const json::Value& sample =
            docs[p].at("samples").as_array().front();
        double sum = 0;
        for (const json::Value& t : sample.at("times").as_array()) {
          sum += t.as_number();
        }
        json::Object point;
        point.emplace_back("runs", sample.at("runs"));
        point.emplace_back("cycles_sum", sum);
        point.emplace_back("cycles_max", sample.at("max"));
        detail.emplace_back(point_label(p), json::Value(std::move(point)));
        s.runs += docs[p].at("runs_executed").as_number();
        s.cases += 1;
        sim_.totals["sim.sample_sum"] += sum;
      }
    }
    sim_.detail = json::Value(std::move(detail));
    fs::remove_all(dir_);
    return s;
  }

  SimStats sim() const override { return sim_; }

  void self_test(Checks& checks) override {
    const std::size_t points = spec_.expand().size();
    expect_fires("sweep quarantine", checks, [&](Checks& c) {
      sweep::SweepOutcome t = outcome_;
      t.quarantined.push_back(0);
      check_sweep(t, merged_, kSweepShards, points, c);
    });
    expect_fires("sweep retry", checks, [&](Checks& c) {
      sweep::SweepOutcome t = outcome_;
      sweep::AttemptRecord failed;
      failed.failure = "tampered";
      t.attempts.push_back(failed);
      check_sweep(t, merged_, kSweepShards, points, c);
    });
    expect_fires("sweep partial merge", checks, [&](Checks& c) {
      sweep::MergeOutput t;
      t.partial = true;
      t.points = merged_.points;
      t.points_complete = merged_.points_complete - 1;
      check_sweep(outcome_, t, kSweepShards, points, c);
    });
    expect_fires("sweep point differs from run_study", checks,
                 [&](Checks& c) { check_point(direct_point_ + " ", c); });
    expect_fires("sweep document changed", checks, [&](Checks& c) {
      check_same(digest(text_ + " "), digest(text_), "sweep document", c);
    });
  }

  TraceOutcome traced(Checks& checks) override {
    TraceOutcome out;
    const std::string dir = fresh_dir("traced");
    std::vector<core::StudySpec> points;
    std::vector<std::size_t> trace_entries;
    std::string text;
    {
      Span root("workload.sweep");
      std::vector<sweep::SweepUnit> units;
      std::vector<sweep::ShardRange> ranges;
      std::string id;
      {
        Span span("sweep.plan");
        const Plan p = plan(spec_);
        sweep::ensure_journal_dirs(dir);
        sweep::write_manifest(dir, p.manifest);
        points = p.points;
        units = p.units;
        ranges = p.ranges;
        id = p.id;
      }
      trace_entries.assign(points.size(), 0);
      // kSweepJobs threads claim shards in order, as the supervisor
      // hands them to its worker processes.
      std::atomic<std::size_t> next{0};
      std::mutex error_mutex;  // guards error
      std::string error;
      const auto worker = [&] {
        try {
          for (std::size_t shard = next++; shard < kSweepShards;
               shard = next++) {
            Span span("sweep.worker", root.id());
            sweep::ShardResult result;
            result.shard = shard;
            for (std::size_t u = ranges[shard].begin; u < ranges[shard].end;
                 ++u) {
              const sweep::SweepUnit& unit = units[u];
              if (unit.runs != 0) {
                throw std::logic_error("sliced sweep units are not replayed");
              }
              result.units.push_back(unit);
              result.studies.push_back(measure_point(
                  points[unit.point], trace_entries[unit.point]));
            }
            Span journal("sweep.journal");
            sweep::write_shard_result(dir, id, result);
          }
        } catch (const std::exception& e) {
          const std::lock_guard<std::mutex> lock(error_mutex);
          error = e.what();
        }
      };
      std::vector<std::thread> threads;
      for (std::size_t j = 0; j < kSweepJobs; ++j) threads.emplace_back(worker);
      for (std::thread& t : threads) t.join();
      checks.expect(error.empty(), "traced sweep: " + error);
      {
        Span span("sweep.verify");
        std::size_t verified = 0;
        for (std::size_t shard = 0; shard < kSweepShards; ++shard) {
          verified += sweep::load_shard_result(dir, id, shard).has_value();
        }
        checks.expect(verified == kSweepShards,
                      "traced sweep: a shard result did not verify");
      }
      sweep::MergeOutput merged;
      {
        Span span("sweep.merge");
        merged = sweep::merge_sweep(dir);
      }
      Span span("core.emit");
      text = merged.doc.dump();
    }
    out.matches = text == text_;
    double journal_bytes = 0;
    for (const fs::directory_entry& e :
         fs::recursive_directory_iterator(dir)) {
      if (e.is_regular_file()) {
        journal_bytes += static_cast<double>(e.file_size());
      }
    }
    fs::remove_all(dir);
    for (std::size_t p = 0; p < points.size(); ++p) {
      const auto runs = static_cast<double>(points[p].measure_runs);
      out.counts["platform.runs"] += runs;
      out.counts["platform.entries_replayed"] +=
          runs * static_cast<double>(trace_entries[p]);
      out.counts["ir.executions"] += 1;
      out.counts["cpu.trace_entries"] += static_cast<double>(trace_entries[p]);
    }
    out.counts["sweep.journal_mb"] = journal_bytes * 1e-6;
    out.counts["sweep.attempts"] =
        static_cast<double>(outcome_.attempts.size());
    return out;
  }

private:
  struct Plan {
    std::vector<core::StudySpec> points;
    std::vector<sweep::SweepUnit> units;
    std::vector<sweep::ShardRange> ranges;
    std::string id;
    sweep::Manifest manifest;
  };

  static sweep::SweepSpec make_spec(std::uint64_t seed) {
    sweep::SweepSpec spec;
    spec.base = core::StudySpec::from_flags({{"mode", "measure"},
                                             {"l2-sets", "256"},
                                             {"runs", "40000"},
                                             {"threads", "1"},
                                             {"seed", std::to_string(seed)}});
    spec.suites = {"bs", "crc", "ns", "matmult"};
    spec.l2_policies = {"random", "lru"};
    return spec;
  }

  /// The supervisor's set-up before it writes anything: validation, unit
  /// expansion, shard plan and the write-ahead manifest's contents.
  static Plan plan(const sweep::SweepSpec& spec) {
    spec.validate();
    Plan p;
    p.points = spec.expand();
    p.units = sweep::expand_units(spec, p.points);
    p.ranges = sweep::assign_shards(p.units.size(), kSweepShards);
    p.id = spec.id();
    p.manifest.sweep_id = p.id;
    p.manifest.spec = spec.to_json();
    p.manifest.shards = kSweepShards;
    p.manifest.units = p.units.size();
    p.manifest.points = p.points.size();
    return p;
  }

  /// One measure-mode point as the worker's run_study computes it.
  static json::Value measure_point(const core::StudySpec& point,
                                   std::size_t& trace_entries) {
    mbcr::ir::Program program;
    mbcr::ir::InputVector input;
    {
      Span span("core.resolve");
      point.validate();
      mbcr::suite::SuiteBenchmark bench =
          mbcr::suite::find(point.suite)->make();
      program = std::move(bench.program);
      input = std::move(bench.default_input);
    }
    mbcr::ir::ExecResult exec;
    {
      Span span("ir.execute");
      mbcr::ir::ExecOptions options;
      options.executor = point.config.executor;
      exec = mbcr::ir::lower_and_execute(program, input, options);
    }
    CompactTrace trace;
    {
      Span span("cpu.trace_build");
      trace = CompactTrace::from(exec.trace);
    }
    trace_entries = trace.size();
    core::StudyResult result;
    result.spec = point;
    result.program_name = program.name;
    {
      Span span("platform.measure");
      const mbcr::platform::Machine machine(point.config.machine);
      result.samples.push_back(
          {input.label,
           mbcr::platform::run_campaign(machine, trace, point.measure_runs,
                                        point.config.campaign)});
    }
    result.runs_executed = point.measure_runs;
    Span span("core.emit");
    return result.to_json();
  }

  /// The merged document of point 0 must equal `direct`, the text of
  /// run_study on the same measure spec.
  void check_point(const std::string& direct, Checks& checks) const {
    const json::Value& merged = merged_.doc.at("studies").as_array().front();
    checks.expect(direct == merged.dump(),
                  "sweep: merged point differs from run_study");
  }

  std::string point_label(std::size_t p) const {
    // Expansion order: suite (outer) > l2 policy (inner).
    const std::size_t policies = spec_.l2_policies.size();
    return spec_.suites[p / policies] + "/" + spec_.l2_policies[p % policies];
  }

  std::string fresh_dir(const std::string& tag) {
    const std::string dir =
        work_ + "/" + tag + "-" + std::to_string(dir_serial_++);
    fs::remove_all(dir);
    return dir;
  }

  std::uint64_t seed_;
  std::string mbcr_;
  std::string work_;
  sweep::SweepSpec spec_;
  std::size_t dir_serial_ = 0;
  std::string dir_;
  sweep::SweepOutcome outcome_;
  sweep::MergeOutput merged_;
  std::string text_;
  std::string direct_point_;
  std::optional<std::uint64_t> first_digest_;
  SimStats sim_;
};

// ------------------------------------------------------------------- fuzz

constexpr std::size_t kFuzzSeeds = 8;
/// The fuzzer's case stream under `mbcr fuzz --rng-seed 1`: the stream
/// BENCH_fuzz.json's guided run starts from.
constexpr std::uint64_t kFuzzRngSeed = 1;
constexpr std::size_t kFuzzStreamCases = 50;
/// Cases of that stream left out: the TAC oracle alone takes 0.6-2.8 s on
/// each, the heavy tail that makes random case cost span three orders of
/// magnitude across rng seeds (see README.md).
constexpr std::size_t kFuzzHeavyCases[] = {15, 27, 40};

std::vector<std::size_t> fuzz_case_indices() {
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i < kFuzzStreamCases; ++i) {
    if (std::find(std::begin(kFuzzHeavyCases), std::end(kFuzzHeavyCases),
                  i) == std::end(kFuzzHeavyCases)) {
      indices.push_back(i);
    }
  }
  return indices;
}

/// Draws the case's platform run seeds from the workload seed; program,
/// inputs and geometry stay those of fuzz::make_case.
void reseed(fuzz::FuzzCaseData& data, std::uint64_t seed) {
  for (std::size_t s = 0; s < data.run_seeds.size(); ++s) {
    data.run_seeds[s] = mbcr::mix64(s, mbcr::mix64(data.case_seed, seed));
  }
}

/// The nine differential-fuzz oracles over fixed cases of the fuzzer's
/// own stream (fuzz::make_case), through probe_case, with coverage
/// features folded into a CoverageMap case by case as the guided fuzzer
/// does. Only the run seeds come from the workload seed: random programs
/// drawn per seed cost up to 1000x more on one seed than another.
class FuzzWorkload final : public Workload {
public:
  explicit FuzzWorkload(std::uint64_t seed)
      : seed_(seed),
        indices_(fuzz_case_indices()),
        oracles_(fuzz::select_oracles("all")) {
    // As `mbcr fuzz --bench-json` and the guided fuzzer run: armed metrics
    // give the coverage features and the replay counts.
    mbcr::obs::set_enabled(true);
  }

  double setup() override {
    const std::int64_t start = now_ns();
    const mbcr::ThreadPool pool;  // the campaign pool the oracles use
    const std::vector<const fuzz::Oracle*> oracles =
        fuzz::select_oracles("all");
    return seconds_since(start);
  }

  void execute() override {
    failures_.clear();
    coverage_ = fuzz::CoverageMap{};
    replays_ = 0;
    for (const std::size_t index : indices_) {
      last_case_ = fuzz::make_case(kFuzzRngSeed, index, kFuzzSeeds);
      reseed(last_case_, seed_);
      const mbcr::obs::CounterSnapshot before =
          mbcr::obs::snapshot_counters();
      fuzz::OracleOutcome outcome;
      try {
        const fuzz::Oracle* failed = fuzz::probe_case(
            last_case_, oracles_, false, report_, &outcome);
        if (failed != nullptr) {
          failures_.push_back(last_case_.program.name + ": oracle " +
                              failed->name + ": " + outcome.detail);
        }
      } catch (const std::exception& e) {
        failures_.push_back(last_case_.program.name + ": " + e.what());
      }
      const auto delta = mbcr::obs::snapshot_counters().delta_since(before);
      coverage_.add(fuzz::features_from_delta(delta));
      for (const auto& [name, grown] : delta) {
        // Platform replays, from the library's own replay counters.
        if (name.rfind("replay.", 0) == 0 && name.size() > 5 &&
            name.compare(name.size() - 5, 5, ".runs") == 0) {
          replays_ += static_cast<double>(grown);
        }
      }
    }
  }

  OpSummary summarize(Checks& checks) override {
    checks.expect(failures_.empty(),
                  "fuzz: " + (failures_.empty() ? "" : failures_.front()));
    check_repeat(coverage_digest(coverage_), first_digest_,
                 "fuzz coverage features", checks);
    OpSummary s;
    s.runs = replays_;
    s.cases = static_cast<double>(indices_.size());
    return s;
  }

  void self_test(Checks& checks) override {
    expect_fires("fuzz injected replay fault", checks, [&](Checks& c) {
      // The harness switch perturbs the fast replay inside the replay
      // oracle, so the case must fail.
      fuzz::FuzzReport report;
      fuzz::OracleOutcome outcome;
      c.expect(fuzz::probe_case(last_case_, oracles_, true, report,
                                &outcome) == nullptr,
               "fuzz: injected fault");
    });
    expect_fires("fuzz coverage changed", checks, [&](Checks& c) {
      check_same(*first_digest_ + 1, *first_digest_, "fuzz coverage", c);
    });
  }

  SimStats sim() const override {
    SimStats s;
    s.detail.set("cases", indices_.size());
    s.detail.set("features_discovered", coverage_.size());
    s.detail.set("replay_runs", replays_);
    return s;
  }

  TraceOutcome traced(Checks& checks) override {
    TraceOutcome out;
    std::size_t failures = 0;
    {
      Span root("workload.fuzz");
      std::vector<const fuzz::Oracle*> oracles;
      {
        Span span("fuzz.select");
        oracles = fuzz::select_oracles("all");
      }
      for (const std::size_t index : indices_) {
        fuzz::FuzzCaseData data;
        {
          Span span("fuzz.make_case");
          data = fuzz::make_case(kFuzzRngSeed, index, kFuzzSeeds);
        }
        reseed(data, seed_);
        for (const fuzz::Oracle* oracle : oracles) {
          Span span(std::string("fuzz.oracle.") + oracle->name);
          try {
            failures += oracle->run(data, false).ok ? 0 : 1;
          } catch (const std::exception&) {
            ++failures;
          }
        }
      }
    }
    checks.expect(failures == 0, "traced fuzz: oracle failures");
    out.matches = failures == 0;
    out.counts["fuzz.features"] = static_cast<double>(coverage_.size());
    return out;
  }

private:
  /// Every discovered feature with the number of cases that lit it.
  static std::uint64_t coverage_digest(const fuzz::CoverageMap& coverage) {
    std::string joined;
    for (const auto& [feature, hits] : coverage.all()) {
      joined += feature + " " + std::to_string(hits) + "\n";
    }
    return digest(joined);
  }

  std::uint64_t seed_;
  std::vector<std::size_t> indices_;
  std::vector<const fuzz::Oracle*> oracles_;
  fuzz::FuzzReport report_;
  fuzz::FuzzCaseData last_case_;
  std::vector<std::string> failures_;
  fuzz::CoverageMap coverage_;
  std::optional<std::uint64_t> first_digest_;
  double replays_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const Options& options) {
  const std::string seed = std::to_string(options.seed);
  if (options.workload == "study_crc_tac") {
    return std::make_unique<StudyWorkload>(std::map<std::string, std::string>{
        {"suite", "crc"}, {"mode", "pub_tac"}, {"seed", seed}});
  }
  if (options.workload == "multipath_bs") {
    return std::make_unique<StudyWorkload>(std::map<std::string, std::string>{
        {"suite", "bs"}, {"mode", "multipath"}, {"input", "all"},
        {"seed", seed}});
  }
  if (options.workload == "sweep_measure_l2") {
    return std::make_unique<SweepWorkload>(options);
  }
  if (options.workload == "fuzz_cases") {
    return std::make_unique<FuzzWorkload>(options.seed);
  }
  throw std::invalid_argument("unknown workload '" + options.workload +
                              "' (study_crc_tac, multipath_bs, "
                              "sweep_measure_l2, fuzz_cases)");
}

}  // namespace perfbench
