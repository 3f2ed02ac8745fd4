// End-to-end CLI observability pins, run against the real `mbcr` binary
// (path injected by CMake as MBCR_MBCR_BINARY; the obs_tests target
// depends on mbcr_cli so the binary always exists):
//
//   - stdout purity: with --json -, --progress and --metrics-json FILE all
//     active, stdout is exactly one parseable JSON document — progress and
//     "[x written to ...]" diagnostics live on stderr only.
//   - the emitted metrics/trace files are valid JSON with the promised
//     schema/phases.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/metrics.hpp"
#include "util/json.hpp"

namespace mbcr {
namespace {

#if defined(__unix__) && defined(MBCR_MBCR_BINARY)

struct CommandResult {
  int exit_code = -1;
  std::string out;
};

/// Runs `cmd` under /bin/sh, capturing stdout (callers route stderr).
CommandResult run_command(const std::string& cmd) {
  CommandResult result;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = fread(buffer, 1, sizeof buffer, pipe)) > 0) {
    result.out.append(buffer, n);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string temp_path(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

json::Value parse_file(const std::string& path) {
  std::ifstream file(path);
  EXPECT_TRUE(file.good()) << "cannot read " << path;
  std::stringstream buffer;
  buffer << file.rdbuf();
  return json::parse(buffer.str());
}

TEST(CliObs, AnalyzeStdoutIsASingleJsonDocumentUnderFullInstrumentation) {
  const std::string metrics_path = temp_path("mbcr_cli_obs_metrics.json");
  const std::string trace_path = temp_path("mbcr_cli_obs_trace.json");
  const std::string cmd = std::string(MBCR_MBCR_BINARY) +
                          " analyze --suite bs --mode pub_tac" +
                          " --max-runs 2000 --tac-cap 2000" +
                          " --json - --progress true" +
                          " --metrics-json " + metrics_path +
                          " --trace-json " + trace_path + " 2>/dev/null";
  const CommandResult result = run_command(cmd);
  ASSERT_EQ(result.exit_code, 0) << cmd;

  // json::parse accepts exactly one document (trailing whitespace only),
  // so this line IS the stdout-purity pin: any stray progress line,
  // diagnostic, or second document on stdout fails the parse.
  const json::Value doc = json::parse(result.out);
  EXPECT_EQ(doc.at("schema").as_string(), "mbcr-study-v6");

  // The instrumented run must also surface its own cost: the optional v5
  // blocks are present when collection was armed — which requires the
  // layer compiled in (an -DMBCR_OBS=OFF binary accepts the flags but
  // writes empty snapshots, and the default document stays block-free).
  if (obs::kCompiledIn) {
    ASSERT_NE(doc.find("accounting"), nullptr);
    ASSERT_NE(doc.find("metrics"), nullptr);
  } else {
    EXPECT_EQ(doc.find("accounting"), nullptr);
    EXPECT_EQ(doc.find("metrics"), nullptr);
  }

  const json::Value metrics = parse_file(metrics_path);
  EXPECT_EQ(metrics.at("schema").as_string(), "mbcr-metrics-v1");
  const json::Value trace = parse_file(trace_path);
  const json::Array& events = trace.at("traceEvents").as_array();
  if (obs::kCompiledIn) {
    EXPECT_NE(metrics.at("counters").find("campaign.runs"), nullptr);
    EXPECT_NE(metrics.at("counters").find("convergence.samples"), nullptr);
    EXPECT_NE(metrics.at("counters").find("replay.single_level.runs"),
              nullptr);
    EXPECT_GT(events.size(), 1u);
    bool saw_study = false;
    bool saw_campaign = false;
    for (const json::Value& ev : events) {
      const json::Value* name = ev.find("name");
      if (name == nullptr) continue;
      saw_study |= name->as_string() == "study";
      saw_campaign |= name->as_string() == "campaign";
    }
    EXPECT_TRUE(saw_study);
    EXPECT_TRUE(saw_campaign);
  }

  std::remove(metrics_path.c_str());
  std::remove(trace_path.c_str());
}

TEST(CliObs, MeasureCsvStdoutStaysMachineReadableWithProgressOn) {
  const std::string cmd = std::string(MBCR_MBCR_BINARY) +
                          " measure --suite bs --runs 100 --csv -" +
                          " --progress true 2>/dev/null";
  const CommandResult result = run_command(cmd);
  ASSERT_EQ(result.exit_code, 0) << cmd;
  // First line is the CSV header and nothing else precedes it.
  EXPECT_EQ(result.out.rfind("program,input,run,cycles\n", 0), 0u)
      << "stdout does not start with the CSV header:\n"
      << result.out.substr(0, 200);
}

TEST(CliObs, BitingTacCapWarnsOnStderrOncePerPath) {
  // bs's dominant IL1 event needs millions of runs at the default 1e-9
  // target, far past a 2000-run cap: every path's campaign is clamped,
  // and each says so on stderr (captured alone; stdout is dropped).
  const std::string cmd = std::string(MBCR_MBCR_BINARY) +
                          " analyze --suite bs --mode multipath" +
                          " --max-runs 2000 --tac-cap 2000 --json -" +
                          " 2>&1 >/dev/null";
  const CommandResult result = run_command(cmd);
  ASSERT_EQ(result.exit_code, 0) << cmd;
  std::size_t warnings = 0;
  for (std::size_t at = result.out.find("mbcr: warning: bs.pub [");
       at != std::string::npos;
       at = result.out.find("mbcr: warning: bs.pub [", at + 1)) {
    ++warnings;
  }
  EXPECT_EQ(warnings, 8u) << result.out;  // bs has 8 path inputs
  EXPECT_NE(result.out.find("(--tac-cap 2000)"), std::string::npos)
      << result.out;
}

TEST(CliObs, TacRequirementBelowTheCapPrintsNothing) {
  // At a 0.5 target the same bs path needs ~182k runs, under a 200k cap:
  // nothing is clamped, so stderr stays empty.
  const std::string cmd = std::string(MBCR_MBCR_BINARY) +
                          " analyze --suite bs --mode pub_tac" +
                          " --max-runs 2000 --tac-target 0.5" +
                          " --tac-cap 200000 --json - 2>&1 >/dev/null";
  const CommandResult result = run_command(cmd);
  ASSERT_EQ(result.exit_code, 0) << cmd;
  EXPECT_EQ(result.out, "") << cmd;
}

#else

TEST(CliObs, SkippedWithoutPosixPopen) { GTEST_SKIP(); }

#endif

}  // namespace
}  // namespace mbcr
