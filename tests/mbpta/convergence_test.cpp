#include "mbpta/convergence.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>

#include "ir/interp.hpp"
#include "mbpta/pwcet.hpp"
#include "platform/campaign.hpp"
#include "suite/malardalen.hpp"
#include "util/rng.hpp"

namespace mbcr::mbpta {
namespace {

/// Chunk sampler: `sampler(k)` returns `k` fresh execution times.
using Sampler = std::function<std::vector<double>(std::size_t)>;

/// Drives converge_stream with a chunk sampler, each chunk appended once.
ConvergenceResult converge(const Sampler& sampler,
                           const ConvergenceConfig& config = {}) {
  return converge_stream(
      [&sampler](std::vector<double>& sample, std::size_t k) {
        const std::vector<double> chunk = sampler(k);
        sample.insert(sample.end(), chunk.begin(), chunk.end());
      },
      config);
}

Sampler exponential_sampler(double rate, std::uint64_t seed) {
  auto rng = std::make_shared<Xoshiro256>(seed);
  return [rng, rate](std::size_t k) {
    std::vector<double> out;
    out.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
      out.push_back(1000.0 - std::log(1.0 - rng->uniform01()) / rate);
    }
    return out;
  };
}

TEST(Convergence, ConvergesOnStationaryDistribution) {
  ConvergenceConfig cfg;
  cfg.max_runs = 100000;
  const ConvergenceResult res = converge(exponential_sampler(0.05, 1), cfg);
  EXPECT_TRUE(res.converged);
  EXPECT_GE(res.runs, cfg.min_runs);
  EXPECT_LE(res.runs, cfg.max_runs);
  EXPECT_EQ(res.sample.size(), res.runs);
}

TEST(Convergence, EstimateNearAnalyticQuantile) {
  ConvergenceConfig cfg;
  cfg.max_runs = 200000;
  cfg.probability = 1e-9;
  const double rate = 0.05;
  const ConvergenceResult res = converge(exponential_sampler(rate, 2), cfg);
  ASSERT_TRUE(res.converged);
  const double truth = 1000.0 - std::log(1e-9) / rate;
  EXPECT_NEAR(res.estimates.back(), truth, 0.15 * truth);
}

TEST(Convergence, RespectsMinRuns) {
  ConvergenceConfig cfg;
  cfg.min_runs = 1000;
  const ConvergenceResult res = converge(exponential_sampler(0.1, 3), cfg);
  EXPECT_GE(res.runs, 1000u);
}

TEST(Convergence, DegenerateDistributionConvergesAtWindowFill) {
  // A constant distribution converges as soon as the stability window has
  // its `window` estimates (min_runs plus a few growth steps).
  ConvergenceConfig cfg;
  const ConvergenceResult res = converge(
      [](std::size_t k) { return std::vector<double>(k, 500.0); }, cfg);
  EXPECT_TRUE(res.converged);
  EXPECT_GE(res.runs, cfg.min_runs);
  EXPECT_LE(res.runs, 1000u);
}

TEST(Convergence, NonStationarySamplerDoesNotConverge) {
  // Each chunk shifts upward: estimates keep moving; must hit max_runs.
  auto state = std::make_shared<double>(0.0);
  auto rng = std::make_shared<Xoshiro256>(4);
  ConvergenceConfig cfg;
  cfg.max_runs = 5000;
  const ConvergenceResult res = converge(
      [state, rng](std::size_t k) {
        std::vector<double> out;
        for (std::size_t i = 0; i < k; ++i) {
          *state += 1.0;
          out.push_back(*state + rng->uniform01());
        }
        return out;
      },
      cfg);
  EXPECT_FALSE(res.converged);
  EXPECT_LE(res.sample.size(), cfg.max_runs);
}

TEST(Convergence, DeterministicGivenSampler) {
  ConvergenceConfig cfg;
  const ConvergenceResult r1 = converge(exponential_sampler(0.05, 9), cfg);
  const ConvergenceResult r2 = converge(exponential_sampler(0.05, 9), cfg);
  EXPECT_EQ(r1.runs, r2.runs);
  EXPECT_EQ(r1.estimates, r2.estimates);
}

TEST(Convergence, StreamSamplerMatchesChunkSampler) {
  // Appending in place (engine v2) must walk the identical delta/stability
  // schedule as appending a returned chunk.
  ConvergenceConfig cfg;
  cfg.max_runs = 100000;
  const ConvergenceResult chunked = converge(exponential_sampler(0.05, 7), cfg);
  auto rng = std::make_shared<Xoshiro256>(7);
  const ConvergenceResult streamed = converge_stream(
      [rng](std::vector<double>& sample, std::size_t k) {
        for (std::size_t i = 0; i < k; ++i) {
          sample.push_back(1000.0 - std::log(1.0 - rng->uniform01()) / 0.05);
        }
      },
      cfg);
  EXPECT_EQ(chunked.converged, streamed.converged);
  EXPECT_EQ(chunked.runs, streamed.runs);
  EXPECT_EQ(chunked.estimates, streamed.estimates);
  EXPECT_EQ(chunked.sample, streamed.sample);
}

TEST(Convergence, StreamSamplerExhaustionStops) {
  // A stream sampler that stops appending ends the campaign gracefully.
  ConvergenceConfig cfg;
  cfg.max_runs = 50000;
  const std::size_t cap = 450;
  const ConvergenceResult res = converge_stream(
      [cap](std::vector<double>& sample, std::size_t k) {
        const std::size_t room = sample.size() < cap ? cap - sample.size() : 0;
        sample.resize(sample.size() + std::min(k, room), 500.0);
      },
      cfg);
  EXPECT_LE(res.sample.size(), cap);
}

TEST(Convergence, ExhaustedBeforeMinRunsTerminates) {
  // A sampler that dries up below min_runs must still terminate: the
  // driver keeps probing the frozen sample, whose constant estimates fill
  // the stability window.
  ConvergenceConfig cfg;  // min_runs = 300
  const std::size_t cap = 150;
  const ConvergenceResult res = converge_stream(
      [cap](std::vector<double>& sample, std::size_t k) {
        const std::size_t room = sample.size() < cap ? cap - sample.size() : 0;
        sample.resize(sample.size() + std::min(k, room), 700.0);
      },
      cfg);
  EXPECT_EQ(res.sample.size(), cap);
  EXPECT_EQ(res.runs, cap);
  EXPECT_TRUE(res.converged);  // frozen sample -> frozen estimates
  EXPECT_GE(res.estimates.size(), cfg.window);
}

TEST(Convergence, MaxRunsBoundaryIsInclusive) {
  // max_runs == a growth-step landing point: that final sample IS probed
  // (the loop bound is inclusive), and the next step breaks out with
  // converged = false when estimates keep moving.
  auto state = std::make_shared<double>(0.0);
  ConvergenceConfig cfg;
  cfg.max_runs = 400;  // min 300, first step +100 lands exactly on it
  const ConvergenceResult res = converge(
      [state](std::size_t k) {
        std::vector<double> out;
        for (std::size_t i = 0; i < k; ++i) {
          *state += 1.0;
          out.push_back(*state);
        }
        return out;
      },
      cfg);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.sample.size(), 400u);
  EXPECT_EQ(res.runs, 400u);
  EXPECT_EQ(res.estimates.size(), 2u);  // probed at 300 and at 400
}

TEST(Convergence, NoConvergenceBeforeWindowFills) {
  // Even perfectly constant estimates cannot satisfy a window they have
  // not filled: with window = 8, at least 8 probes must happen.
  ConvergenceConfig cfg;
  cfg.window = 8;
  const ConvergenceResult res = converge(
      [](std::size_t k) { return std::vector<double>(k, 500.0); }, cfg);
  EXPECT_TRUE(res.converged);
  EXPECT_GE(res.estimates.size(), 8u);
  EXPECT_EQ(res.runs, res.sample.size());
}

TEST(Convergence, WindowToleranceGovernsStability) {
  // Identical noisy sampler, window judged at two tolerances: a generous
  // band converges, a (near-)zero band never does.
  ConvergenceConfig loose;
  loose.tolerance = 10.0;
  loose.max_runs = 50000;
  ConvergenceConfig zero;
  zero.tolerance = 1e-12;
  zero.max_runs = 5000;
  const ConvergenceResult rl = converge(exponential_sampler(0.05, 21), loose);
  const ConvergenceResult rz = converge(exponential_sampler(0.05, 21), zero);
  EXPECT_TRUE(rl.converged);
  EXPECT_EQ(rl.estimates.size(), loose.window);  // stable at first chance
  EXPECT_FALSE(rz.converged);
}

TEST(Convergence, FinalEstimateMatchesFromScratchRefit) {
  // The incremental count-table probe must equal a full PwcetCurve fit
  // of the final sample, bit for bit.
  ConvergenceConfig cfg;
  const ConvergenceResult res = converge(exponential_sampler(0.05, 33), cfg);
  ASSERT_TRUE(res.converged);
  ASSERT_FALSE(res.estimates.empty());
  const PwcetCurve full(res.sample, cfg.evt);
  EXPECT_EQ(res.estimates.back(), full.at(cfg.probability));
}

TEST(Convergence, BatchedAndUnbatchedCampaignsConvergeIdentically) {
  // End-to-end equivalence on the real platform: the same campaign seed
  // driven through converge_stream with batched (trace-major) and
  // unbatched replay must walk the identical schedule — same runs, same
  // estimates, same sample. crc keeps the trace above the engine's
  // tiny-trace fallback so the batched arm really batches.
  const auto b = suite::make_benchmark("crc");
  const CompactTrace trace = CompactTrace::from(
      ir::lower_and_execute(b.program, b.default_input).trace);
  ASSERT_GE(trace.replay.size(), platform::kBatchMinTraceEntries);
  const platform::Machine machine;
  ConvergenceConfig cfg;
  cfg.max_runs = 20000;

  const auto converge_with_batch = [&](std::size_t batch) {
    platform::CampaignConfig ccfg;
    ccfg.batch = batch;
    platform::CampaignSampler sampler(machine, trace, ccfg);
    return converge_stream(
        [&sampler](std::vector<double>& sample, std::size_t k) {
          sampler.append_to(sample, k);
        },
        cfg);
  };
  const ConvergenceResult unbatched = converge_with_batch(1);
  const ConvergenceResult batched = converge_with_batch(32);
  EXPECT_EQ(unbatched.converged, batched.converged);
  EXPECT_EQ(unbatched.runs, batched.runs);
  EXPECT_EQ(unbatched.estimates, batched.estimates);
  EXPECT_EQ(unbatched.sample, batched.sample);
}

TEST(Convergence, TighterToleranceNeedsMoreRuns) {
  ConvergenceConfig loose;
  loose.tolerance = 0.2;
  ConvergenceConfig tight;
  tight.tolerance = 0.005;
  tight.max_runs = 300000;
  const auto rl = converge(exponential_sampler(0.02, 5), loose);
  const auto rt = converge(exponential_sampler(0.02, 5), tight);
  EXPECT_LE(rl.runs, rt.runs);
}

}  // namespace
}  // namespace mbcr::mbpta
