// Monte-Carlo DC contracts: the structure-shared path reproduces the
// serial sample vector at every batch width and thread count, including
// trials that re-pivot, and runs at different widths share one cache
// entry.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include "analysis/mc_batch.hpp"
#include "obs/telemetry.hpp"
#include "runtime/parallel.hpp"
#include "runtime/rng_stream.hpp"
#include "spice/elements.hpp"

namespace {

using namespace si;

// Test-only linear block over nodes (a, b) with a settable conductance
// g from a to ground:
//   row a: [g, 1]   (g to ground, plus a unit transconductance from b)
//   row b: [1, 1]   (unit transconductance from a, plus 1 S to ground)
// At the nominal g = 2 the frozen pivot of column a is g; a draw with
// g ~ 1e-13 collapses that pivot far below the row scale while the
// system stays well conditioned under row exchange (v(a) = I / (g - 1)),
// so the trial must re-pivot on its own values.
class SwingBlock final : public spice::Element {
 public:
  SwingBlock(std::string name, spice::NodeId a, spice::NodeId b)
      : Element(std::move(name)), a_(a), b_(b) {}

  void set_g(double g) { g_ = g; }

  std::vector<spice::Terminal> terminals() const override {
    return {{a_, "a"}, {b_, "b"}};
  }
  void stamp(spice::RealStamper& s, const spice::StampContext&) override {
    s.conductance(a_, spice::kGroundNode, g_);
    s.transconductance(a_, spice::kGroundNode, b_, spice::kGroundNode, 1.0);
    s.transconductance(b_, spice::kGroundNode, a_, spice::kGroundNode, 1.0);
    s.conductance(b_, spice::kGroundNode, 1.0);
  }

 private:
  spice::NodeId a_, b_;
  double g_ = 2.0;
};

// A workload whose draw swings SwingBlock's g by thirteen orders of
// magnitude on about a quarter of the seeds and jitters it by 5 %
// otherwise.
analysis::McDcWorkload swing_workload() {
  analysis::McDcWorkload w;
  w.build = [](spice::Circuit& c) {
    const auto a = c.node("a");
    const auto b = c.node("b");
    c.add<spice::CurrentSource>("Iin", c.ground(), a, 1e-3);
    auto* block = &c.add<SwingBlock>("Xswing", a, b);
    analysis::McDcTrialFns fns;
    fns.apply = [block](std::uint64_t seed) {
      runtime::RngStream rng(seed);
      const bool swing = rng.uniform() < 0.25;
      const double jitter = 1.0 + 0.05 * rng.normal();
      block->set_g(swing ? 2e-13 : 2.0 * jitter);
    };
    fns.measure = [a](const spice::SolutionView& sol) {
      return sol.voltage(a);
    };
    return fns;
  };
  return w;
}

TEST(McBatch, LaneResolverHonorsEnvAndDefault) {
  EXPECT_EQ(analysis::mc_batch_lanes(5), 5u);
  unsetenv("SI_MC_BATCH");
  EXPECT_EQ(analysis::mc_batch_lanes(0), 8u);
  setenv("SI_MC_BATCH", "3", 1);
  EXPECT_EQ(analysis::mc_batch_lanes(0), 3u);
  setenv("SI_MC_BATCH", "9999", 1);
  EXPECT_EQ(analysis::mc_batch_lanes(0), 64u);
  unsetenv("SI_MC_BATCH");
}

TEST(McBatch, SamplesBitIdenticalAcrossBatchSizesAndThreads) {
  const auto w = analysis::modulator_mismatch_workload(1);
  const int kRuns = 33;

  analysis::McBatchOptions ref_opts;
  ref_opts.seed0 = 42;
  ref_opts.batch = 1;
  ref_opts.parallel = false;  // the serial scalar reference
  const auto ref = analysis::monte_carlo_dc(kRuns, w, ref_opts);
  ASSERT_EQ(ref.count(), static_cast<std::size_t>(kRuns));

  for (std::size_t batch : {1u, 3u, 4u, 8u, 17u}) {
    for (unsigned threads : {1u, 2u, 8u}) {
      runtime::set_thread_count(threads);
      analysis::McBatchOptions opts;
      opts.seed0 = 42;
      opts.batch = batch;
      const auto st = analysis::monte_carlo_dc(kRuns, w, opts);
      EXPECT_EQ(st.samples, ref.samples)
          << "batch=" << batch << " threads=" << threads;
      EXPECT_EQ(st.mean, ref.mean);
      EXPECT_EQ(st.sigma, ref.sigma);
    }
  }
  runtime::set_thread_count(0);
}

TEST(McBatch, RepivotedTrialsMatchTheSerialReference) {
  // Trials whose frozen pivot collapses re-pivot on their own values;
  // the nominal symbolic must be restored before the next trial, or a
  // trial's result would depend on which trials its worker solved
  // before it — and so on the width and thread count.
  obs::set_enabled(true);
  const auto w = swing_workload();
  const int kRuns = 40;

  const auto before = obs::counter("mna.pivot_repivots").value();
  analysis::McBatchOptions ref_opts;
  ref_opts.seed0 = 7;
  ref_opts.batch = 1;
  ref_opts.parallel = false;  // the serial reference
  const auto ref = analysis::monte_carlo_dc(kRuns, w, ref_opts);
  ASSERT_EQ(ref.count(), static_cast<std::size_t>(kRuns));
  EXPECT_GT(obs::counter("mna.pivot_repivots").value(), before);

  for (std::size_t batch : {1u, 3u, 8u, 17u}) {
    for (unsigned threads : {1u, 2u, 8u}) {
      runtime::set_thread_count(threads);
      analysis::McBatchOptions opts;
      opts.seed0 = 7;
      opts.batch = batch;
      const auto st = analysis::monte_carlo_dc(kRuns, w, opts);
      EXPECT_EQ(st.samples, ref.samples)
          << "batch=" << batch << " threads=" << threads;
    }
  }
  runtime::set_thread_count(0);
}

TEST(McBatch, TwoWidthsShareOneCacheEntry) {
  auto applies = std::make_shared<std::atomic<int>>(0);
  auto base = analysis::modulator_mismatch_workload(1);
  analysis::McDcWorkload w;
  w.newton = base.newton;
  w.build = [base, applies](spice::Circuit& c) {
    auto fns = base.build(c);
    auto inner = fns.apply;
    fns.apply = [inner, applies](std::uint64_t seed) {
      applies->fetch_add(1);
      inner(seed);
    };
    return fns;
  };

  analysis::McBatchOptions opts;
  opts.seed0 = 11;
  opts.cache_key = 0x5150c0ffee;  // unique to this test
  opts.parallel = false;
  opts.batch = 8;
  const auto wide = analysis::monte_carlo_dc(10, w, opts);
  const int after_wide = applies->load();
  EXPECT_GT(after_wide, 0);

  // Same key, another width: bit-identical results mean the first run
  // already owns the cache entry — no trial may execute.
  opts.batch = 1;
  const auto single = analysis::monte_carlo_dc(10, w, opts);
  EXPECT_EQ(applies->load(), after_wide);
  EXPECT_EQ(single.samples, wide.samples);
}

TEST(McStatistics, HistogramLoadsSamplesIntoRegistry) {
  obs::set_enabled(true);
  const auto st = analysis::monte_carlo(
      200, [](std::uint64_t seed) { return runtime::RngStream(seed).normal(); },
      3);
  obs::Histogram& h = st.histogram("mc.test.samples");
  EXPECT_EQ(h.count(), st.count());
  EXPECT_EQ(h.min(), st.min);
  EXPECT_EQ(h.max(), st.max);

  analysis::McStatistics empty;
  EXPECT_THROW(empty.histogram(), std::logic_error);
}

}  // namespace
