// Monte-Carlo DC analysis: N parameter draws of one circuit topology,
// each solved through spice::McDcEngine (one pattern, one nominal gmin
// ladder shared by every worker, one nominal symbolic factorization),
// with each pool thread owning whole chunks of trials.
//
// Contract: samples are bit-identical to the serial reference at ANY
// batch width and thread count.  Seeding stays the pure function
// runtime::trial_seed(seed0, k), and every trial's solve is a pure
// function of its seed (a re-pivoted trial restores the nominal
// symbolic before the next one).  Because of that, runs at different
// widths share ONE series-cache entry (the memo key folds cache_key,
// seed0, and runs — deliberately not the batch width or thread count).
#pragma once

#include "analysis/monte_carlo.hpp"
#include "spice/dc.hpp"

namespace si::analysis {

/// The two per-trial closures a DC Monte-Carlo workload provides.
/// `apply(seed)` re-applies that trial's parameter draw to the circuit
/// (values only — no topology edits) and must be a pure function of the
/// seed: the engine invokes it before every stamping pass.
/// `measure` maps the converged solution to the sample metric; apply()
/// is guaranteed to have run for the same seed immediately before.
struct McDcTrialFns {
  std::function<void(std::uint64_t)> apply;
  std::function<double(const spice::SolutionView&)> measure;
};

/// A Monte-Carlo DC workload: `build` populates an empty per-thread
/// Circuit and returns the trial closures bound to it.  Each pool thread
/// builds its own circuit + engine, so `build` must be deterministic.
struct McDcWorkload {
  std::function<McDcTrialFns(spice::Circuit&)> build;
  spice::NewtonOptions newton;
};

/// McOptions plus the batch width: the number of trials a worker solves
/// per parallel chunk (the chunk is max(grain, batch) when grain is
/// set).  batch = 0 resolves through the SI_MC_BATCH environment
/// variable, defaulting to 8.  The width moves work between threads and
/// never changes a sample.
struct McBatchOptions : McOptions {
  std::size_t batch = 0;
};

/// Resolves a requested batch width: nonzero passes through, zero reads
/// SI_MC_BATCH (clamped to [1, 64]), else 8.
std::size_t mc_batch_lanes(std::size_t requested);

/// Runs `runs` DC trials of the workload and aggregates the metric.
/// Bit-identical across batch widths and thread counts (see file
/// comment); trials the shared-symbolic solve cannot converge fall back
/// to the full gmin-stepping dc_operating_point ladder.
McStatistics monte_carlo_dc(int runs, const McDcWorkload& workload,
                            const McBatchOptions& opts = {});

/// The per-device mismatch draw of every workload below (and of the
/// service's mc jobs): snapshots each MOSFET's nominal parameters once,
/// then per trial scales kp by max(0.1, 1 + sigma * N(0,1)) and vt0 by
/// 1 + sigma * N(0,1), drawn from an RngStream seeded by the trial seed.
/// The returned apply() is allocation-free and a pure function of the
/// seed.
std::function<void(std::uint64_t)> mosfet_mismatch_apply(spice::Circuit& c,
                                                         double sigma);

/// Canonical workload: an N-section SI modulator core under per-device
/// kp / vt0 mismatch (relative sigma on kp, absolute sigma * vt0 on
/// vt0), measuring the differential DC output offset v(out_p) -
/// v(out_m).  The per-trial draw perturbs every MOSFET from its nominal
/// parameters with an RngStream seeded by the trial seed.
McDcWorkload modulator_mismatch_workload(int sections, double sigma = 0.02);

/// Same mismatch draw over the Table 1 delay-line chain, measuring the
/// chain output node's bias voltage.  Unlike the modulator core (whose
/// DC solution flips polarity under large draws), the chain's bias
/// point shifts smoothly with mismatch, so spread-vs-budget yield
/// questions are well posed on this workload.
McDcWorkload delay_line_mismatch_workload(int stages, double sigma = 0.02);

}  // namespace si::analysis
