// paper_behavioral: the paper's behavioral reproduction pass.  Table 1
// delay-line THD/SNR, the Table 2 dynamic-range sweeps of both
// modulators (OSR 128, Blackman FFT) and the Fig. 7 SNDR sweep, every
// point a call of analysis::run_tone_test with the dsm modulator (or
// the si delay line) as the device under test.  No spice/linalg code
// runs here.
#include <atomic>
#include <memory>

#include "analysis/measure.hpp"
#include "bench.hpp"
#include "dsm/modulator.hpp"
#include "dsp/metrics.hpp"
#include "dsp/signal.hpp"
#include "runtime/parallel.hpp"
#include "si/delay_line.hpp"

namespace pb {
namespace {

using si::analysis::ToneTestConfig;

// One tone test of the pass, with its device built during set-up.
struct Tone {
  std::string group;  // output key prefix
  double amplitude = 0.0;
  double level_db = 0.0;
  ToneTestConfig cfg;
  std::unique_ptr<si::cells::DelayLine> line;
  std::unique_ptr<si::dsm::SiSigmaDeltaModulator> mod;
  double full_scale = 0.0;
};

// One amplitude sweep: its tones are a contiguous range of the plan.
struct Sweep {
  std::string name;
  std::size_t first = 0, count = 0;
  bool parallel = false;
};

class Paper : public Workload {
 public:
  explicit Paper(const WorkloadConfig& cfg) : cfg_(cfg) {}

  void setup() override {
    // Seeds: workload seed 0 reproduces the historical bench seeds
    // (delay line 1, Table 2 400+k / 500+k, Fig. 7 7+k / 107+k).
    const std::uint64_t off = cfg_.seed * 1000;
    const std::size_t fft_t1 = cfg_.smoke ? (1u << 12) : (1u << 16);
    const std::size_t fft_dr = cfg_.smoke ? (1u << 12) : (1u << 15);

    ToneTestConfig t1;
    t1.clock_hz = 5e6;
    t1.tone_hz = 5e3;
    t1.band_hz = 2.5e6;
    t1.fft_points = fft_t1;
    si::cells::DelayLineConfig dl;
    dl.seed = 1 + off;
    const std::vector<double> t1_amps =
        cfg_.smoke ? std::vector<double>{8e-6, 16e-6}
                   : std::vector<double>{2e-6, 4e-6, 8e-6, 12e-6, 16e-6};
    for (double a : t1_amps) {
      Tone t;
      t.group = "table1." + std::to_string(static_cast<int>(a * 1e6)) + "ua";
      t.amplitude = a;
      t.cfg = t1;
      {
        ScopedSpan s("si.build");
        t.line = std::make_unique<si::cells::DelayLine>(dl);
      }
      plan_.push_back(std::move(t));
    }

    ToneTestConfig dr;
    dr.clock_hz = 2.45e6;
    dr.tone_hz = 2e3;
    dr.band_hz = 2.45e6 / 256.0;  // OSR 128
    dr.fft_points = fft_dr;
    const double fs_amp = 6e-6;  // the paper's 0-dB level
    add_sweep("table2.plain", false, 400 + off, -70.0, -2.0, 4.0, fs_amp, dr,
              false);
    add_sweep("table2.chop", true, 500 + off, -70.0, -2.0, 4.0, fs_amp, dr,
              false);
    add_sweep("fig7.plain", false, 7 + off, -70.0, 0.0, 5.0, fs_amp, dr, true);
    add_sweep("fig7.chop", true, 107 + off, -70.0, 0.0, 5.0, fs_amp, dr, true);
  }

  PassOut run_pass(bool traced) override {
    PassOut out;
    const std::size_t mark = Tracer::instance().size();
    std::vector<si::analysis::ToneTestResult> results(plan_.size());
    std::vector<double> job_s(plan_.size(), 0.0);
    std::vector<char> ok(plan_.size(), 0);
    std::vector<std::string> why(plan_.size());

    ScopedSpan pass("paper.pass");
    const int pass_id = pass.id();
    // Table 1 serially, then the sweeps: Table 2 serially as its bench
    // runs it, Fig. 7 across the runtime pool.
    for (std::size_t k = 0; k < table1_count(); ++k)
      run_one(k, pass_id, results, job_s, ok, why);
    for (const Sweep& sw : sweeps_) {
      if (sw.parallel) {
        si::runtime::parallel_for(sw.count, [&](std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i)
            run_one(sw.first + i, pass_id, results, job_s, ok, why);
        }, 1);
      } else {
        for (std::size_t i = 0; i < sw.count; ++i)
          run_one(sw.first + i, pass_id, results, job_s, ok, why);
      }
    }
    out.pass_s = pass.close();
    out.items = static_cast<double>(plan_.size());
    out.items_s = out.pass_s;
    for (std::size_t k = 0; k < plan_.size(); ++k) {
      ++out.ops;
      out.job_ms.push_back(job_s[k] * 1e3);
      if (!ok[k]) out.fail(plan_[k].group + ": " + why[k]);
    }
    if (out.failed) return out;

    for (std::size_t k = 0; k < table1_count(); ++k) {
      out.outputs.set(plan_[k].group + ".thd_db", results[k].metrics.thd_db);
      out.outputs.set(plan_[k].group + ".snr_db", results[k].metrics.snr_db);
    }
    for (const Sweep& sw : sweeps_) {
      std::vector<double> levels, sndr;
      for (std::size_t i = 0; i < sw.count; ++i) {
        levels.push_back(plan_[sw.first + i].level_db);
        sndr.push_back(results[sw.first + i].metrics.sndr_db);
      }
      const double dr_db = si::dsp::dynamic_range_db(levels, sndr);
      out.outputs.set(sw.name + ".dr_bits", (dr_db - 1.76) / 6.02);
    }
    out.resolved.set("threads", static_cast<double>(
                                    si::runtime::thread_count()));

    if (traced) {
      const Tracer& tr = Tracer::instance();
      const double dsm_s = tr.sum_since(mark, "dsm.run");
      const double dut_s = dsm_s + tr.sum_since(mark, "si.delay_line.run");
      out.layers.set("dsm.run_s", dsm_s);
      out.layers.set("dsm.samples_per_s",
                     dsm_s > 0.0 ? static_cast<double>(dsm_samples_) / dsm_s
                                 : 0.0);
      out.layers.set("analysis.tone_test_self_s",
                     tr.sum_since(mark, "analysis.run_tone_test") - dut_s);
      // compute_power_spectrum takes one FFT per tone test.
      out.layers.set("dsp.ffts", static_cast<double>(tr.count_since(
                                     mark, "analysis.run_tone_test")));
    }
    return out;
  }

 private:
  std::size_t table1_count() const {
    return sweeps_.empty() ? plan_.size() : sweeps_.front().first;
  }

  void add_sweep(const std::string& name, bool chopper, std::uint64_t seed0,
                 double lo_db, double hi_db, double step_db, double fs_amp,
                 const ToneTestConfig& cfg, bool parallel) {
    std::vector<double> levels = si::analysis::level_grid(lo_db, hi_db, step_db);
    if (cfg_.smoke) levels = {levels.front(), levels[levels.size() / 2],
                              levels.back()};
    Sweep sw{name, plan_.size(), levels.size(), parallel};
    for (std::size_t k = 0; k < levels.size(); ++k) {
      Tone t;
      t.group = name;
      t.level_db = levels[k];
      t.amplitude = fs_amp * si::dsp::amplitude_ratio_from_db(levels[k]);
      t.cfg = cfg;
      si::dsm::SiModulatorConfig mc;
      mc.chopper = chopper;
      mc.seed = seed0 + k;
      t.full_scale = mc.full_scale;
      {
        ScopedSpan s("dsm.build");
        t.mod = std::make_unique<si::dsm::SiSigmaDeltaModulator>(mc);
      }
      plan_.push_back(std::move(t));
    }
    sweeps_.push_back(sw);
  }

  void run_one(std::size_t k, int parent,
               std::vector<si::analysis::ToneTestResult>& results,
               std::vector<double>& job_s, std::vector<char>& ok,
               std::vector<std::string>& why) {
    Tone& t = plan_[k];
    try {
      ScopedSpan job("analysis.run_tone_test", parent);
      const int job_id = job.id();
      si::analysis::StreamProcessor dut;
      if (t.line) {
        dut = [&t, job_id](const std::vector<double>& x) {
          ScopedSpan s("si.delay_line.run", job_id);
          return t.line->run_dm(x);
        };
      } else {
        dut = [this, &t, job_id](const std::vector<double>& x) {
          ScopedSpan s("dsm.run", job_id);
          std::vector<double> y = t.mod->run(x);
          for (double& v : y) v *= t.full_scale;
          dsm_samples_ += x.size();
          return y;
        };
      }
      results[k] = si::analysis::run_tone_test(dut, t.amplitude, t.cfg);
      job_s[k] = job.close();
      ok[k] = 1;
    } catch (const std::exception& e) {
      why[k] = e.what();
    }
  }

  WorkloadConfig cfg_;
  std::vector<Tone> plan_;
  std::vector<Sweep> sweeps_;
  std::atomic<std::uint64_t> dsm_samples_{0};
};

}  // namespace

std::unique_ptr<Workload> make_paper(const WorkloadConfig& cfg) {
  return std::make_unique<Paper>(cfg);
}

}  // namespace pb
