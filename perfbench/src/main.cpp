// perfbench_runner: runs one workload of the end-to-end benchmark for a
// given time and writes every raw measurement as one JSON document.
// run.py builds this program, turns the raw document into the metrics
// and compares the checked outputs against the recorded references.
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    --result FILE [--trace-dir DIR] [--repo DIR]
//                    [--smoke] [--drop-reply K]
//
// A workload first runs its once-per-process checks (prepare), outside
// the measured time.  Each pass then builds a fresh workload, times its
// set-up (20 times, running the pass on the last instance) and runs
// it.  Passes repeat while another one still fits in --seconds.  With
// --trace 1 every other pass runs with obs telemetry and bench-side
// spans on, so the traced passes give the per-layer split and the
// untraced ones the trace overhead; the spans are written as a Chrome
// trace at exit.
//
// Exit status: 0 after a run (its checks are in the document), 2 on a
// usage error, 3 when an SI_* override is set in the environment.
#include <malloc.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench.hpp"
#include "obs/telemetry.hpp"

namespace {

using pb::Json;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner --workload NAME --seed N --seconds S "
               "--trace 0|1 --result FILE [--trace-dir DIR] [--repo DIR] "
               "[--smoke] [--drop-reply K] [--serve-queue N]\n");
  return 2;
}

constexpr int kSetups = 20;  // set-ups timed per pass

// Settings that would move the run off the default path.
const char* const kOverrides[] = {"SI_SOLVER", "SI_TRANSIENT", "SI_MC_BATCH",
                                  "SI_RUNTIME_THREADS", "SI_OBS"};

Json to_json(const std::vector<double>& v) {
  Json a = Json::array();
  for (double x : v) a.push(x);
  return a;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, result_path, trace_dir, repo = ".";
  long long seed = -1;
  double seconds = -1.0;
  int trace = -1;
  pb::WorkloadConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      cfg.smoke = true;
    } else if (!has_value) {
      return usage();
    } else if (a == "--workload") {
      workload = argv[++i];
    } else if (a == "--seed") {
      seed = std::atoll(argv[++i]);
    } else if (a == "--seconds") {
      seconds = std::atof(argv[++i]);
    } else if (a == "--trace") {
      trace = std::atoi(argv[++i]);
    } else if (a == "--result") {
      result_path = argv[++i];
    } else if (a == "--trace-dir") {
      trace_dir = argv[++i];
    } else if (a == "--repo") {
      repo = argv[++i];
    } else if (a == "--drop-reply") {
      cfg.drop_reply = std::atoi(argv[++i]);
    } else if (a == "--serve-queue") {
      cfg.serve_queue = std::atoi(argv[++i]);
    } else {
      return usage();
    }
  }
  if (workload.empty() || seed < 0 || seconds < 0.0 ||
      (trace != 0 && trace != 1) || result_path.empty())
    return usage();
  for (const char* name : kOverrides) {
    const char* v = std::getenv(name);
    if (v && *v) {
      std::fprintf(stderr,
                   "perfbench_runner: %s=%s is set; the benchmark measures "
                   "the default path only\n",
                   name, v);
      return 3;
    }
  }
  cfg.seed = static_cast<std::uint64_t>(seed);
  cfg.repo_root = repo;

  std::unique_ptr<pb::Workload> (*make)(const pb::WorkloadConfig&) = nullptr;
  if (workload == "paper_behavioral") make = pb::make_paper;
  if (workload == "transistor_sim") make = pb::make_transistor;
  if (workload == "deck_verify") make = pb::make_decks;
  if (workload == "serve_mix") make = pb::make_serve;
  if (!make) return usage();

  pb::Tracer& tracer = pb::Tracer::instance();
  Json passes = Json::array();
  std::string fatal, obs_snapshot;
  try {
    tracer.set_enabled(trace == 1);
    make(cfg)->prepare();
  } catch (const std::exception& e) {
    fatal = e.what();
  }
  const double deadline = pb::now_s() + seconds;
  const int min_passes = trace ? 2 : 1;
  for (int pass = 0; fatal.empty(); ++pass) {
    const double pass_start = pb::now_s();
    const bool traced = trace == 1 && pass % 2 == 0;
    si::obs::set_enabled(traced);
    si::obs::reset();
    tracer.set_enabled(traced);
    Json rec = Json::object();
    try {
      // Set-up is short next to a pass, so it is timed kSetups times per
      // pass; the last instance runs the pass.
      std::unique_ptr<pb::Workload> w;
      std::vector<double> setup_s;
      std::size_t mark = 0;
      for (int rep = 0; rep < kSetups; ++rep) {
        w.reset();
        w = make(cfg);
        mark = tracer.size();
        pb::ScopedSpan s("bench.setup");
        w->setup();
        setup_s.push_back(s.close());
      }
      pb::PassOut out = w->run_pass(traced);
      if (traced) {
        // Layers that run in set-up on some workloads and in the pass on
        // others: sum their spans over both.
        for (const char* layer : {"si.build", "spice.parse", "erc.check"})
          if (tracer.count_since(mark, layer) > 0)
            out.layers.set(std::string(layer) + "_s",
                           tracer.sum_since(mark, layer));
        obs_snapshot = si::obs::snapshot_json();
      }
      tracer.set_enabled(false);
      si::obs::set_enabled(false);
      w.reset();  // server shutdown and frees stay outside the timings
#ifdef __GLIBC__
      // Hand freed heap back to the system so each pass starts from the
      // same footprint and peak RSS does not grow with the pass count.
      malloc_trim(0);
#endif
      rec.set("traced", traced);
      rec.set("setup_s", to_json(setup_s));
      rec.set("pass_s", out.pass_s);
      rec.set("pass_wall_s",
              out.pass_wall_s >= 0.0 ? out.pass_wall_s : out.pass_s);
      rec.set("items", out.items);
      rec.set("items_s", out.items_s);
      rec.set("job_ms", to_json(out.job_ms));
      rec.set("layers", std::move(out.layers));
      rec.set("outputs", std::move(out.outputs));
      rec.set("resolved", std::move(out.resolved));
      rec.set("ops", static_cast<double>(out.ops));
      rec.set("failed", static_cast<double>(out.failed));
      Json errors = Json::array();
      for (const auto& e : out.errors) errors.push(e);
      rec.set("errors", std::move(errors));
    } catch (const std::exception& e) {
      fatal = e.what();
      break;
    }
    passes.push(std::move(rec));
    // Stop when another pass like this one would end after the deadline.
    const double now = pb::now_s();
    if (pass + 1 >= min_passes &&
        (cfg.smoke || now + (now - pass_start) > deadline))
      break;
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Json host = Json::object();
  host.set("compiler", PB_COMPILER);
  host.set("build_type", PB_BUILD_TYPE);
  host.set("si_obs_compiled", SI_OBS_ENABLED != 0);
  Json doc = Json::object();
  doc.set("workload", workload);
  doc.set("seed", static_cast<double>(seed));
  doc.set("trace", trace == 1);
  doc.set("smoke", cfg.smoke);
  doc.set("host", std::move(host));
  doc.set("passes", std::move(passes));
  doc.set("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
  if (!fatal.empty()) doc.set("fatal", fatal);
  if (!write_file(result_path, doc.dump())) {
    std::fprintf(stderr, "perfbench_runner: cannot write %s\n",
                 result_path.c_str());
    return 2;
  }
  if (trace == 1 && !trace_dir.empty()) {
    const std::string stem = trace_dir + "/" + workload + "-seed" +
                             std::to_string(seed);
    write_file(stem + ".trace.json", tracer.chrome_json());
    write_file(stem + ".obs.json", obs_snapshot);
  }
  return 0;
}
