// Shared pieces of the end-to-end benchmark runner: the wall clock, the
// bench-side span recorder, and the interface every workload implements.
//
// A workload is timed from outside: the runner brackets its calls into
// the layers' public functions with spans.  A span always measures its
// own duration (so untraced runs can still time jobs); it is recorded
// into the in-memory trace only while tracing is on.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/json.hpp"

namespace pb {

using si::serve::Json;

/// Seconds since the runner started (steady clock).
double now_s();

/// One completed bench-side span.
struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int id = 0;
  int parent = -1;  ///< -1 for a root span
  std::uint64_t tid = 0;
  std::string job;  ///< serve_mix job id, empty elsewhere
};

/// Process-wide span store.  Recording takes a mutex: spans bracket
/// whole public calls (milliseconds and up), never inner loops.
class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(); }

  int next_id();
  void record(Span s);

  /// Number of spans recorded so far; a mark for sum_since().
  std::size_t size() const;
  /// Total duration [s] of the spans named `name` recorded after `mark`.
  double sum_since(std::size_t mark, const std::string& name) const;
  /// Number of spans named `name` recorded after `mark`.
  std::size_t count_since(std::size_t mark, const std::string& name) const;

  /// Chrome trace-event JSON ({"traceEvents":[{"ph":"X",...}]}).
  std::string chrome_json() const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  int next_id_ = 0;
};

/// RAII span.  The parent defaults to the innermost open span of the
/// calling thread; pass one explicitly for work handed to pool threads.
class ScopedSpan {
 public:
  static constexpr int kCurrentParent = -2;

  explicit ScopedSpan(const char* name, int parent = kCurrentParent,
                      std::string job = {});
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span now instead of at scope exit; returns its duration.
  double close();
  int id() const { return id_; }

 private:
  const char* name_;
  int id_ = -1;
  int parent_ = -1;
  std::string job_;
  double start_ = 0.0;
  double end_ = -1.0;
};

/// The innermost open span of the calling thread (-1 when none).
int current_span();

/// Inputs every workload is built from.
struct WorkloadConfig {
  std::uint64_t seed = 0;
  bool smoke = false;          ///< smallest sizes, for the bench's own tests
  std::string repo_root = ".";  ///< where examples/decks lives
  int drop_reply = -1;         ///< serve_mix fault injection (tests only)
  /// serve_mix fault injection (tests only): one server worker and this
  /// admission limit, so jobs get rejected and resubmitted.
  int serve_queue = -1;
};

/// What one pass of a workload produced.
struct PassOut {
  double pass_s = 0.0;  ///< the workload's headline job: wall time, or CPU time
  double pass_wall_s = -1.0;  ///< its wall time, when pass_s is CPU time
  double items = 0.0;   ///< units of throughput work done ...
  double items_s = 0.0;  ///< ... and the wall time they took
  std::vector<double> job_ms;  ///< per-job latencies
  Json layers = Json::object();   ///< per-layer values (traced passes)
  Json outputs = Json::object();  ///< values the reference check compares
  Json resolved = Json::object();  ///< resolved default-path settings
  std::uint64_t ops = 0;     ///< operations attempted
  std::uint64_t failed = 0;  ///< operations failed or incorrect
  std::vector<std::string> errors;

  void fail(std::string why) {
    ++failed;
    errors.push_back(std::move(why));
  }
};

/// A workload: setup() is timed as set-up, run_pass() as the measured
/// work.  The runner builds a fresh instance for every pass so no state
/// (caches, factorizations) leaks from one pass into the next.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Once per process, on an instance of its own, before the first pass
  /// and outside every timing: checks that need not repeat per pass.
  virtual void prepare() {}
  virtual void setup() = 0;
  virtual PassOut run_pass(bool traced) = 0;
};

std::unique_ptr<Workload> make_paper(const WorkloadConfig& cfg);
std::unique_ptr<Workload> make_transistor(const WorkloadConfig& cfg);
std::unique_ptr<Workload> make_decks(const WorkloadConfig& cfg);
std::unique_ptr<Workload> make_serve(const WorkloadConfig& cfg);

/// Blanks the analysis directives (.tran/.ac/.noise/.probe/.op) the
/// element-card parser does not know, keeping line numbers, as the
/// si_verify CLI does before parse_netlist.
std::string strip_directives(const std::string& deck);

/// Per-pass obs reading helpers (0 when telemetry is compiled out).
double obs_counter(const char* name);
double obs_timer_s(const char* name);

}  // namespace pb
