// Solver telemetry: a process-wide registry of named Counters, Timers
// and Histograms plus a preallocated TraceSpan event ring, wired into
// the MNA engines, the transient steppers and the runtime pool so the
// self-healing mechanisms (pattern growth, pivot re-pivot, dt_min
// clamping, gmin ladders) are counted instead of recovering silently.
//
// Overhead contract:
//  - compile-time kill switch: building with SI_OBS=OFF defines
//    SI_OBS_ENABLED=0 and every probe below compiles to an empty inline
//    (no atomics, no registry, no strings);
//  - runtime switch: when compiled in, nothing records until
//    set_enabled(true) (or the SI_OBS=1 environment variable); a probe
//    on the disabled path costs one relaxed atomic load;
//  - hot-loop safety: recording never allocates.  Counters and timers
//    are relaxed atomics, histogram bins are a fixed array, the span
//    ring is preallocated.  Only registration (obs::counter(name) etc.)
//    allocates, so hot loops must hoist their handles — grab them once
//    during warm-up and keep the reference.
#pragma once

#ifndef SI_OBS_ENABLED
#define SI_OBS_ENABLED 1
#endif

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#if SI_OBS_ENABLED

#include <atomic>
#include <chrono>

namespace si::obs {

/// Runtime master switch.  Seeded at startup from the SI_OBS
/// environment variable ("1"/"on"/"true" enable, "0"/"off"/"false"
/// disable); defaults to off.  Any other value is reported on stderr
/// once and treated as off — probes are noexcept, so this is the one
/// SI_* variable that cannot throw on misconfiguration.
bool enabled();
void set_enabled(bool on);

/// Monotonically increasing event count.  add() is a relaxed atomic
/// increment gated on enabled(); safe from any thread and any hot loop.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    if (enabled()) v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Accumulated duration + call count.  Record through ScopedTimer (or
/// record_ns directly when the interval is measured elsewhere).
class Timer {
 public:
  void record_ns(std::uint64_t ns) noexcept {
    if (!enabled()) return;
    total_ns_.fetch_add(ns, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t total_ns() const noexcept {
    return total_ns_.load(std::memory_order_relaxed);
  }
  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  void reset() noexcept {
    total_ns_.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> total_ns_{0};
  std::atomic<std::uint64_t> count_{0};
};

/// RAII interval: measures construction-to-destruction and records it
/// into the timer.  The clock is only read when telemetry is enabled.
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer& t) noexcept : t_(&t), armed_(enabled()) {
    if (armed_) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (armed_ && enabled())
      t_->record_ns(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start_)
              .count()));
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Timer* t_;
  bool armed_;
  std::chrono::steady_clock::time_point start_;
};

/// Power-of-two histogram over positive values (bin k covers
/// [2^(k-kBias), 2^(k-kBias+1))), preallocated and lock-free — wide
/// enough for anything from sub-femtosecond dt to wall-clock seconds.
/// Zero and negative values land in bin 0.
class Histogram {
 public:
  static constexpr int kBins = 128;
  static constexpr int kBias = 64;

  void record(double v) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  /// min()/max() return 0 until the first record().
  double min() const noexcept {
    return count() ? min_.load(std::memory_order_relaxed) : 0.0;
  }
  double max() const noexcept {
    return count() ? max_.load(std::memory_order_relaxed) : 0.0;
  }
  std::uint64_t bin(int k) const noexcept {
    return bins_[static_cast<std::size_t>(k)].load(std::memory_order_relaxed);
  }
  /// Lower edge of bin k (2^(k-kBias)).
  static double bin_lo(int k) noexcept;
  void reset() noexcept;

 private:
  std::atomic<std::uint64_t> bins_[kBins] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{1e300};
  std::atomic<double> max_{-1e300};
};

/// One completed trace span.  `name` must point at storage that outlives
/// the ring — pass string literals.
struct SpanEvent {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;  ///< steady-clock, process-relative
  std::uint64_t dur_ns = 0;
  std::uint64_t seq = 0;  ///< global completion order
};

/// RAII span: pushes one SpanEvent into the shared preallocated ring on
/// destruction (oldest events are overwritten once the ring is full).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) noexcept
      : name_(name), armed_(enabled()) {
    if (armed_) start_ = std::chrono::steady_clock::now();
  }
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  bool armed_;
  std::chrono::steady_clock::time_point start_;
};

/// Number of SpanEvents the ring retains.
constexpr std::size_t kTraceRingCapacity = 1024;

/// Completed spans, oldest first (at most kTraceRingCapacity).
std::vector<SpanEvent> trace_events();

/// Looks up (registering on first use) the named instrument.  These
/// take a registry lock and may allocate: call during setup / warm-up
/// and keep the reference, never inside an allocation-free hot loop.
Counter& counter(std::string_view name);
Timer& timer(std::string_view name);
Histogram& histogram(std::string_view name);

/// Zeroes every registered instrument and drops buffered trace events
/// (registrations survive).
void reset();

/// JSON object with "enabled"/"compiled" flags plus all registered
/// counters, timers, histograms and the span ring, keys sorted.
std::string snapshot_json();

/// Human-readable aligned table of the same snapshot.
std::string snapshot_table();

}  // namespace si::obs

#else  // !SI_OBS_ENABLED — every probe is an empty inline.

namespace si::obs {

inline bool enabled() { return false; }
inline void set_enabled(bool) {}

class Counter {
 public:
  void add(std::uint64_t = 1) noexcept {}
  std::uint64_t value() const noexcept { return 0; }
  void reset() noexcept {}
};

class Timer {
 public:
  void record_ns(std::uint64_t) noexcept {}
  std::uint64_t total_ns() const noexcept { return 0; }
  std::uint64_t count() const noexcept { return 0; }
  void reset() noexcept {}
};

class ScopedTimer {
 public:
  explicit ScopedTimer(Timer&) noexcept {}
};

class Histogram {
 public:
  static constexpr int kBins = 128;
  static constexpr int kBias = 64;
  void record(double) noexcept {}
  std::uint64_t count() const noexcept { return 0; }
  double sum() const noexcept { return 0.0; }
  double min() const noexcept { return 0.0; }
  double max() const noexcept { return 0.0; }
  std::uint64_t bin(int) const noexcept { return 0; }
  static double bin_lo(int) noexcept { return 0.0; }
  void reset() noexcept {}
};

struct SpanEvent {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t seq = 0;
};

class TraceSpan {
 public:
  explicit TraceSpan(const char*) noexcept {}
};

constexpr std::size_t kTraceRingCapacity = 0;

inline std::vector<SpanEvent> trace_events() { return {}; }

inline Counter& counter(std::string_view) {
  static Counter c;
  return c;
}
inline Timer& timer(std::string_view) {
  static Timer t;
  return t;
}
inline Histogram& histogram(std::string_view) {
  static Histogram h;
  return h;
}

inline void reset() {}

inline std::string snapshot_json() {
  return "{\"compiled\": false, \"enabled\": false, \"counters\": {}, "
         "\"timers\": {}, \"histograms\": {}, \"spans\": []}";
}
inline std::string snapshot_table() {
  return "telemetry compiled out (SI_OBS=OFF)\n";
}

}  // namespace si::obs

#endif  // SI_OBS_ENABLED
