// Cooperative cancellation for long-running solves.
//
// A CancelToken is an atomic cancel flag plus an optional steady-clock
// deadline.  The owner (the job server, a CLI watchdog, a test) arms
// it; the solver loops call checkpoint() at their natural iteration
// boundaries — once per Newton iteration of spice::NewtonCore, the
// loop under MnaEngine, ScopedMnaEngine and McDcEngine, which bounds
// the reaction latency of a DC, transient, or Monte-Carlo job to a
// single Newton iteration.
// checkpoint() throws CancelledError, which is NOT a ConvergenceError:
// the gmin-stepping ladder and the event engine's full-activation retry
// only swallow ConvergenceError, so a cancellation always unwinds out
// of the analysis instead of being retried at a different gmin.
//
// Header-only so si_spice can take a `const CancelToken*` in
// NewtonOptions without linking si_runtime.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>

namespace si::runtime {

/// Thrown by CancelToken::checkpoint() when the token was cancelled or
/// its deadline passed.  deadline_expired() distinguishes the two so a
/// job server can reply "timeout" vs "cancelled".
class CancelledError : public std::runtime_error {
 public:
  explicit CancelledError(bool deadline_expired)
      : std::runtime_error(deadline_expired ? "deadline expired"
                                            : "cancelled"),
        deadline_expired_(deadline_expired) {}

  bool deadline_expired() const { return deadline_expired_; }

 private:
  bool deadline_expired_;
};

/// Shared cancellation state.  cancel() / set_deadline() may race with
/// checkpoint() from any thread: all state is relaxed-atomic, and a
/// checkpoint never blocks.
class CancelToken {
 public:
  /// Requests cancellation; every later checkpoint() throws.
  void cancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }

  /// Arms an absolute steady-clock deadline.
  void set_deadline(std::chrono::steady_clock::time_point t) noexcept {
    deadline_ns_.store(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            t.time_since_epoch())
            .count(),
        std::memory_order_relaxed);
  }

  /// Arms a deadline `budget` from now.
  void set_timeout(std::chrono::nanoseconds budget) noexcept {
    set_deadline(std::chrono::steady_clock::now() + budget);
  }

  bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_relaxed);
  }

  bool deadline_expired() const noexcept {
    const std::int64_t d = deadline_ns_.load(std::memory_order_relaxed);
    if (d == 0) return false;
    return std::chrono::steady_clock::now().time_since_epoch() >=
           std::chrono::nanoseconds(d);
  }

  /// True when the next checkpoint() would throw.
  bool stop_requested() const noexcept {
    return cancelled() || deadline_expired();
  }

  /// Throws CancelledError when cancelled or past the deadline; a no-op
  /// otherwise.  Cost on the live path: one relaxed load, plus a clock
  /// read when a deadline is armed.
  void checkpoint() const {
    if (cancelled()) throw CancelledError(/*deadline_expired=*/false);
    if (deadline_expired()) throw CancelledError(/*deadline_expired=*/true);
  }

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<std::int64_t> deadline_ns_{0};  // steady-clock ns; 0 = none
};

}  // namespace si::runtime
