// Clock abstraction decoupling the measurement layer from the time source.
//
// The paper's profiler takes timestamps at every enter/exit/task event.  In
// this reproduction the same measurement code runs against two engines:
//
//  * the real-thread engine, where time is std::chrono::steady_clock, and
//  * the discrete-event simulator, where each virtual worker owns a virtual
//    tick counter.
//
// Clock is deliberately a tiny interface: one call, no state visible to the
// caller.  EventClock is the real engine's per-worker clock: one wall-clock
// read per scheduler event, shared by every listener of that event (the
// simulator's per-worker virtual clocks have the same property by
// construction).  ManualClock exists for deterministic unit tests that
// replay the event streams of the paper's figures with hand-picked
// timestamps.
#pragma once

#include <chrono>
#include <limits>

#include "common/types.hpp"

namespace taskprof {

/// Source of timestamps for the measurement layer.
///
/// Implementations must be monotonic: successive now() calls on the same
/// thread never decrease.  Thread safety is implementation-defined; the
/// engines hand each worker its own Clock (or a thread-safe one).
class Clock {
 public:
  virtual ~Clock() = default;

  /// Current time in ticks (nanoseconds).
  [[nodiscard]] virtual Ticks now() const noexcept = 0;
};

/// Wall-clock time via std::chrono::steady_clock.  Thread-safe.
class SteadyClock final : public Clock {
 public:
  [[nodiscard]] Ticks now() const noexcept override { return read(); }

  [[nodiscard]] static Ticks read() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
};

/// The time of the scheduler event being dispatched on one worker.  The
/// engine calls mark() before each event it dispatches on the worker's
/// thread; the first now() after it reads std::chrono::steady_clock and
/// latches the value, and every later now() of the same event returns
/// the latch.  So all listeners of one event see one timestamp, and a
/// listener that never asks for the time costs no read.  Between events
/// now() keeps returning the last event's time.
///
/// Single-owner: mark() and now() run on the owning worker's thread, or
/// on another thread once the worker has been joined.  Aligned to its
/// own cache line because it is written on every hooked event.
class alignas(64) EventClock final : public Clock {
 public:
  /// A new event starts: the next now() reads the wall clock.
  void mark() noexcept { stamp_ = kUnread; }

  [[nodiscard]] Ticks now() const noexcept override {
    if (stamp_ == kUnread) stamp_ = SteadyClock::read();
    return stamp_;
  }

 private:
  static constexpr Ticks kUnread = std::numeric_limits<Ticks>::min();
  mutable Ticks stamp_ = kUnread;
};

/// Hand-driven clock for tests.  Not thread-safe.
class ManualClock final : public Clock {
 public:
  ManualClock() = default;
  explicit ManualClock(Ticks start) : now_(start) {}

  [[nodiscard]] Ticks now() const noexcept override { return now_; }

  /// Move time forward by `delta` ticks (delta >= 0).
  void advance(Ticks delta) noexcept { now_ += delta; }

  /// Jump to an absolute time (must not move backwards in normal use).
  void set(Ticks t) noexcept { now_ = t; }

 private:
  Ticks now_ = 0;
};

}  // namespace taskprof
