#ifndef SMARTDD_COMMON_TIMER_H_
#define SMARTDD_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>

namespace smartdd {

/// Milliseconds on the monotonic clock (for deadlines and ages, not dates).
inline uint64_t NowMsSteady() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  /// Elapsed time since construction / last Restart, in seconds.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }
  double ElapsedMicros() const { return ElapsedSeconds() * 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace smartdd

#endif  // SMARTDD_COMMON_TIMER_H_
