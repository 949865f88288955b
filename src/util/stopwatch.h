// Wall-clock stopwatch (real time, as opposed to SimTime which is the
// simulator's virtual clock).

#pragma once

#include <chrono>

namespace hsgd {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double Millis() const { return Seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace hsgd
