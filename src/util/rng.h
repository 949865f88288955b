// Deterministic, platform-independent RNG (splitmix64-seeded
// xoshiro256**). The library never uses std::random distributions — their
// output is implementation-defined and would break cross-platform
// reproducibility of training runs.

#pragma once

#include <cmath>
#include <cstdint>

namespace hsgd {

/// Complete generator state, exposed so long-running components (the
/// session checkpointer) can persist and restore an Rng bit-exactly.
struct RngState {
  uint64_t s[4] = {0, 0, 0, 0};
  bool has_spare = false;
  double spare = 0.0;
};

class Rng {
 public:
  /// `stream` decorrelates generators sharing one user seed (model init,
  /// shuffles, scheduler, device variability each get their own stream).
  explicit Rng(uint64_t seed, uint64_t stream = 0) {
    uint64_t x = seed * 0x9E3779B97F4A7C15ull + (stream + 1) * 0xBF58476D1CE4E5B9ull;
    for (int i = 0; i < 4; ++i) state_[i] = SplitMix64(&x);
  }

  uint64_t NextU64() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  float NextFloat() {
    return static_cast<float>(NextU64() >> 40) * 0x1.0p-24f;
  }

  /// Uniform integer in [0, n); n must be > 0.
  int64_t UniformInt(int64_t n) {
    // Modulo bias is negligible for n << 2^64 (our use cases).
    return static_cast<int64_t>(NextU64() % static_cast<uint64_t>(n));
  }

  /// Standard normal via Box-Muller (deterministic across platforms).
  double Gaussian() {
    if (has_spare_) {
      has_spare_ = false;
      return spare_;
    }
    double u1, u2;
    do {
      u1 = NextDouble();
    } while (u1 <= 1e-12);
    u2 = NextDouble();
    double mag = std::sqrt(-2.0 * std::log(u1));
    double two_pi_u2 = 2.0 * 3.14159265358979323846 * u2;
    spare_ = mag * std::sin(two_pi_u2);
    has_spare_ = true;
    return mag * std::cos(two_pi_u2);
  }

  RngState SaveState() const {
    RngState st;
    for (int i = 0; i < 4; ++i) st.s[i] = state_[i];
    st.has_spare = has_spare_;
    st.spare = spare_;
    return st;
  }

  void RestoreState(const RngState& st) {
    for (int i = 0; i < 4; ++i) state_[i] = st.s[i];
    has_spare_ = st.has_spare;
    spare_ = st.spare;
  }

 private:
  static uint64_t SplitMix64(uint64_t* x) {
    uint64_t z = (*x += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
  bool has_spare_ = false;
  double spare_ = 0.0;
};

}  // namespace hsgd
