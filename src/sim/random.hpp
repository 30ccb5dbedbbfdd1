// Deterministic pseudo-random number generation (xoshiro256**) so every
// simulation run is exactly reproducible from its seed.
#pragma once

#include <cstdint>

namespace sv::sim {

class Rng {
 public:
  static constexpr std::uint64_t kDefaultSeed = 0x57AE2701B0A9E5ULL;

  explicit Rng(std::uint64_t seed = kDefaultSeed) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    // SplitMix64 expansion of the seed into the xoshiro state.
    std::uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9E3779B97F4A7C15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      s = z ^ (z >> 31);
    }
  }

  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, bound). bound must be nonzero.
  std::uint64_t below(std::uint64_t bound) {
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const std::uint64_t r = next();
      if (r >= threshold) {
        return r % bound;
      }
    }
  }

  /// Uniform in [lo, hi] inclusive.
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi) {
    return lo + below(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  bool chance(double p) { return uniform() < p; }

  /// Raw xoshiro state, for checkpointing: a snapshot digests the draw
  /// cursor of every stream (DESIGN.md §14).
  struct State {
    std::uint64_t s[4];
  };
  [[nodiscard]] State state() const {
    return {{state_[0], state_[1], state_[2], state_[3]}};
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4] = {};
};

}  // namespace sv::sim
