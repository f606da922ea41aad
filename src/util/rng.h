// Deterministic, seedable random number generation.
//
// All randomized components in wmatch take an explicit Rng& so that every
// experiment and test is reproducible from a single seed. The engine is
// xoshiro256** seeded via splitmix64, which is fast, high quality, and
// stable across platforms (unlike std::default_random_engine).
#pragma once

#include <cstdint>
#include <vector>

namespace wmatch {

class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform 64-bit value. Defined here (like next_below) so the hot
  /// sampling loops inline it.
  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// UniformRandomBitGenerator interface (usable with <random> and
  /// std::shuffle).
  std::uint64_t operator()() { return next(); }
  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() { return ~0ULL; }

  /// Uniform integer in [0, bound). bound must be > 0 (a zero bound
  /// throws std::invalid_argument).
  std::uint64_t next_below(std::uint64_t bound) {
    if (bound == 0) zero_bound();
    // Lemire rejection-free-ish method with rejection for exactness.
    std::uint64_t threshold = (~bound + 1) % bound;  // (2^64 - bound) mod bound
    for (;;) {
      std::uint64_t r = next();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t next_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double next_double();

  /// Bernoulli trial with success probability p.
  bool next_bool(double p = 0.5);

  /// Derive an independent child generator (for parallel-in-spirit
  /// components that must not share a stream).
  Rng split();

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  [[noreturn]] static void zero_bound();
  friend class FixedBound;

  std::uint64_t s_[4];
};

/// Rng::next_below for one bound drawn from many times. Returns exactly
/// what rng.next_below(bound) would and consumes the same raw draws,
/// rejected ones included, but does its divisions once, at construction:
/// r mod bound is the direct remainder of Lemire, Kaser and Kurz, "Faster
/// Remainder by Direct Computation" (2019), exact for every 64-bit r and
/// bound. A one-off draw is cheaper through next_below, which skips the
/// 128-bit division that sets this up.
class FixedBound {
 public:
  /// bound must be > 0 (a zero bound throws std::invalid_argument).
  explicit FixedBound(std::uint64_t bound) : bound_(bound) {
    if (bound == 0) Rng::zero_bound();
    threshold_ = (~bound + 1) % bound;
    // c = floor((2^128 - 1) / bound) + 1; it wraps to 0 for bound 1.
    magic_ = ~static_cast<unsigned __int128>(0) / bound + 1;
  }

  /// Uniform integer in [0, bound). Always inlined: the sampling loops
  /// that use it lose most of the gain to a call.
  [[gnu::always_inline]] std::uint64_t operator()(Rng& rng) const {
    for (;;) {
      const std::uint64_t r = rng.next();
      if (r >= threshold_) return remainder(r);
    }
  }

 private:
  // floor(((c * r) mod 2^128) * bound / 2^128), from two 64x64 products.
  [[gnu::always_inline]] std::uint64_t remainder(std::uint64_t r) const {
    const unsigned __int128 low = magic_ * r;
    const unsigned __int128 bottom =
        (static_cast<unsigned __int128>(static_cast<std::uint64_t>(low)) *
         bound_) >> 64;
    const unsigned __int128 top =
        static_cast<unsigned __int128>(static_cast<std::uint64_t>(low >> 64)) *
        bound_;
    return static_cast<std::uint64_t>((bottom + top) >> 64);
  }

  std::uint64_t bound_ = 1;
  std::uint64_t threshold_ = 0;  ///< (2^64 - bound) mod bound, as in next_below
  unsigned __int128 magic_ = 0;
};

}  // namespace wmatch
