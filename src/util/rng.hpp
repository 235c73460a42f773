#pragma once

/// \file rng.hpp
/// Deterministic pseudo-random number generation for reproducible
/// simulations.  We implement SplitMix64 (for seeding) and xoshiro256**
/// (as the workhorse generator) from scratch so that every platform and
/// standard library produces bit-identical fault schedules for a given
/// seed — a requirement for reproducible adversary behaviour across runs.

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "util/hash.hpp"

namespace hoval {

/// SplitMix64: tiny, fast generator used to expand a single 64-bit seed
/// into the larger state of xoshiro256**.  Also usable standalone for
/// cheap hashing of (seed, round, process) tuples.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  /// Next 64-bit value.
  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Stateless mixing of several 64-bit words into one; used to derive
/// independent sub-streams (e.g. one RNG per channel) from a master seed.
std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b, std::uint64_t c = 0,
                       std::uint64_t d = 0) noexcept;

/// The one blessed derivation of a *campaign base seed* from a base seed
/// and a small label (phase index, sweep point, table row, ...).  Benches
/// and the CLI used to hand-roll `base + k` arithmetic at every call site;
/// routing it through here keeps the convention in one place (and keeps
/// historical campaign results bit-identical, hence the plain addition).
/// Per-run streams are a different concern — the CampaignEngine derives
/// those via mix_seed(base, run, stream).
constexpr std::uint64_t derived_seed(std::uint64_t base,
                                     std::uint64_t label) noexcept {
  return base + label;
}

/// Derives a campaign base seed from a base seed plus an arbitrary byte
/// string (canonically serialised sweep coordinates, a point's parameter
/// tuple, ...).  Unlike derived_seed's plain addition — where
/// derived_seed(b, 1) == derived_seed(b + 1, 0), so two *different grids*
/// over the same base seed can hand one seed to two distinct axis-value
/// tuples — this keys the whole identity into an FNV-1a digest, so any
/// change to the bytes (or the base) moves the seed.  The refinement layer
/// (src/refine/) uses it to give every refined point a seed that is a pure
/// function of its axis values, independent of submission order.
constexpr std::uint64_t derived_seed_from_bytes(std::uint64_t base,
                                                std::string_view bytes) noexcept {
  return fnv1a64(bytes, fnv1a64_mix(kFnv1a64OffsetBasis, base));
}

/// xoshiro256**: public-domain generator by Blackman & Vigna.  Fast,
/// 256-bit state, passes BigCrush; more than adequate for fault-injection
/// schedules.  Satisfies the UniformRandomBitGenerator concept so it can
/// be plugged into <random> distributions if ever needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words via SplitMix64 as recommended by the
  /// xoshiro authors; any 64-bit seed (including 0) is valid.
  explicit Rng(std::uint64_t seed = 0xD1CEBEEFCAFEF00DULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

  /// Next raw 64-bit value.
  result_type operator()() noexcept { return next(); }
  result_type next() noexcept {
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

  /// Uniform integer in [0, bound) using Lemire's unbiased multiply-shift
  /// rejection method.  bound must be > 0.
  std::uint64_t below(std::uint64_t bound) noexcept {
    if (bound == 0) return 0;  // degenerate; callers check, but stay total
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (low < threshold) {
        x = next();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive; requires lo <= hi.
  std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept {
    if (lo > hi) return lo;
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(below(span));
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool chance(double p) noexcept;

  /// Chooses k distinct indices out of [0, n): an unordered, uniformly
  /// distributed k-subset (the order of the returned indices is
  /// unspecified).  Requires k <= n.  Small draws (k <= 64) use Floyd's
  /// algorithm, so the cost scales with k, not with the population size;
  /// larger draws fall back to a partial Fisher–Yates over the full pool.
  std::vector<std::size_t> sample(std::size_t n, std::size_t k);

  /// sample() into a caller-provided buffer (left holding exactly the k
  /// chosen indices), reusing its capacity — the allocation-free variant
  /// for hot loops.  Consumes identical draws and produces identical
  /// results to sample().
  void sample_into(std::size_t n, std::size_t k, std::vector<std::size_t>& out);

  /// Fills out[0..count) with raw 64-bit draws — the batched variant of
  /// next() for callers that consume randomness a block at a time.
  void fill(std::uint64_t* out, std::size_t count) noexcept;

  /// In-place Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) noexcept {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Derives an independent generator for a labelled sub-stream.
  Rng fork(std::uint64_t label) noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_{};
};

/// Batched Bernoulli lane generator: hands out independent Bernoulli(p)
/// trials 64 *lanes* at a time, packed into the bits of a word — the
/// block-RNG primitive of the bit-parallel run kernel.  A per-link
/// `rng.chance(p)` loop costs one 64-bit draw (plus a double compare) per
/// link; a BernoulliBlock materialises 64 links per refill at at most 32
/// draws, and buffers unused lanes across calls, so consecutive
/// per-receiver masks of a round share refills.
///
/// The success probability is quantised to 32 fractional bits (the classic
/// truncated-binary-expansion construction: fold one uniform word per set
/// bit of the expansion).  The per-trial bias is below 2^-32 — invisible
/// to any Monte-Carlo estimate this repository runs — and the stream is a
/// pure function of (p, the Rng state), so fault schedules stay fully
/// reproducible.
class BernoulliBlock {
 public:
  /// Prepares lanes with success probability `p` (clamped to [0,1]).
  explicit BernoulliBlock(double p) noexcept;

  /// The next `count` lanes (0 <= count <= 64), packed into the low
  /// `count` bits of the result.  Degenerate probabilities (quantised to
  /// 0 or 1) consume no draws, mirroring Rng::chance's short-circuits.
  std::uint64_t take(Rng& rng, int count) noexcept;

  /// True when every lane is guaranteed 1 (p quantised to 1).
  bool always() const noexcept { return always_; }
  /// True when every lane is guaranteed 0 (p quantised to 0).
  bool never() const noexcept { return pattern_ == 0 && !always_; }

 private:
  std::uint64_t refill(Rng& rng) noexcept;  ///< 64 fresh lanes

  std::uint32_t pattern_ = 0;  ///< p in 0.32 fixed point
  int start_bit_ = 0;          ///< lowest set bit of pattern_
  std::uint64_t buffer_ = 0;   ///< leftover lanes, low-aligned
  int available_ = 0;          ///< lanes currently buffered
  bool always_ = false;
};

}  // namespace hoval
