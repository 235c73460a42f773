#include "util/rng.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace hoval {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                       std::uint64_t d) noexcept {
  SplitMix64 sm(a);
  std::uint64_t acc = sm.next();
  acc ^= SplitMix64(b ^ 0x9e3779b97f4a7c15ULL).next() + rotl(acc, 17);
  acc ^= SplitMix64(c ^ 0xbf58476d1ce4e5b9ULL).next() + rotl(acc, 31);
  acc ^= SplitMix64(d ^ 0x94d049bb133111ebULL).next() + rotl(acc, 47);
  return acc;
}

Rng::Rng(std::uint64_t seed) noexcept {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.next();
}

double Rng::uniform() noexcept {
  // 53 high bits -> double in [0,1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::chance(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

std::vector<std::size_t> Rng::sample(std::size_t n, std::size_t k) {
  std::vector<std::size_t> pool;
  sample_into(n, k, pool);
  return pool;
}

void Rng::sample_into(std::size_t n, std::size_t k,
                      std::vector<std::size_t>& out) {
  HOVAL_EXPECTS_MSG(k <= n, "cannot sample more elements than the population");
  // Floyd's algorithm: k draws and a k-bounded membership scan, so the
  // cost scales with the sample, not the population (the old partial
  // Fisher–Yates rebuilt the full 0..n-1 pool in O(n) per call).  Above
  // the cutoff the membership scans would dominate, so dense draws keep
  // the pool-based path.
  constexpr std::size_t kFloydCutoff = 64;
  if (k <= kFloydCutoff) {
    out.clear();
    for (std::size_t i = n - k; i < n; ++i) {
      const auto j = static_cast<std::size_t>(below(i + 1));
      const bool seen = std::find(out.begin(), out.end(), j) != out.end();
      out.push_back(seen ? i : j);
    }
    return;
  }
  out.resize(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(below(n - i));
    std::swap(out[i], out[j]);
  }
  out.resize(k);
}

void Rng::fill(std::uint64_t* out, std::size_t count) noexcept {
  for (std::size_t i = 0; i < count; ++i) out[i] = next();
}

BernoulliBlock::BernoulliBlock(double p) noexcept {
  if (p >= 1.0) {
    always_ = true;
    return;
  }
  if (p <= 0.0) return;
  // 0.32 fixed point; a probability that rounds up to 2^32 is
  // indistinguishable from 1 at this precision.
  const double scaled = p * 4294967296.0;
  const auto rounded = static_cast<std::uint64_t>(scaled + 0.5);
  if (rounded >= (std::uint64_t{1} << 32)) {
    always_ = true;
    return;
  }
  pattern_ = static_cast<std::uint32_t>(rounded);
  if (pattern_ != 0) start_bit_ = __builtin_ctz(pattern_);
}

std::uint64_t BernoulliBlock::refill(Rng& rng) noexcept {
  // Truncated binary expansion, least significant bit first: a lane is a
  // success iff its uniform word is below the pattern at the first
  // differing bit.  Folding from the bottom, a set pattern bit keeps every
  // lane that wins here or later (OR), a clear bit keeps only lanes still
  // winning later (AND).  Trailing zero bits of the pattern are no-ops on
  // an all-zero accumulator, so the fold starts at the lowest set bit.
  std::uint64_t mask = 0;
  for (int bit = start_bit_; bit < 32; ++bit) {
    const std::uint64_t r = rng.next();
    mask = ((pattern_ >> bit) & 1u) != 0 ? (mask | r) : (mask & r);
  }
  return mask;
}

std::uint64_t BernoulliBlock::take(Rng& rng, int count) noexcept {
  if (count <= 0) return 0;
  if (count > 64) count = 64;
  const std::uint64_t want =
      count >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << count) - 1;
  if (always_) return want;
  if (pattern_ == 0) return 0;
  if (available_ >= count) {
    const std::uint64_t out = buffer_ & want;
    buffer_ = count >= 64 ? 0 : buffer_ >> count;
    available_ -= count;
    return out;
  }
  const std::uint64_t fresh = refill(rng);
  const int need = count - available_;
  const std::uint64_t need_mask =
      need >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << need) - 1;
  const std::uint64_t out =
      (buffer_ | ((fresh & need_mask) << available_)) & want;
  buffer_ = need >= 64 ? 0 : fresh >> need;
  available_ = 64 - need;
  return out;
}

Rng Rng::fork(std::uint64_t label) noexcept {
  return Rng(mix_seed(next(), label, 0x5851f42d4c957f2dULL));
}

}  // namespace hoval
