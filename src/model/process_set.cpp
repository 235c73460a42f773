#include "model/process_set.hpp"

#include "util/check.hpp"
#include "util/format.hpp"

namespace hoval {

ProcessSet::ProcessSet(int n) : n_(n) {
  HOVAL_EXPECTS_MSG(n >= 0, "universe size must be non-negative");
  if (!is_inline()) spill_.assign(block_count(), 0);
}

ProcessSet ProcessSet::universe(int n) {
  ProcessSet s(n);
  std::uint64_t* words = s.blocks();
  for (std::size_t i = 0; i < s.block_count(); ++i) words[i] = ~std::uint64_t{0};
  s.trim_tail();
  return s;
}

ProcessSet ProcessSet::of(int n, const std::vector<ProcessId>& members) {
  ProcessSet s(n);
  for (ProcessId p : members) s.insert(p);
  return s;
}

ProcessSet ProcessSet::intersect(const ProcessSet& other) const {
  ProcessSet out = *this;
  out.intersect_with(other);
  return out;
}

ProcessSet ProcessSet::unite(const ProcessSet& other) const {
  ProcessSet out = *this;
  out.unite_with(other);
  return out;
}

ProcessSet ProcessSet::subtract(const ProcessSet& other) const {
  ProcessSet out = *this;
  out.subtract_with(other);
  return out;
}

ProcessSet ProcessSet::complement() const {
  ProcessSet out(n_);
  const std::uint64_t* words = blocks();
  std::uint64_t* result = out.blocks();
  for (std::size_t i = 0; i < block_count(); ++i) result[i] = ~words[i];
  out.trim_tail();
  return out;
}

void ProcessSet::intersect_with(const ProcessSet& other) {
  check_same_universe(other);
  std::uint64_t* words = blocks();
  const std::uint64_t* theirs = other.blocks();
  for (std::size_t i = 0; i < block_count(); ++i) words[i] &= theirs[i];
}

void ProcessSet::unite_with_difference(const ProcessSet& a,
                                       const ProcessSet& b) {
  check_same_universe(a);
  check_same_universe(b);
  std::uint64_t* words = blocks();
  const std::uint64_t* first = a.blocks();
  const std::uint64_t* second = b.blocks();
  for (std::size_t i = 0; i < block_count(); ++i)
    words[i] |= first[i] & ~second[i];
}

int ProcessSet::assign_bernoulli(Rng& rng, BernoulliBlock& coins) {
  std::uint64_t* words = blocks();
  int total = 0;
  int remaining = n_;
  for (std::size_t i = 0; i < block_count(); ++i) {
    const int lanes = remaining < 64 ? remaining : 64;
    words[i] = coins.take(rng, lanes);
    total += __builtin_popcountll(words[i]);
    remaining -= lanes;
  }
  return total;
}

void ProcessSet::assign_random_subset(Rng& rng, int k) {
  HOVAL_EXPECTS_MSG(k >= 0 && k <= n_,
                    "cannot sample more elements than the universe");
  clear();
  // Floyd's algorithm; membership tests are O(1) bit probes here, so the
  // whole draw is k bounded draws plus k word operations.
  for (int i = n_ - k; i < n_; ++i) {
    const auto j =
        static_cast<int>(rng.below(static_cast<std::uint64_t>(i) + 1));
    if (contains(j))
      insert(i);
    else
      insert(j);
  }
}

void ProcessSet::keep_random_subset(Rng& rng, int k) {
  HOVAL_EXPECTS_MSG(k >= 0, "subset size must be non-negative");
  int m = count();
  std::uint64_t* words = blocks();
  while (m > k) {
    // Erase the rank-th member (uniform over the m current members); a
    // chain of uniform single erasures yields a uniform k-subset.
    auto rank = static_cast<int>(rng.below(static_cast<std::uint64_t>(m)));
    for (std::size_t b = 0; b < block_count(); ++b) {
      const int pop = __builtin_popcountll(words[b]);
      if (rank >= pop) {
        rank -= pop;
        continue;
      }
      std::uint64_t word = words[b];
      for (; rank > 0; --rank) word &= word - 1;  // drop `rank` low members
      words[b] &= ~(word & (~word + 1));          // clear the lowest survivor
      break;
    }
    --m;
  }
}

int ProcessSet::subtract_count(const ProcessSet& other) const {
  check_same_universe(other);
  const std::uint64_t* words = blocks();
  const std::uint64_t* theirs = other.blocks();
  int total = 0;
  for (std::size_t i = 0; i < block_count(); ++i)
    total += __builtin_popcountll(words[i] & ~theirs[i]);
  return total;
}

bool ProcessSet::is_subset_of(const ProcessSet& other) const {
  check_same_universe(other);
  const std::uint64_t* words = blocks();
  const std::uint64_t* theirs = other.blocks();
  for (std::size_t i = 0; i < block_count(); ++i)
    if ((words[i] & ~theirs[i]) != 0) return false;
  return true;
}

std::vector<ProcessId> ProcessSet::members() const {
  std::vector<ProcessId> out;
  out.reserve(static_cast<std::size_t>(count()));
  for_each([&](ProcessId p) { out.push_back(p); });
  return out;
}

std::string ProcessSet::to_string() const {
  std::vector<std::string> parts;
  for_each([&](ProcessId p) { parts.push_back(std::to_string(p)); });
  return "{" + join(parts, ", ") + "}";
}

void ProcessSet::check_same_universe(const ProcessSet& other) const {
  HOVAL_EXPECTS_MSG(n_ == other.n_, "set operation across different universes");
}

void ProcessSet::trim_tail() noexcept {
  const int tail_bits = n_ % 64;
  if (tail_bits != 0 && block_count() > 0)
    blocks()[block_count() - 1] &= (std::uint64_t{1} << tail_bits) - 1;
}

}  // namespace hoval
