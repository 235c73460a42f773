#pragma once

/// \file process_set.hpp
/// A subset of Pi = {0, ..., n-1} with set algebra, used for the HO, SHO,
/// AHO, kernel and altered-span computations.  Implemented as a packed
/// bitset over 64-bit blocks; all operations require both operands to be
/// over the same universe size n.
///
/// Universes up to 64 processes — every campaign this repository runs —
/// are stored inline in a single word, so constructing, copying and
/// combining the sets on the simulation hot path never touches the heap;
/// larger universes spill to a block vector transparently.  The in-place
/// mutators (intersect_with & co.) are the allocation-free counterparts of
/// the value-returning algebra and should be preferred in loops.

#include <cstdint>
#include <string>
#include <vector>

#include "model/types.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace hoval {

/// Subset of the process universe {0, ..., n-1}.
class ProcessSet {
 public:
  /// Empty set over a universe of size `n` (n >= 0).
  explicit ProcessSet(int n = 0);

  ProcessSet(const ProcessSet&) = default;
  ProcessSet(ProcessSet&&) noexcept = default;
  ProcessSet& operator=(ProcessSet&&) noexcept = default;
  /// Copying an inline set (n <= 64) is a two-word store; the block
  /// vector is only touched when either side has spilled.
  ProcessSet& operator=(const ProcessSet& other) {
    n_ = other.n_;
    inline_ = other.inline_;
    if (!spill_.empty() || !other.spill_.empty()) spill_ = other.spill_;
    return *this;
  }

  /// The full universe {0, ..., n-1}.
  static ProcessSet universe(int n);

  /// Builds a set from explicit member ids (each in [0, n)).
  static ProcessSet of(int n, const std::vector<ProcessId>& members);

  /// Universe size n (not the cardinality).
  int universe_size() const noexcept { return n_; }

  /// Number of members.
  int count() const noexcept {
    const std::uint64_t* words = blocks();
    int total = 0;
    for (std::size_t i = 0; i < block_count(); ++i)
      total += __builtin_popcountll(words[i]);
    return total;
  }

  bool empty() const noexcept {
    // Early-exit on the first nonzero word instead of popcounting every
    // block via count() — this predicate sits on the kernel/altered-span
    // hot path where the answer is usually decided by word zero.
    const std::uint64_t* words = blocks();
    for (std::size_t i = 0; i < block_count(); ++i)
      if (words[i] != 0) return false;
    return true;
  }

  // Single-member probes are inline (they sit inside the per-link loops
  // of the delivery kernel); the universe check stays on.
  bool contains(ProcessId p) const {
    HOVAL_EXPECTS_MSG(p >= 0 && p < n_, "process id out of universe");
    return (blocks()[static_cast<std::size_t>(p) / 64] >>
            (static_cast<std::size_t>(p) % 64)) & 1u;
  }
  void insert(ProcessId p) {
    HOVAL_EXPECTS_MSG(p >= 0 && p < n_, "process id out of universe");
    blocks()[static_cast<std::size_t>(p) / 64] |=
        std::uint64_t{1} << (static_cast<std::size_t>(p) % 64);
  }
  void erase(ProcessId p) {
    HOVAL_EXPECTS_MSG(p >= 0 && p < n_, "process id out of universe");
    blocks()[static_cast<std::size_t>(p) / 64] &=
        ~(std::uint64_t{1} << (static_cast<std::size_t>(p) % 64));
  }
  void clear() noexcept {
    inline_ = 0;
    for (auto& block : spill_) block = 0;
  }

  /// Set algebra; operands must share the same universe size.
  ProcessSet intersect(const ProcessSet& other) const;
  ProcessSet unite(const ProcessSet& other) const;
  ProcessSet subtract(const ProcessSet& other) const;
  ProcessSet complement() const;

  /// In-place set algebra: *this becomes the intersection/union/difference
  /// with `other` without constructing a new set.
  void intersect_with(const ProcessSet& other);
  void unite_with(const ProcessSet& other);
  void subtract_with(const ProcessSet& other);

  /// *this ∪= (a \ b) in one word-parallel pass, without materialising the
  /// difference — the AHO-accumulation primitive (see HoRecord::aho()).
  void unite_with_difference(const ProcessSet& a, const ProcessSet& b);

  /// Replaces the membership with one independent Bernoulli trial per
  /// universe element, drawn word-at-a-time from `coins` (64 lanes per
  /// block) — the bit-parallel victim draw of the adversary kernel.
  /// Returns the resulting cardinality.
  int assign_bernoulli(Rng& rng, BernoulliBlock& coins);

  /// Replaces the membership with a uniformly distributed k-subset of the
  /// universe via Floyd's algorithm: k bounded draws, no pool, no heap.
  /// Requires 0 <= k <= n.
  void assign_random_subset(Rng& rng, int k);

  /// Shrinks the membership to a uniformly distributed k-subset of the
  /// current members by repeatedly erasing a uniformly chosen member (a
  /// no-op when k >= count()).  Requires k >= 0.
  void keep_random_subset(Rng& rng, int k);

  /// |*this \ other| without materialising the difference.
  int subtract_count(const ProcessSet& other) const;

  /// True when every member of *this is a member of `other`.
  bool is_subset_of(const ProcessSet& other) const;

  /// Members in increasing order.
  std::vector<ProcessId> members() const;

  /// Applies `fn(ProcessId)` to each member in increasing order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::uint64_t* words = blocks();
    const int total = static_cast<int>(block_count());
    for (int b = 0; b < total; ++b) {
      std::uint64_t word = words[b];
      while (word != 0) {
        const int bit = __builtin_ctzll(word);
        fn(static_cast<ProcessId>(b * 64 + bit));
        word &= word - 1;
      }
    }
  }

  friend bool operator==(const ProcessSet& a, const ProcessSet& b) {
    return a.n_ == b.n_ && a.inline_ == b.inline_ && a.spill_ == b.spill_;
  }
  friend bool operator!=(const ProcessSet& a, const ProcessSet& b) {
    return !(a == b);
  }

  /// Rendering like "{0, 2, 5}".
  std::string to_string() const;

 private:
  /// Largest universe stored in the inline word.
  static constexpr int kInlineBits = 64;

  bool is_inline() const noexcept { return n_ <= kInlineBits; }
  std::size_t block_count() const noexcept {
    return static_cast<std::size_t>((n_ + 63) / 64);
  }
  const std::uint64_t* blocks() const noexcept {
    return is_inline() ? &inline_ : spill_.data();
  }
  std::uint64_t* blocks() noexcept {
    return is_inline() ? &inline_ : spill_.data();
  }

  void check_same_universe(const ProcessSet& other) const;
  void trim_tail() noexcept;

  int n_ = 0;
  std::uint64_t inline_ = 0;           ///< the only storage when n <= 64
  std::vector<std::uint64_t> spill_;   ///< blocks when n > 64, else empty
};

}  // namespace hoval
