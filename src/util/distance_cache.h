#ifndef URPSM_SRC_UTIL_DISTANCE_CACHE_H_
#define URPSM_SRC_UTIL_DISTANCE_CACHE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>

namespace urpsm {

/// The paper's shared shortest-distance cache (Sec. 6.1) as one flat,
/// 4-way set-associative table allocated once.
///
/// Each set is one 64-byte line holding four keys and four values, most
/// recently used first: a hit moves its slot to the front and an insert
/// drops the last one, so every set is an exact LRU of its ways. A
/// multiplicative hash picks the set, and a hit costs one line — no
/// nodes, no allocation. Key 0 marks an empty slot; callers never pass it.
///
/// `capacity` is a hard bound on entries: the table has ways =
/// min(4, capacity) slots per set and the largest power-of-two set count
/// with sets * ways <= capacity. Capacity 0 disables caching (every Get
/// misses, Put is a no-op).
///
/// Thread-safety: every call may run concurrently. A set is guarded by
/// one of 64 striped mutexes (set index mod 64), which also guards that
/// stripe's hit/miss counters. Two threads that miss on the same key may
/// both Put it; the second Put refreshes the entry, which is harmless for
/// the pure-function values (shortest distances) cached here.
class DistanceCache {
 public:
  static constexpr int kWays = 4;
  static constexpr std::size_t kStripes = 64;

  explicit DistanceCache(std::size_t capacity)
      : ways_(capacity < kWays ? static_cast<int>(capacity) : kWays) {
    while (ways_ > 0 && num_sets_ * 2 * static_cast<std::size_t>(ways_) <=
                            capacity) {
      num_sets_ *= 2;
      ++set_bits_;
    }
    // calloc hands a large table out as untouched zero pages, so resident
    // memory grows with the sets in use, not with the capacity. One spare
    // set pays for aligning the table to cache lines.
    raw_.reset(std::calloc(num_sets_ + 1, sizeof(Set)));
    if (raw_ == nullptr) throw std::bad_alloc();
    const auto addr = reinterpret_cast<std::uintptr_t>(raw_.get());
    sets_ = reinterpret_cast<Set*>((addr + alignof(Set) - 1) &
                                   ~std::uintptr_t{alignof(Set) - 1});
  }

  DistanceCache(const DistanceCache&) = delete;
  DistanceCache& operator=(const DistanceCache&) = delete;

  /// Index of the set `key` maps to.
  std::size_t SetOf(std::uint64_t key) const {
    if (set_bits_ == 0) return 0;  // >> 64 would be UB below
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >>
                                    (64 - set_bits_));
  }

  /// Starts loading `key`'s set, so a Get shortly after does not stall.
  void Prefetch(std::uint64_t key) const {
    __builtin_prefetch(&sets_[SetOf(key)]);
  }

  /// On a hit stores the value in `*value`, makes the entry its set's most
  /// recently used and returns true.
  bool Get(std::uint64_t key, double* value) {
    const std::size_t s = SetOf(key);
    Stripe& stripe = stripes_[s % kStripes];
    std::lock_guard<std::mutex> lock(stripe.mu);
    Set& set = sets_[s];
    for (int w = 0; w < ways_; ++w) {
      if (set.key[w] == key) {
        *value = set.value[w];
        MoveToFront(&set, w, key, *value);
        ++stripe.hits;
        return true;
      }
    }
    ++stripe.misses;
    return false;
  }

  /// Inserts or refreshes `key` as its set's most recently used entry,
  /// evicting the set's least recently used entry when the set is full.
  void Put(std::uint64_t key, double value) {
    if (ways_ == 0) return;
    const std::size_t s = SetOf(key);
    std::lock_guard<std::mutex> lock(stripes_[s % kStripes].mu);
    Set& set = sets_[s];
    // Entries fill a set from the front, so stopping at the last way
    // evicts the LRU entry when the set is full and an empty slot when not.
    int w = 0;
    while (w < ways_ - 1 && set.key[w] != key) ++w;
    MoveToFront(&set, w, key, value);
  }

  /// Removes all entries but keeps hit/miss counters.
  void Clear() {
    for (std::size_t st = 0; st < kStripes; ++st) {
      std::lock_guard<std::mutex> lock(stripes_[st].mu);
      for (std::size_t s = st; s < num_sets_; s += kStripes) sets_[s] = Set{};
    }
  }

  std::size_t size() const {
    std::size_t total = 0;
    for (std::size_t st = 0; st < kStripes; ++st) {
      std::lock_guard<std::mutex> lock(stripes_[st].mu);
      for (std::size_t s = st; s < num_sets_; s += kStripes) {
        for (int w = 0; w < ways_; ++w) total += sets_[s].key[w] != 0;
      }
    }
    return total;
  }

  std::size_t num_sets() const { return num_sets_; }
  int ways() const { return ways_; }

  std::int64_t hits() const { return Sum(&Stripe::hits); }
  std::int64_t misses() const { return Sum(&Stripe::misses); }

 private:
  struct alignas(64) Set {
    std::uint64_t key[kWays];
    double value[kWays];
  };
  struct alignas(64) Stripe {
    mutable std::mutex mu;
    std::int64_t hits = 0;
    std::int64_t misses = 0;
  };
  struct Free {
    void operator()(void* p) const { std::free(p); }
  };

  /// Shifts slots [0, w) one way back and writes the entry to slot 0.
  static void MoveToFront(Set* set, int w, std::uint64_t key, double value) {
    for (; w > 0; --w) {
      set->key[w] = set->key[w - 1];
      set->value[w] = set->value[w - 1];
    }
    set->key[0] = key;
    set->value[0] = value;
  }

  std::int64_t Sum(std::int64_t Stripe::*counter) const {
    std::int64_t total = 0;
    for (const Stripe& stripe : stripes_) {
      std::lock_guard<std::mutex> lock(stripe.mu);
      total += stripe.*counter;
    }
    return total;
  }

  int ways_;
  std::size_t num_sets_ = 1;
  unsigned set_bits_ = 0;  // log2(num_sets_)
  std::unique_ptr<void, Free> raw_;
  Set* sets_ = nullptr;
  std::array<Stripe, kStripes> stripes_;
};

}  // namespace urpsm

#endif  // URPSM_SRC_UTIL_DISTANCE_CACHE_H_
