// Cache-resident open-addressing hash containers for the record hot path.
//
// The analysis pipeline touches a handful of small keyed accumulators for
// every flowtuple record (inventory join, per-hour distinct sets,
// (service, device) novelty pairs). Node-based std::unordered_* containers
// pay a heap allocation per insert and a pointer chase per probe; these
// flat variants keep all slots in one contiguous std::vector, index with a
// Fibonacci multiplicative hash, and probe linearly — so a steady-state
// probe is one or two cache lines and an insert never allocates once the
// table has reached its high-water capacity.
//
// clear() is O(1): each slot carries the epoch it was written in, and
// clearing just bumps the table epoch, invalidating every slot at once.
// The per-hour scratch sets in the pipeline are cleared 143 times per run;
// epoch clearing means their memory is written only when re-populated.
//
// Scope: unsigned integral keys, no erase, values live until the next
// clear()/insert that grows the table. That is exactly the accumulator
// access pattern; use std::unordered_map for anything richer.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace iotscope::util {

namespace detail {

/// Fibonacci multiplicative hash: multiply and keep the top bits. The
/// golden-ratio constant spreads sequential keys (IPs from one /24,
/// ascending port/device pairs) across the table.
inline std::size_t fib_index(std::uint64_t key, int shift) noexcept {
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift);
}

inline constexpr std::size_t kMinCapacity = 16;

/// Smallest power-of-two capacity holding n entries below max load
/// (3/4 full).
inline std::size_t capacity_for(std::size_t n) noexcept {
  std::size_t cap = kMinCapacity;
  while (cap * 3 < n * 4) cap *= 2;
  return cap;
}

}  // namespace detail

/// Open-addressing flat hash set over an unsigned integral key.
template <typename Key>
class FlatSet {
  static_assert(std::is_unsigned_v<Key>,
                "FlatSet requires an unsigned integral key");

 public:
  FlatSet() = default;

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t capacity() const noexcept { return slots_.size(); }

  /// O(1): invalidates every slot by bumping the table epoch.
  void clear() noexcept {
    size_ = 0;
    if (++epoch_ == 0) {
      // u32 epoch wrapped (once per 4B clears): physically reset so stale
      // slots from epoch 0 cannot resurrect.
      for (auto& slot : slots_) slot.epoch = 0;
      epoch_ = 1;
    }
  }

  void reserve(std::size_t n) {
    const std::size_t cap = detail::capacity_for(n);
    if (cap > slots_.size()) rehash(cap);
  }

  /// Inserts the key; returns true if it was not present.
  bool insert(Key key) {
    if ((size_ + 1) * 4 > slots_.size() * 3) rehash(grown_capacity());
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = detail::fib_index(key, shift_);
    while (true) {
      Slot& slot = slots_[i];
      if (slot.epoch != epoch_) {
        slot.key = key;
        slot.epoch = epoch_;
        ++size_;
        return true;
      }
      if (slot.key == key) return false;
      i = (i + 1) & mask;
    }
  }

  bool contains(Key key) const noexcept {
    if (slots_.empty()) return false;
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = detail::fib_index(key, shift_);
    while (true) {
      const Slot& slot = slots_[i];
      if (slot.epoch != epoch_) return false;
      if (slot.key == key) return true;
      i = (i + 1) & mask;
    }
  }

  /// Visits every live key (slot order — not deterministic across
  /// capacities; callers must not depend on order).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& slot : slots_) {
      if (slot.epoch == epoch_) fn(slot.key);
    }
  }

  /// Inserts every key of `from` and calls `on_new(key)` for each one
  /// this set did not hold yet.
  ///
  /// Reserves room for both sets first. `from` is walked in slot (=
  /// hash) order, and feeding such a stream into a table that has to
  /// grow while it arrives packs every key into one low-index probe
  /// cluster: the union degenerates to quadratic probing (hours of CPU
  /// at 10^8 keys). A table sized for the result up front keeps each
  /// arrival near its home slot, so a union costs linear time however
  /// often a large set is folded into an ever larger one.
  template <typename Fn>
  void insert_all(const FlatSet& from, Fn&& on_new) {
    reserve(size_ + from.size_);
    // Arrivals land at scattered home slots of a table that may be far
    // larger than the cache: hint the home slot of the key 16 source
    // slots ahead (a dead slot's stale key only wastes the hint).
    constexpr std::size_t kAhead = 16;
    const std::size_t n = from.slots_.size();
    for (std::size_t j = 0; j < n; ++j) {
      if (j + kAhead < n) {
        __builtin_prefetch(
            &slots_[detail::fib_index(from.slots_[j + kAhead].key, shift_)]);
      }
      const Slot& slot = from.slots_[j];
      if (slot.epoch == from.epoch_ && insert(slot.key)) on_new(slot.key);
    }
  }

 private:
  struct Slot {
    Key key;
    std::uint32_t epoch = 0;
  };

  std::size_t grown_capacity() const noexcept {
    return slots_.empty() ? detail::kMinCapacity : slots_.size() * 2;
  }

  void rehash(std::size_t cap) {
    std::vector<Slot> old = std::move(slots_);
    const std::uint32_t old_epoch = epoch_;
    slots_.assign(cap, Slot{});
    shift_ = 64 - (std::bit_width(cap) - 1);
    epoch_ = 1;
    size_ = 0;
    const std::size_t mask = cap - 1;
    for (const auto& slot : old) {
      if (slot.epoch != old_epoch) continue;
      std::size_t i = detail::fib_index(slot.key, shift_);
      while (slots_[i].epoch == 1) i = (i + 1) & mask;
      slots_[i].key = slot.key;
      slots_[i].epoch = 1;
      ++size_;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  int shift_ = 64;
  std::uint32_t epoch_ = 1;
};

/// Open-addressing flat hash map from an unsigned integral key to a
/// value. Values of slots invalidated by clear() are value-initialized
/// again when the slot is re-claimed.
template <typename Key, typename Value>
class FlatMap {
  static_assert(std::is_unsigned_v<Key>,
                "FlatMap requires an unsigned integral key");

 public:
  FlatMap() = default;

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t capacity() const noexcept { return slots_.size(); }

  /// O(1): invalidates every slot by bumping the table epoch.
  void clear() noexcept {
    size_ = 0;
    if (++epoch_ == 0) {
      for (auto& slot : slots_) slot.epoch = 0;
      epoch_ = 1;
    }
  }

  void reserve(std::size_t n) {
    const std::size_t cap = detail::capacity_for(n);
    if (cap > slots_.size()) rehash(cap);
  }

  /// Pointer to the key's value, or nullptr. Valid until the next
  /// mutating call.
  Value* find(Key key) noexcept {
    if (slots_.empty()) return nullptr;
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = detail::fib_index(key, shift_);
    while (true) {
      Slot& slot = slots_[i];
      if (slot.epoch != epoch_) return nullptr;
      if (slot.key == key) return &slot.value;
      i = (i + 1) & mask;
    }
  }

  /// Read-hints the key's home slot into cache. Streaming callers that
  /// know their keys a few iterations ahead (e.g. a columnar walk over a
  /// dense key vector) issue this to hide the find() probe's miss
  /// latency; a no-op on toolchains without the builtin.
  void prefetch(Key key) const noexcept {
#if defined(__GNUC__) || defined(__clang__)
    if (!slots_.empty()) {
      __builtin_prefetch(&slots_[detail::fib_index(key, shift_)], 0, 1);
    }
#else
    (void)key;
#endif
  }
  const Value* find(Key key) const noexcept {
    return const_cast<FlatMap*>(this)->find(key);
  }

  /// Inserts (key, value); returns false (leaving the existing value
  /// untouched) if the key is already present.
  bool insert(Key key, const Value& value) {
    bool inserted = false;
    Value& slot = find_or_insert(key, inserted);
    if (inserted) slot = value;
    return inserted;
  }

  /// The key's value, value-initialized on first access this epoch.
  Value& operator[](Key key) {
    bool inserted = false;
    return find_or_insert(key, inserted);
  }

  /// Visits every live (key, value) pair (slot order — callers must not
  /// depend on order).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& slot : slots_) {
      if (slot.epoch == epoch_) fn(slot.key, slot.value);
    }
  }

 private:
  struct Slot {
    Key key;
    Value value;
    std::uint32_t epoch = 0;
  };

  Value& find_or_insert(Key key, bool& inserted) {
    if ((size_ + 1) * 4 > slots_.size() * 3) rehash(grown_capacity());
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = detail::fib_index(key, shift_);
    while (true) {
      Slot& slot = slots_[i];
      if (slot.epoch != epoch_) {
        slot.key = key;
        slot.value = Value{};
        slot.epoch = epoch_;
        ++size_;
        inserted = true;
        return slot.value;
      }
      if (slot.key == key) return slot.value;
      i = (i + 1) & mask;
    }
  }

  std::size_t grown_capacity() const noexcept {
    return slots_.empty() ? detail::kMinCapacity : slots_.size() * 2;
  }

  void rehash(std::size_t cap) {
    std::vector<Slot> old = std::move(slots_);
    const std::uint32_t old_epoch = epoch_;
    slots_.assign(cap, Slot{});
    shift_ = 64 - (std::bit_width(cap) - 1);
    epoch_ = 1;
    size_ = 0;
    const std::size_t mask = cap - 1;
    for (auto& slot : old) {
      if (slot.epoch != old_epoch) continue;
      std::size_t i = detail::fib_index(slot.key, shift_);
      while (slots_[i].epoch == 1) i = (i + 1) & mask;
      slots_[i].key = slot.key;
      slots_[i].value = std::move(slot.value);
      slots_[i].epoch = 1;
      ++size_;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  int shift_ = 64;
  std::uint32_t epoch_ = 1;
};

/// Open-addressing flat hash map over an arbitrary key type with a
/// caller-supplied hasher/equality — the generic sibling of FlatMap for
/// composite keys (e.g. the 17-byte flowtuple aggregation key in the
/// capture engine). Same contract: epoch clear() in O(1), no erase,
/// values live until the next clear() or growth.
template <typename Key, typename Value, typename Hash, typename Eq>
class FlatKeyMap {
 public:
  FlatKeyMap() = default;

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t capacity() const noexcept { return slots_.size(); }

  /// O(1): invalidates every slot by bumping the table epoch.
  void clear() noexcept {
    size_ = 0;
    if (++epoch_ == 0) {
      for (auto& slot : slots_) slot.epoch = 0;
      epoch_ = 1;
    }
  }

  void reserve(std::size_t n) {
    const std::size_t cap = detail::capacity_for(n);
    if (cap > slots_.size()) rehash(cap);
  }

  /// Pointer to the key's value, or nullptr. Valid until the next
  /// mutating call.
  Value* find(const Key& key) noexcept {
    if (slots_.empty()) return nullptr;
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = index_of(key);
    while (true) {
      Slot& slot = slots_[i];
      if (slot.epoch != epoch_) return nullptr;
      if (Eq{}(slot.key, key)) return &slot.value;
      i = (i + 1) & mask;
    }
  }
  const Value* find(const Key& key) const noexcept {
    return const_cast<FlatKeyMap*>(this)->find(key);
  }

  /// The key's value, value-initialized on first access this epoch.
  Value& operator[](const Key& key) {
    if ((size_ + 1) * 4 > slots_.size() * 3) rehash(grown_capacity());
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = index_of(key);
    while (true) {
      Slot& slot = slots_[i];
      if (slot.epoch != epoch_) {
        slot.key = key;
        slot.value = Value{};
        slot.epoch = epoch_;
        ++size_;
        return slot.value;
      }
      if (Eq{}(slot.key, key)) return slot.value;
      i = (i + 1) & mask;
    }
  }

  /// Visits every live (key, value) pair (slot order — callers must not
  /// depend on order).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& slot : slots_) {
      if (slot.epoch == epoch_) fn(slot.key, slot.value);
    }
  }

 private:
  struct Slot {
    Key key;
    Value value;
    std::uint32_t epoch = 0;
  };

  /// The caller's hash may be weak in the low bits; remix through the
  /// Fibonacci constant like the integral-key tables.
  std::size_t index_of(const Key& key) const noexcept {
    return detail::fib_index(static_cast<std::uint64_t>(Hash{}(key)), shift_);
  }

  std::size_t grown_capacity() const noexcept {
    return slots_.empty() ? detail::kMinCapacity : slots_.size() * 2;
  }

  void rehash(std::size_t cap) {
    std::vector<Slot> old = std::move(slots_);
    const std::uint32_t old_epoch = epoch_;
    slots_.assign(cap, Slot{});
    shift_ = 64 - (std::bit_width(cap) - 1);
    epoch_ = 1;
    size_ = 0;
    const std::size_t mask = cap - 1;
    for (auto& slot : old) {
      if (slot.epoch != old_epoch) continue;
      std::size_t i = index_of(slot.key);
      while (slots_[i].epoch == 1) i = (i + 1) & mask;
      slots_[i].key = std::move(slot.key);
      slots_[i].value = std::move(slot.value);
      slots_[i].epoch = 1;
      ++size_;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  int shift_ = 64;
  std::uint32_t epoch_ = 1;
};

}  // namespace iotscope::util
