// Flat open-addressing hash that numbers distinct keys in first-insert
// order: the write path's dictionary builder for value domains too wide
// to index by value (Dict's distinct count and codes, Hierarchical's
// per-reference local dictionaries).
//
// Slots hold the key next to its id + 1, and id + 1 == 0 marks an empty
// slot, so every key value is storable (INT64_MIN, INT64_MAX and 0
// included; there is no sentinel key). The table starts sized for a
// caller's expected key count at load factor <= 1/2 and doubles past it.
// Probing is linear from a Fibonacci hash of the key (its top bits); ids
// follow first-insert order and never depend on the table's layout.

#ifndef CORRA_COMMON_FLAT_HASH_H_
#define CORRA_COMMON_FLAT_HASH_H_

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

namespace corra {

/// A (reference code, value) pair: Hierarchical's dictionary key.
struct RefValueKey {
  int64_t ref;
  int64_t value;
  bool operator==(const RefValueKey&) const = default;
};

inline uint64_t FlatHashBits(int64_t key) {
  return static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ull;
}
inline uint64_t FlatHashBits(const RefValueKey& key) {
  return FlatHashBits(static_cast<int64_t>(
      static_cast<uint64_t>(key.value) ^
      static_cast<uint64_t>(key.ref) * 0xC2B2AE3D27D4EB4Full));
}

template <typename Key>
class FlatIdMap {
 public:
  /// A table sized for `expected_keys` distinct keys at load factor
  /// <= 1/2; it doubles when more arrive.
  explicit FlatIdMap(size_t expected_keys)
      : shift_(64 - std::countr_zero(std::bit_ceil(
                        std::max<size_t>(2 * expected_keys, 16)))),
        slots_(size_t{1} << (64 - shift_)) {}

  /// Id of `key`, inserted as id size() when absent.
  uint32_t Insert(const Key& key) {
    Slot& slot = slots_[Probe(key)];
    if (slot.id_plus_one == 0) {
      if (2 * (keys_.size() + 1) > slots_.size()) {
        Grow();
        return Insert(key);
      }
      assert(keys_.size() < UINT32_MAX);
      keys_.push_back(key);
      slot = Slot{key, static_cast<uint32_t>(keys_.size())};
    }
    return slot.id_plus_one - 1;
  }

  /// Id of a key that was inserted.
  uint32_t Find(const Key& key) const {
    const Slot& slot = slots_[Probe(key)];
    assert(slot.id_plus_one != 0);
    return slot.id_plus_one - 1;
  }

  /// Distinct keys inserted so far.
  size_t size() const { return keys_.size(); }

  /// The inserted keys, indexed by id (first-insert order).
  const std::vector<Key>& keys() const { return keys_; }

 private:
  struct Slot {
    Key key;
    uint32_t id_plus_one;  // 0: empty.
  };

  // The slot holding `key`, or the empty slot where it would go.
  size_t Probe(const Key& key) const {
    const size_t mask = slots_.size() - 1;
    size_t s = FlatHashBits(key) >> shift_;
    while (slots_[s].id_plus_one != 0 && !(slots_[s].key == key)) {
      s = (s + 1) & mask;
    }
    return s;
  }

  // Doubles the slot array and re-places every key under its id.
  void Grow() {
    slots_.assign(slots_.size() * 2, Slot{});
    --shift_;
    for (size_t id = 0; id < keys_.size(); ++id) {
      slots_[Probe(keys_[id])] =
          Slot{keys_[id], static_cast<uint32_t>(id + 1)};
    }
  }

  int shift_;  // 64 - log2(slot count): the hash's top bits index.
  std::vector<Slot> slots_;
  std::vector<Key> keys_;
};

}  // namespace corra

#endif  // CORRA_COMMON_FLAT_HASH_H_
