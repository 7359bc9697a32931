// Partial-key query front-end (§4.3, steps 3-4 of Fig. 1).
//
// The data plane is decoded once into a (FullKey, Size) table; any partial
// key is then answered by the relational aggregation
//     SELECT g(k_F), SUM(Size) FROM table GROUP BY g(k_F)
// implemented here as Aggregate(). Heavy changes are the aggregated absolute
// difference of two windows' tables.
//
// FlowTable<Key> is that table, flat: the rows are (Key, Size) pairs in one
// dense vector, in first-insertion order, so iteration order is decode
// (bucket) order and the same on every run. Beside them sits an
// open-addressing index of uint32 row numbers (linear probing, 0 = empty)
// at load <= 1/2. A fixed key of up to 16 bytes (FiveTuple, IPv4Key,
// IpPairKey) is hashed inline: hash::KeyedFold of its two overlapping
// 64-bit words, the scheme keys::PackedKey::Hash uses for the groups of a
// SQL statement. Other keys (DynKey) use their own Key::Hash. Both are
// keyed with a per-process secret: decoded flows are attacker-influenced,
// and a fixed hash would let crafted keys build one long probe chain;
// with the fold keyed, building such a key set needs the secret. The fold
// replaced an out-of-line Hash64 call per key: over the 30.7k keys of a
// 512 KiB sketch, 1.7-1.9 against 11.3-12.0 ns per key, in one process
// (4-vCPU KVM Xeon). A decoder fills rows straight from a
// sketch's key plane (AddKeyBytes): the key bytes are hashed, compared and
// copied in place. Lifting each key into a Key value first moves it through
// overlapping stack stores and reloads, and every reload stalls store
// forwarding: appending the 30.7k rows of a 512 KiB sketch took 2.5-3x as
// long that way (4-vCPU KVM Xeon).
//
// The interface is the part of std::unordered_map the program uses. Rows
// are read-only through iteration and find(); operator[], emplace and
// AddKeyBytes write them. Any insert may invalidate iterators and
// references.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/check.h"
#include "common/rng.h"
#include "hash/bobhash.h"
#include "packet/keys.h"

namespace coco::query {

template <typename Key>
class FlowTable {
 public:
  using key_type = Key;
  using value_type = std::pair<Key, uint64_t>;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  FlowTable() = default;

  template <typename It>
  FlowTable(It first, It last) {
    for (; first != last; ++first) emplace(first->first, first->second);
  }

  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  const_iterator begin() const { return rows_.begin(); }
  const_iterator end() const { return rows_.end(); }

  void clear() {
    rows_.clear();
    std::fill(slots_.begin(), slots_.end(), uint32_t{0});
  }

  // Room for n rows without growing either array. Both grow at least
  // geometrically, so a run of DecodeInto calls (one reserve per sketch)
  // copies each row O(1) times.
  void reserve(size_t n) {
    if (n > rows_.capacity()) rows_.reserve(std::max(n, 2 * rows_.capacity()));
    if (2 * n > slots_.size()) Rehash(n);
  }

  const_iterator find(const Key& key) const {
    if (rows_.empty()) return end();
    const uint32_t row = slots_[Locate(key)];
    return row == 0 ? end() : begin() + (row - 1);
  }

  size_t count(const Key& key) const { return find(key) == end() ? 0 : 1; }

  const uint64_t& at(const Key& key) const {
    const auto it = find(key);
    COCO_CHECK(it != end(), "key not in flow table");
    return it->second;
  }

  uint64_t& operator[](const Key& key) {
    return rows_[Insert(key, 0).first].second;
  }

  // Inserts (key, value) unless the key is present; the bool says which.
  std::pair<const_iterator, bool> emplace(const Key& key, uint64_t value) {
    const auto [row, inserted] = Insert(key, value);
    return {begin() + row, inserted};
  }

  // Adds `value` to the row of the key whose Key::kSize bytes start at
  // `key`, copying those bytes into a new row if there is none. The bytes
  // are read in place (a sketch bucket's key words); fixed keys only.
  void AddKeyBytes(const uint8_t* key, uint64_t value) {
    if (2 * (rows_.size() + 1) > slots_.size()) Rehash(rows_.size() + 1);
    const size_t mask = slots_.size() - 1;
    size_t i = HashBytes(key) & mask;
    for (; slots_[i] != 0; i = (i + 1) & mask) {
      value_type& row = rows_[slots_[i] - 1];
      if (Key::BytesEqual(row.first.data(), key)) {
        row.second += value;
        return;
      }
    }
    value_type& row = rows_.emplace_back();
    std::memcpy(row.first.data(), key, Key::kSize);
    row.second = value;
    slots_[i] = static_cast<uint32_t>(rows_.size());
  }

  // Same rows with the same values, in any order.
  friend bool operator==(const FlowTable& a, const FlowTable& b) {
    if (a.size() != b.size()) return false;
    for (const auto& [key, value] : a) {
      const auto it = b.find(key);
      if (it == b.end() || it->second != value) return false;
    }
    return true;
  }

 private:
  // The index hash of the fixed key whose Key::kSize <= 16 bytes start at
  // `key`: hash::KeyedFold of its first and last 8 bytes, which overlap
  // below 16 (a key under 8 bytes is one word, taken twice).
  uint64_t HashBytes(const uint8_t* key) const {
    static_assert(Key::kSize <= 16, "fixed flow-table keys are <= 16 bytes");
    if constexpr (Key::kSize >= 8) {
      return hash::KeyedFold(LoadNative64(key),
                             LoadNative64(key + Key::kSize - 8), seed_);
    } else {
      const uint64_t word = LoadNative(key, Key::kSize);
      return hash::KeyedFold(word, word, seed_);
    }
  }

  // The index hash of a key: fixed keys through HashBytes, the others
  // (keys::PackedKey, DynKey) through their own keyed Hash.
  uint64_t Hash(const Key& key) const {
    if constexpr (requires { Key::kSize; }) {
      return HashBytes(key.data());
    } else {
      return key.Hash(seed_);
    }
  }

  // The slot holding key's row number, or the empty slot that ends its
  // probe sequence. Precondition: slots_ is non-empty.
  size_t Locate(const Key& key) const {
    const size_t mask = slots_.size() - 1;
    size_t i = Hash(key) & mask;
    while (slots_[i] != 0 && !(rows_[slots_[i] - 1].first == key)) {
      i = (i + 1) & mask;
    }
    return i;
  }

  // Row number of key, inserting (key, value) if absent; true if inserted.
  std::pair<size_t, bool> Insert(const Key& key, uint64_t value) {
    if (2 * (rows_.size() + 1) > slots_.size()) Rehash(rows_.size() + 1);
    const size_t i = Locate(key);
    if (slots_[i] != 0) return {slots_[i] - 1, false};
    rows_.emplace_back(key, value);
    slots_[i] = static_cast<uint32_t>(rows_.size());
    return {rows_.size() - 1, true};
  }

  // Rebuilds the index for at least n rows at load <= 1/2. Row numbers
  // plus the empty marker must fit in uint32.
  void Rehash(size_t n) {
    COCO_CHECK(n < UINT32_MAX, "flow table too large");
    size_t slots = 16;
    while (slots < 2 * n) slots *= 2;
    slots_.assign(slots, 0);
    for (size_t r = 0; r < rows_.size(); ++r) {
      slots_[Locate(rows_[r].first)] = static_cast<uint32_t>(r + 1);
    }
  }

  uint64_t seed_ = [] {
    uint64_t state = ProcessSeed();
    return SplitMix64(state);
  }();
  std::vector<value_type> rows_;
  std::vector<uint32_t> slots_;  // row number + 1; 0 = empty
};

// GROUP BY g(k_F) SUM(Size): `Spec` is any mapping exposing
// Apply(Key) -> partial key (keys::TupleKeySpec, keys::PrefixSpec, ...);
// the output key type follows the spec. `table` is a FlowTable or any other
// key -> size map (a baseline's decode).
template <typename Table, typename Spec>
auto Aggregate(const Table& table, const Spec& spec) {
  using Key = typename Table::key_type;
  using OutKey = decltype(spec.Apply(std::declval<const Key&>()));
  FlowTable<OutKey> out;
  out.reserve(table.size());
  for (const auto& [key, size] : table) {
    out[spec.Apply(key)] += size;
  }
  return out;
}

// |a - b| per key over the union of key sets — the heavy-change signal.
template <typename Key>
FlowTable<Key> AbsDiff(const FlowTable<Key>& a, const FlowTable<Key>& b) {
  FlowTable<Key> out;
  out.reserve(a.size() + b.size());
  for (const auto& [key, va] : a) {
    auto it = b.find(key);
    const uint64_t vb = it == b.end() ? 0 : it->second;
    out.emplace(key, va > vb ? va - vb : vb - va);
  }
  for (const auto& [key, vb] : b) {
    if (!a.count(key)) out.emplace(key, vb);
  }
  return out;
}

// Deterministic total order on keys: length, then bytes, then (for DynKeys)
// the significant bit count. Used to break size ties so sorted output does
// not depend on row order.
template <typename Key>
bool KeyOrderLess(const Key& a, const Key& b) {
  if (a.size() != b.size()) return a.size() < b.size();
  if (a.size() != 0) {
    const int c = std::memcmp(a.data(), b.data(), a.size());
    if (c != 0) return c < 0;
  }
  if constexpr (requires { a.bits; }) return a.bits < b.bits;
  return false;
}

// Rows of a table sorted by size descending, truncated to n — the
// human-readable query result the examples print. Equal sizes are ordered
// by key (KeyOrderLess), so output is stable across runs and platforms.
template <typename Key>
std::vector<std::pair<Key, uint64_t>> TopRows(const FlowTable<Key>& table,
                                              size_t n) {
  std::vector<std::pair<Key, uint64_t>> rows(table.begin(), table.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return KeyOrderLess(a.first, b.first);
  });
  if (rows.size() > n) rows.resize(n);
  return rows;
}

// Keys at or above a threshold — the reported set for HH / HC tasks. Takes
// a FlowTable or any other key -> size map (exact ground truth).
template <typename Table>
FlowTable<typename Table::key_type> FilterThreshold(const Table& table,
                                                    uint64_t threshold) {
  FlowTable<typename Table::key_type> out;
  for (const auto& [key, size] : table) {
    if (size >= threshold) out.emplace(key, size);
  }
  return out;
}

}  // namespace coco::query
