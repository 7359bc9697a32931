// Partial-key query front-end (§4.3, steps 3-4 of Fig. 1).
//
// The data plane is decoded once into a (FullKey, Size) table; any partial
// key is then answered by the relational aggregation
//     SELECT g(k_F), SUM(Size) FROM table GROUP BY g(k_F)
// implemented here as Aggregate(). Heavy changes are the aggregated absolute
// difference of two windows' tables.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "packet/keys.h"

namespace coco::query {

template <typename Key>
using FlowTable = std::unordered_map<Key, uint64_t>;

// GROUP BY g(k_F) SUM(Size): `Spec` is any mapping exposing
// Apply(Key) -> partial key (keys::TupleKeySpec, keys::PrefixSpec,
// keys::V6KeySpec, ...); the output key type follows the spec.
template <typename Key, typename Spec>
auto Aggregate(const FlowTable<Key>& table, const Spec& spec) {
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
// not depend on hash-map iteration order.
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

// Keys at or above a threshold — the reported set for HH / HC tasks.
template <typename Key>
FlowTable<Key> FilterThreshold(const FlowTable<Key>& table,
                               uint64_t threshold) {
  FlowTable<Key> out;
  for (const auto& [key, size] : table) {
    if (size >= threshold) out.emplace(key, size);
  }
  return out;
}

}  // namespace coco::query
