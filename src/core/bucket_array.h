// Word-addressable structure-of-arrays bucket storage for the sketches, and
// the key-probe kernels of their update rules.
//
// The seed layout was an array-of-structs (`vector<Bucket{Key, uint32_t}>`);
// this splits it into two parallel arrays:
//
//   key_words : n * kKeyWords uint64 — each key padded to whole 64-bit words,
//               pad bytes ALWAYS zero, so word equality <=> byte equality and
//               key compares work on whole words without masking.
//   values    : n uint32 — densely packed counters, so occupancy scans and
//               TotalValue stream over counters without touching key bytes.
//
// The logical per-bucket footprint (Key::kSize + 4, what a hardware
// deployment provisions and what memory budgets divide by) and the
// serialized state-image format are unchanged — padding is an in-memory
// representation detail only, invisible to geometry and images.
//
// Invariant: every mutation path below rewrites the tail word before copying
// key bytes, so pad bytes can never go stale. Anything writing key_words
// directly must preserve that.
//
// Key probes. Sketch keys are at most 16 bytes. A packet's key is lifted
// once into a ShortProbe — its padded key words assembled straight from the
// key bytes into general-purpose registers — and compared against its d
// mapped buckets. Building the words in a stack array instead writes the
// tail word in pieces (zero pad, then key bytes), and reloading it stalls
// store-to-load forwarding once per packet; and two register compares beat
// both the xmm and the ymm probe (movemask + flags round-trip) in
// same-process measurement.
//
// The probe holds the exact stored slot bytes, so StoreKey and the
// byte-wise setters produce identical state.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace coco::core {

// The zero-padded key words of a <= 16-byte key, in registers.
template <size_t kSize>
struct ShortProbe {
  static_assert(kSize >= 1 && kSize <= 16,
                "register probes cover the short-key layouts only");
  uint64_t w0 = 0;
  uint64_t w1 = 0;

  explicit ShortProbe(const uint8_t* key) {
    if constexpr (kSize >= 8) {
      std::memcpy(&w0, key, 8);
      if constexpr (kSize > 8) {
        // Overlapping tail load, shifted down so the pad bytes become zero —
        // exactly the bytes SetKeyBytes stores for word 1.
        uint64_t tail;
        std::memcpy(&tail, key + kSize - 8, 8);
        w1 = tail >> ((16 - kSize) * 8);
      }
    } else {
      std::memcpy(&w0, key, kSize);
    }
  }
};

template <typename Key>
class BucketArray {
 public:
  static_assert(Key::kSize <= 16, "sketch keys are at most 16 bytes");
  static constexpr size_t kKeyWords = Key::kWords;
  using Probe = ShortProbe<Key::kSize>;

  BucketArray() = default;
  explicit BucketArray(size_t n) { Reset(n); }

  void Reset(size_t n) {
    n_ = n;
    words_.assign(n * kKeyWords, 0);
    values_.assign(n, 0);
  }

  void ClearAll() {
    std::fill(words_.begin(), words_.end(), uint64_t{0});
    std::fill(values_.begin(), values_.end(), uint32_t{0});
  }

  size_t size() const { return n_; }

  // The counter plane, for the control-plane scans.
  const uint32_t* values() const { return values_.data(); }

  uint32_t Value(size_t i) const { return values_[i]; }
  void SetValue(size_t i, uint32_t v) { values_[i] = v; }
  void AddValue(size_t i, uint32_t w) { values_[i] += w; }

  const uint64_t* KeyWords(size_t i) const {
    return words_.data() + i * kKeyWords;
  }
  const uint8_t* KeyBytes(size_t i) const {
    return reinterpret_cast<const uint8_t*>(KeyWords(i));
  }

  void SetKey(size_t i, const Key& k) { SetKeyBytes(i, k.data()); }
  void SetKeyWords(size_t i, const uint64_t* words) {
    std::memcpy(words_.data() + i * kKeyWords, words, kKeyWords * 8);
  }
  void SetKeyBytes(size_t i, const uint8_t* bytes) {
    uint64_t* dst = words_.data() + i * kKeyWords;
    dst[kKeyWords - 1] = 0;  // keep pad bytes zero
    std::memcpy(dst, bytes, Key::kSize);
  }
  // Whole-slot copy between arrays (merge / replica apply); pads stay zero
  // because the source slot's pads are zero.
  void CopySlotFrom(const BucketArray& src, size_t src_i, size_t dst_i) {
    std::memcpy(words_.data() + dst_i * kKeyWords,
                src.words_.data() + src_i * kKeyWords, kKeyWords * 8);
    values_[dst_i] = src.values_[src_i];
  }

  bool KeyEquals(size_t i, const uint64_t* words) const {
    const uint64_t* slot = KeyWords(i);
    bool eq = true;
    for (size_t w = 0; w < kKeyWords; ++w) eq &= slot[w] == words[w];
    return eq;
  }

  // ---- Key probes --------------------------------------------------------

  static Probe MakeProbe(const Key& key) { return Probe(key.data()); }

  // Slot i holds the probe key (occupancy not consulted).
  bool KeyMatches(size_t i, const Probe& p) const {
    const uint64_t* slot = KeyWords(i);
    if constexpr (kKeyWords == 1) {
      return slot[0] == p.w0;
    } else {
      // Branchless combine: one test instead of two data-dependent
      // branches.
      return ((slot[0] ^ p.w0) | (slot[1] ^ p.w1)) == 0;
    }
  }

  // First i in [0, d) whose bucket idx[i] is occupied AND holds the probe
  // key; -1 when no array tracks it (CocoSketch pass 1).
  int FindMatch(const size_t* idx, size_t d, const Probe& p) const {
    // Branchless accumulation instead of an early exit: WHICH array holds a
    // tracked flow is data-dependent (~uniform over arrays), so the exit
    // branch mispredicts about once per matched packet — worth ~2.5 ns at
    // d=2 — while the extra compares read lines the batch path already
    // prefetched.
    uint32_t mask = 0;
    for (size_t i = 0; i < d; ++i) {
      const uint32_t hit = static_cast<uint32_t>(values_[idx[i]] != 0) &
                           static_cast<uint32_t>(KeyMatches(idx[i], p));
      mask |= hit << i;
    }
    return mask == 0 ? -1 : __builtin_ctz(mask);
  }

  // Bit i set iff bucket idx[i] holds the probe key, occupancy NOT
  // consulted (HwCocoSketch's per-array replacement decision).
  uint32_t KeyEqMask(const size_t* idx, size_t d, const Probe& p) const {
    uint32_t mask = 0;
    for (size_t i = 0; i < d; ++i) {
      mask |= static_cast<uint32_t>(KeyMatches(idx[i], p)) << i;
    }
    return mask;
  }

  // Writes the probe key into slot i; the probe carries zero pads.
  void StoreKey(size_t i, const Probe& p) {
    words_[i * kKeyWords] = p.w0;
    if constexpr (kKeyWords == 2) words_[i * kKeyWords + 1] = p.w1;
  }

  // Prefetch both halves of a bucket ahead of the update pass.
  void Prefetch(size_t i) const {
    __builtin_prefetch(values_.data() + i, 1, 3);
    __builtin_prefetch(words_.data() + i * kKeyWords, 1, 3);
  }

 private:
  size_t n_ = 0;
  std::vector<uint64_t> words_;
  std::vector<uint32_t> values_;
};

}  // namespace coco::core
