// Unit tests for src/hash: determinism, seed independence, avalanche
// behaviour, bucket-distribution uniformity of the hash family, Hash64's
// bit-exactness against its byte-wise tail reference, and the window hash's
// bit-exactness against MultiHash::Slots.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "hash/bobhash.h"
#include "hash/multihash.h"
#include "hash/window_hash.h"
#include "packet/keys.h"

namespace coco::hash {
namespace {

TEST(BobHash, Deterministic) {
  const char* data = "cocosketch";
  EXPECT_EQ(BobHash32(data, 10, 1), BobHash32(data, 10, 1));
}

TEST(BobHash, SeedChangesOutput) {
  const char* data = "cocosketch";
  EXPECT_NE(BobHash32(data, 10, 1), BobHash32(data, 10, 2));
}

TEST(BobHash, LengthMatters) {
  const char* data = "cocosketchcocosketch";
  EXPECT_NE(BobHash32(data, 10, 1), BobHash32(data, 11, 1));
}

TEST(BobHash, EmptyInput) {
  // Must not crash and must be seed-dependent even for empty input... the
  // lookup3 zero-length path returns the initialized state, which embeds the
  // seed.
  EXPECT_NE(BobHash32(nullptr, 0, 1), BobHash32(nullptr, 0, 99));
}

TEST(BobHash, AllBlockSizes) {
  // Exercise every tail-switch arm (1..12 bytes) and the >12 loop.
  uint8_t buf[64];
  for (size_t i = 0; i < sizeof(buf); ++i) buf[i] = static_cast<uint8_t>(i);
  std::set<uint32_t> outputs;
  for (size_t len = 1; len <= sizeof(buf); ++len) {
    outputs.insert(BobHash32(buf, len, 7));
  }
  EXPECT_EQ(outputs.size(), sizeof(buf));  // all distinct
}

TEST(BobHash, SingleBitAvalanche) {
  // Flipping any single input bit should flip roughly half the output bits.
  uint8_t base[13] = {};
  const uint32_t h0 = BobHash32(base, sizeof(base), 3);
  double total_flips = 0;
  int cases = 0;
  for (size_t byte = 0; byte < sizeof(base); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      uint8_t mod[13] = {};
      mod[byte] = static_cast<uint8_t>(1 << bit);
      const uint32_t h1 = BobHash32(mod, sizeof(mod), 3);
      total_flips += __builtin_popcount(h0 ^ h1);
      ++cases;
    }
  }
  const double mean_flips = total_flips / cases;
  EXPECT_GT(mean_flips, 12.0);  // ideal is 16 of 32
  EXPECT_LT(mean_flips, 20.0);
}

TEST(Hash64, DeterministicAndSeeded) {
  const char* data = "partial key";
  EXPECT_EQ(Hash64(data, 11, 5), Hash64(data, 11, 5));
  EXPECT_NE(Hash64(data, 11, 5), Hash64(data, 11, 6));
}

TEST(Hash64, ShortAndLongInputs) {
  std::set<uint64_t> outputs;
  uint8_t buf[40];
  std::memset(buf, 0xa5, sizeof(buf));
  for (size_t len = 0; len <= sizeof(buf); ++len) {
    outputs.insert(Hash64(buf, len, 0));
  }
  EXPECT_EQ(outputs.size(), sizeof(buf) + 1);
}

// Hash64 as it read with a variable-length memcpy tail: the reference its
// fixed-size tail loads must match bit for bit.
uint64_t ReferenceFmix64(uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

uint64_t ByteWiseTailHash64(const void* data, size_t len, uint64_t seed) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t h = seed ^ (len * 0xc6a4a7935bd1e995ULL);
  while (len >= 8) {
    uint64_t k;
    std::memcpy(&k, p, 8);
    h = (h ^ ReferenceFmix64(k)) * 0x9ddfea08eb382d69ULL;
    p += 8;
    len -= 8;
  }
  if (len > 0) {
    uint64_t k = 0;
    std::memcpy(&k, p, len);
    h = (h ^ ReferenceFmix64(k | (static_cast<uint64_t>(len) << 56))) *
        0x9ddfea08eb382d69ULL;
  }
  return ReferenceFmix64(h);
}

TEST(Hash64, MatchesByteWiseTailReference) {
  // Every length 0..40 (each tail shape, with and without a full word
  // before it), random bytes and seeds. Each input sits in an allocation of
  // exactly its length, so ASan flags any load outside [data, data + len).
  const uint64_t rng_seed = ProcessSeed();
  SCOPED_TRACE(testing::Message() << "COCO_SEED=" << std::hex << rng_seed);
  Rng rng(rng_seed);
  for (size_t len = 0; len <= 40; ++len) {
    for (int i = 0; i < 10000; ++i) {
      const auto bytes = std::make_unique<uint8_t[]>(len);
      for (size_t j = 0; j < len; ++j) {
        bytes[j] = static_cast<uint8_t>(rng.Next());
      }
      const uint64_t seed = rng.Next();
      ASSERT_EQ(Hash64(bytes.get(), len, seed),
                ByteWiseTailHash64(bytes.get(), len, seed))
          << "len " << len;
    }
  }

  // Outputs of the memcpy-tail Hash64, so a change made to both copies
  // above still fails.
  uint8_t buf[40];
  for (size_t i = 0; i < sizeof(buf); ++i) {
    buf[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  const std::pair<size_t, uint64_t> pinned[] = {
      {1, 0x8b9a17c238ab5760ULL},  {3, 0xab4bf56a8950c3eaULL},
      {4, 0x3233cea48040a685ULL},  {7, 0xa23e4f5c91b43ff0ULL},
      {8, 0x3172af517c387ac8ULL},  {13, 0xbe7208f9b58ffb4dULL},
      {40, 0x824b5ab03d5a4bc0ULL},
  };
  for (const auto& [len, want] : pinned) {
    EXPECT_EQ(Hash64(buf, len, 0x636f636fULL), want) << "len " << len;
  }
}

TEST(HashU64, MixesValues) {
  EXPECT_NE(HashU64(0, 0), HashU64(1, 0));
  EXPECT_NE(HashU64(5, 1), HashU64(5, 2));
}

TEST(HashFamily, IndependentIndices) {
  HashFamily family(123);
  const char* data = "flowkey";
  EXPECT_NE(family(0, data, 7), family(1, data, 7));
  EXPECT_NE(family(1, data, 7), family(2, data, 7));
}

TEST(HashFamily, BucketUniformity) {
  // Chi-squared-style check: hashing distinct keys into 64 buckets should
  // produce near-uniform occupancy.
  HashFamily family(77);
  const size_t buckets = 64;
  const size_t n = 64000;
  std::vector<size_t> histogram(buckets, 0);
  for (size_t i = 0; i < n; ++i) {
    uint64_t key = i * 0x9e3779b97f4a7c15ULL;  // distinct structured keys
    ++histogram[family(0, &key, sizeof(key)) % buckets];
  }
  const double expected = static_cast<double>(n) / buckets;
  double chi2 = 0;
  for (size_t c : histogram) {
    const double d = static_cast<double>(c) - expected;
    chi2 += d * d / expected;
  }
  // 63 degrees of freedom; 99.9th percentile is ~103.
  EXPECT_LT(chi2, 110.0);
}

TEST(HashFamily, PairwiseRowIndependenceProxy) {
  // Rows of a sketch must not be correlated: the joint distribution of
  // (h0 % 16, h1 % 16) over many keys should cover all 256 cells.
  HashFamily family(31337);
  std::set<std::pair<uint32_t, uint32_t>> cells;
  for (uint64_t i = 0; i < 8192; ++i) {
    cells.insert({family(0, &i, sizeof(i)) % 16, family(1, &i, sizeof(i)) % 16});
  }
  EXPECT_EQ(cells.size(), 256u);
}

TEST(MultiHash, DeterministicAndSeeded) {
  MultiHash a(42, 4, 1024), b(42, 4, 1024), c(43, 4, 1024);
  const char* key = "flowkey";
  uint32_t sa[4], sb[4], sc[4];
  a.Slots(key, 7, sa);
  b.Slots(key, 7, sb);
  c.Slots(key, 7, sc);
  bool seed_differs = false;
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(sa[i], sb[i]);
    EXPECT_LT(sa[i], 1024u);
    seed_differs |= sa[i] != sc[i];
  }
  EXPECT_TRUE(seed_differs);
}

TEST(MultiHash, PerArrayUniformity) {
  // Unbiasedness of the index derivation: for each of the d arrays, the
  // derived slot over many distinct keys must be uniform over the width.
  // Chi-squared over 64 cells, 63 dof, 99.9th percentile ~103.
  const size_t buckets = 64, d = 4, n = 64000;
  MultiHash mh(0x5eed, d, buckets);
  std::vector<std::vector<size_t>> histogram(d,
                                             std::vector<size_t>(buckets, 0));
  for (size_t k = 0; k < n; ++k) {
    uint64_t key = k * 0x9e3779b97f4a7c15ULL;
    uint32_t slot[4];
    mh.Slots(&key, sizeof(key), slot);
    for (size_t i = 0; i < d; ++i) ++histogram[i][slot[i]];
  }
  const double expected = static_cast<double>(n) / buckets;
  for (size_t i = 0; i < d; ++i) {
    double chi2 = 0;
    for (size_t c : histogram[i]) {
      const double diff = static_cast<double>(c) - expected;
      chi2 += diff * diff / expected;
    }
    EXPECT_LT(chi2, 110.0) << "array " << i;
  }
}

TEST(MultiHash, PerArrayUniformityOverPartialKeys) {
  // CocoSketch hashes both full 5-tuples (13 bytes) and DynKey partial keys
  // of varying length; the derivation must stay unbiased for every key
  // shape. Build keys of lengths 1..16 from a structured counter.
  const size_t buckets = 32, d = 3;
  MultiHash mh(0x10ad, d, buckets);
  std::vector<std::vector<size_t>> histogram(d,
                                             std::vector<size_t>(buckets, 0));
  size_t n = 0;
  // Lengths 3..16 so every (length, counter) pair is a distinct key: the
  // counter fits in the low 3 bytes, so keys within a stratum never repeat
  // (repeats would double-count samples and void the chi-squared model).
  for (size_t len = 3; len <= 16; ++len) {
    for (uint32_t k = 0; k < 4000; ++k) {
      uint8_t buf[16] = {};
      const uint64_t v = (static_cast<uint64_t>(len) << 48) + k;
      std::memcpy(buf, &v, len < 8 ? len : 8);
      uint32_t slot[3];
      mh.Slots(buf, len, slot);
      for (size_t i = 0; i < d; ++i) ++histogram[i][slot[i]];
      ++n;
    }
  }
  const double expected = static_cast<double>(n) / buckets;
  for (size_t i = 0; i < d; ++i) {
    double chi2 = 0;
    for (size_t c : histogram[i]) {
      const double diff = static_cast<double>(c) - expected;
      chi2 += diff * diff / expected;
    }
    // 31 dof, 99.9th percentile ~61.1.
    EXPECT_LT(chi2, 65.0) << "array " << i;
  }
}

TEST(MultiHash, JointSpreadAcrossArrays) {
  // The d-choice rule degrades if arrays are lockstep-correlated: the joint
  // distribution of (slot0, slot1) over many keys must cover all cells, as
  // the HashFamily pairwise test requires of independent rows.
  MultiHash mh(31337, 2, 16);
  std::set<std::pair<uint32_t, uint32_t>> cells;
  for (uint64_t i = 0; i < 8192; ++i) {
    uint32_t slot[2];
    mh.Slots(&i, sizeof(i), slot);
    cells.insert({slot[0], slot[1]});
  }
  EXPECT_EQ(cells.size(), 256u);
}

TEST(MultiHash, OnePassMatchesRepeatedCalls) {
  // Slots is a pure function of (seed, key): repeated calls and fresh
  // instances agree, which the batched update path relies on.
  MultiHash mh(7, 4, 977);
  uint8_t key[13] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13};
  uint32_t first[4], again[4];
  mh.Slots(key, sizeof(key), first);
  mh.Slots(key, sizeof(key), again);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(first[i], again[i]);
}

#if COCO_HASH_AVX2
// avx2::SlotsWindow over an 11-key window (two groups of four plus a ragged
// tail) against per-key MultiHash::Slots.
template <size_t kLen>
void ExpectWindowMatchesSlots(uint64_t seed) {
  struct Record {
    FixedKey<kLen> key;
    uint32_t weight = 1;
  };
  Rng rng(seed);
  Record recs[11];
  for (auto& r : recs) {
    for (auto& b : r.key.bytes) b = static_cast<uint8_t>(rng.Next32());
  }
  for (size_t d : {1, 2, 3, 4, 8}) {
    const MultiHash mh(seed + d, d, 12289);
    uint32_t want[11][MultiHash::kMaxIndices];
    uint32_t got[11][MultiHash::kMaxIndices];
    for (size_t j = 0; j < 11; ++j) mh.Slots(recs[j].key.data(), kLen, want[j]);
    avx2::SlotsWindow(mh, recs, 11, got);
    for (size_t j = 0; j < 11; ++j) {
      for (size_t i = 0; i < d; ++i) {
        EXPECT_EQ(got[j][i], want[j][i])
            << kLen << "-byte keys, d=" << d << " key=" << j << " array=" << i;
      }
    }
  }
}

TEST(WindowHash, HashSlots4MatchesMultiHashSlots) {
  // Sub-word keys build their lanes on the stack; 8..16-byte keys gather
  // KeyHash's two overlapping loads.
  if (!Avx2WindowHashActive()) GTEST_SKIP() << "host lacks AVX2";
  ExpectWindowMatchesSlots<4>(0x4a54);
  ExpectWindowMatchesSlots<8>(0x4a58);
  ExpectWindowMatchesSlots<13>(0x4a5d);
  ExpectWindowMatchesSlots<16>(0x4a60);
}
#endif

TEST(HashFamily, PrecomputedSeedsMatchDerivedFallback) {
  // Indices beyond the precomputed window must produce the same function as
  // the precomputed ones do for their index — i.e. the family is consistent
  // regardless of which path computed the seed.
  HashFamily family(0xfeed);
  const char* data = "some key bytes";
  // Same input, many indices: all distinct outputs (no seed collapse).
  std::set<uint32_t> outputs;
  for (size_t i = 0; i < 40; ++i) outputs.insert(family(i, data, 14));
  EXPECT_EQ(outputs.size(), 40u);
}

}  // namespace
}  // namespace coco::hash
