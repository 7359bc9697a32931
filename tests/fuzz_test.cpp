// Robustness fuzzing: hostile inputs to every parser/deserializer in the
// library must fail cleanly (error return), never crash or corrupt state.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/cocosketch.h"
#include "core/hw_cocosketch.h"
#include "core/state_image.h"
#include "packet/keys.h"
#include "query/sql.h"
#include "trace/trace_io.h"

namespace coco {
namespace {

TEST(SqlFuzz, RandomGarbageNeverCrashes) {
  Rng rng(0xf022);
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t len = rng.NextBelow(120);
    std::string text;
    for (size_t i = 0; i < len; ++i) {
      text.push_back(static_cast<char>(32 + rng.NextBelow(95)));  // printable
    }
    std::string error;
    const auto stmt = query::sql::Parse(text, &error);
    if (!stmt) {
      EXPECT_FALSE(error.empty()) << "silent failure on: " << text;
    }
  }
}

TEST(SqlFuzz, RandomBytesIncludingControls) {
  Rng rng(0xf023);
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t len = rng.NextBelow(80);
    std::string text;
    for (size_t i = 0; i < len; ++i) {
      text.push_back(static_cast<char>(rng.NextBelow(256)));
    }
    std::string error;
    (void)query::sql::Parse(text, &error);  // must simply not crash
  }
}

TEST(SqlFuzz, MutatedValidQueriesFailCleanly) {
  const std::string base =
      "SELECT SrcIP/24, DstPort, SUM(Size) FROM flows "
      "GROUP BY SrcIP/24, DstPort HAVING SUM(Size) >= 100 "
      "ORDER BY SUM(Size) DESC LIMIT 5";
  Rng rng(0xf024);
  int parsed_ok = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::string text = base;
    // 1-3 random single-character mutations.
    const int mutations = 1 + static_cast<int>(rng.NextBelow(3));
    for (int m = 0; m < mutations; ++m) {
      const size_t pos = rng.NextBelow(text.size());
      switch (rng.NextBelow(3)) {
        case 0:
          text[pos] = static_cast<char>(32 + rng.NextBelow(95));
          break;
        case 1:
          text.erase(pos, 1);
          break;
        default:
          text.insert(pos, 1, static_cast<char>(32 + rng.NextBelow(95)));
          break;
      }
    }
    std::string error;
    const auto stmt = query::sql::Parse(text, &error);
    parsed_ok += stmt.has_value();
    if (!stmt) {
      EXPECT_FALSE(error.empty());
    }
  }
  // Some mutations are benign (case changes, whitespace), most are not.
  EXPECT_LT(parsed_ok, 3000);
}

TEST(TraceIoFuzz, RandomFilesRejected) {
  Rng rng(0xf025);
  const std::string path = ::testing::TempDir() + "/coco_fuzz_trace.bin";
  for (int trial = 0; trial < 200; ++trial) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const size_t len = rng.NextBelow(4096);
    for (size_t i = 0; i < len; ++i) {
      std::fputc(static_cast<int>(rng.NextBelow(256)), f);
    }
    std::fclose(f);
    bool ok = true;
    const auto packets = trace::ReadTrace(path, &ok);
    // Random bytes essentially never start with the magic; whenever the read
    // is rejected the result must be empty.
    if (!ok) {
      EXPECT_TRUE(packets.empty());
    }
  }
  std::remove(path.c_str());
}

// Shared harness for the two sketch variants: build a populated sketch,
// serialize it, then confirm that truncated, bit-flipped, and garbage images
// are all rejected by RestoreState *without disturbing the live state* —
// the watchdog restores from checkpoint images that an injected fault may
// have corrupted, so a rejected restore must leave the sketch usable.
template <typename Sketch>
void FuzzStateImages(uint64_t seed) {
  Sketch sketch(32 * 1024);
  Rng rng(seed);
  for (int i = 0; i < 5000; ++i) {
    const FiveTuple key(static_cast<uint32_t>(rng.Next()),
                        static_cast<uint32_t>(rng.Next()),
                        static_cast<uint16_t>(rng.NextBelow(1024)),
                        static_cast<uint16_t>(rng.NextBelow(1024)),
                        static_cast<uint8_t>(rng.NextBelow(2)));
    sketch.Update(key, 1 + static_cast<uint32_t>(rng.NextBelow(16)));
  }
  const std::vector<uint8_t> good = sketch.SerializeState();
  ASSERT_GT(good.size(), core::kStateHeaderBytes);

  // Truncations: every prefix shorter than the full image must be rejected.
  for (int trial = 0; trial < 200; ++trial) {
    const size_t len = rng.NextBelow(good.size());  // strictly shorter
    std::vector<uint8_t> cut(good.begin(),
                             good.begin() + static_cast<ptrdiff_t>(len));
    EXPECT_FALSE(sketch.RestoreState(cut)) << "accepted truncation to " << len;
  }
  EXPECT_EQ(sketch.SerializeState(), good) << "rejected restore mutated state";

  // Bit flips: any single flipped bit lands in the body (checksum mismatch),
  // the geometry words (d/l mismatch), or the checksum field itself.
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> flipped = good;
    const size_t bit = rng.NextBelow(flipped.size() * 8);
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(sketch.RestoreState(flipped)) << "accepted flip of bit "
                                               << bit;
  }
  EXPECT_EQ(sketch.SerializeState(), good);

  // Random garbage of assorted sizes, including exactly-right-sized blobs.
  for (int trial = 0; trial < 200; ++trial) {
    const size_t len =
        trial % 4 == 0 ? good.size() : rng.NextBelow(2 * good.size());
    std::vector<uint8_t> junk(len);
    for (auto& b : junk) b = static_cast<uint8_t>(rng.NextBelow(256));
    EXPECT_FALSE(sketch.RestoreState(junk));
  }
  EXPECT_EQ(sketch.SerializeState(), good);

  // Version skew: an image sealed by any other format version is foreign —
  // reject it outright even if everything else lines up (its checksum is
  // seeded with the version, so no fixup can smuggle it through).
  for (const uint64_t version :
       {uint64_t{0}, core::kStateFormatVersion - 1,
        core::kStateFormatVersion + 1, ~uint64_t{0}}) {
    std::vector<uint8_t> skewed = good;
    StoreBE64(skewed.data(), version);
    EXPECT_FALSE(sketch.RestoreState(skewed)) << "accepted version "
                                              << version;
    // Even with the checksum recomputed for the foreign version.
    const uint64_t d = LoadBE64(skewed.data() + 8);
    const uint64_t l = LoadBE64(skewed.data() + 16);
    const uint64_t image_seed = LoadBE64(skewed.data() + 24);
    StoreBE64(skewed.data() + 32,
              core::StateChecksum(version, d, l, image_seed,
                                  skewed.data() + core::kStateHeaderBytes,
                                  skewed.size() - core::kStateHeaderBytes));
    EXPECT_FALSE(sketch.RestoreState(skewed)) << "accepted resealed version "
                                              << version;
  }
  EXPECT_EQ(sketch.SerializeState(), good);

  // After all those rejections the pristine image must still restore.
  EXPECT_TRUE(sketch.RestoreState(good));
  EXPECT_EQ(sketch.SerializeState(), good);
}

TEST(StateImageFuzz, CocoSketchRejectsCorruptImages) {
  FuzzStateImages<core::CocoSketch<FiveTuple>>(0xf026);
}

TEST(StateImageFuzz, HwCocoSketchRejectsCorruptImages) {
  FuzzStateImages<core::HwCocoSketch<FiveTuple>>(0xf027);
}

TEST(TraceIoFuzz, CorruptedHeaderCountRejected) {
  // A valid magic followed by an absurd count must fail at the first short
  // read instead of attempting a giant allocation... the reserve() uses the
  // claimed count, so cap-check via a small file.
  const std::string path = ::testing::TempDir() + "/coco_fuzz_header.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite("COCOTRC1", 1, 8, f);
  const uint64_t absurd = 1ull << 20;  // claims 1M records, provides none
  std::fwrite(&absurd, sizeof(absurd), 1, f);
  std::fclose(f);
  bool ok = true;
  const auto packets = trace::ReadTrace(path, &ok);
  EXPECT_FALSE(ok);
  EXPECT_TRUE(packets.empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace coco
