// Tests for the indexed min-heap behind the sketch+heap baselines.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "packet/keys.h"
#include "sketch/top_k_heap.h"

namespace coco::sketch {
namespace {

TEST(TopKHeap, FillsToCapacity) {
  TopKHeap<IPv4Key> heap(4);
  for (uint32_t i = 0; i < 4; ++i) heap.Offer(IPv4Key(i), i + 1);
  EXPECT_EQ(heap.size(), 4u);
  EXPECT_EQ(heap.MinEstimate(), 1u);
}

TEST(TopKHeap, EvictsSmallestWhenFull) {
  TopKHeap<IPv4Key> heap(3);
  heap.Offer(IPv4Key(1), 10);
  heap.Offer(IPv4Key(2), 20);
  heap.Offer(IPv4Key(3), 30);
  heap.Offer(IPv4Key(4), 15);  // evicts key 1 (est 10)
  EXPECT_FALSE(heap.Contains(IPv4Key(1)));
  EXPECT_TRUE(heap.Contains(IPv4Key(4)));
  EXPECT_EQ(heap.MinEstimate(), 15u);
}

TEST(TopKHeap, RejectsWeakerThanMin) {
  TopKHeap<IPv4Key> heap(2);
  heap.Offer(IPv4Key(1), 10);
  heap.Offer(IPv4Key(2), 20);
  heap.Offer(IPv4Key(3), 5);
  EXPECT_FALSE(heap.Contains(IPv4Key(3)));
  EXPECT_EQ(heap.size(), 2u);
}

TEST(TopKHeap, UpdateExistingRaisesEstimate) {
  TopKHeap<IPv4Key> heap(3);
  heap.Offer(IPv4Key(1), 10);
  heap.Offer(IPv4Key(1), 25);
  EXPECT_EQ(heap.size(), 1u);
  EXPECT_EQ(heap.EstimateOf(IPv4Key(1)), 25u);
}

TEST(TopKHeap, UpdateNeverLowersEstimate) {
  TopKHeap<IPv4Key> heap(3);
  heap.Offer(IPv4Key(1), 25);
  heap.Offer(IPv4Key(1), 10);  // sketch estimates are monotone; ignore drop
  EXPECT_EQ(heap.EstimateOf(IPv4Key(1)), 25u);
}

TEST(TopKHeap, TracksTopKUnderRandomStream) {
  // Property: after offering a monotone stream of (key, running-count)
  // updates, the heap holds exactly the K keys with the largest counts.
  const size_t k = 16;
  TopKHeap<IPv4Key> heap(k);
  Rng rng(99);
  std::unordered_map<uint32_t, uint64_t> exact;
  for (int i = 0; i < 50000; ++i) {
    // Skewed key choice so ordering is stable and unambiguous.
    const uint32_t key = static_cast<uint32_t>(rng.NextBelow(200));
    const uint64_t count = ++exact[key] * (key + 1);
    heap.Offer(IPv4Key(key), count);
  }
  std::vector<std::pair<uint64_t, uint32_t>> ranked;
  for (const auto& [key, n] : exact) ranked.push_back({n * (key + 1), key});
  std::sort(ranked.rbegin(), ranked.rend());
  for (size_t i = 0; i < k; ++i) {
    EXPECT_TRUE(heap.Contains(IPv4Key(ranked[i].second)))
        << "missing rank " << i;
  }
}

TEST(TopKHeap, ClearEmptiesEverything) {
  TopKHeap<IPv4Key> heap(3);
  heap.Offer(IPv4Key(1), 10);
  heap.Clear();
  EXPECT_EQ(heap.size(), 0u);
  EXPECT_FALSE(heap.Contains(IPv4Key(1)));
  EXPECT_EQ(heap.MinEstimate(), 0u);
}

TEST(TopKHeap, ToMapMatchesEntries) {
  TopKHeap<IPv4Key> heap(8);
  for (uint32_t i = 0; i < 5; ++i) heap.Offer(IPv4Key(i), (i + 1) * 10);
  const auto map = heap.ToMap();
  EXPECT_EQ(map.size(), 5u);
  EXPECT_EQ(map.at(IPv4Key(2)), 30u);
}

TEST(TopKHeap, HeapOrderInvariant) {
  // Internal invariant: parent estimate <= child estimate at every node.
  TopKHeap<FiveTuple> heap(64);
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    FiveTuple t(static_cast<uint32_t>(rng.NextBelow(100)), 0, 0, 0, 6);
    heap.Offer(t, rng.NextBelow(100000));
    const auto& e = heap.entries();
    for (size_t p = 0; p < e.size(); ++p) {
      const size_t l = 2 * p + 1, r = 2 * p + 2;
      if (l < e.size()) {
        ASSERT_LE(e[p].estimate, e[l].estimate);
      }
      if (r < e.size()) {
        ASSERT_LE(e[p].estimate, e[r].estimate);
      }
    }
  }
}

}  // namespace
}  // namespace coco::sketch
