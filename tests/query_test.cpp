// Tests for the partial-key query front-end and evaluation drivers,
// including the worked example of Fig. 7.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/sizes.h"
#include "core/cocosketch.h"
#include "keys/key_spec.h"
#include "query/evaluation.h"
#include "query/flow_table.h"
#include "trace/generators.h"

namespace coco::query {
namespace {

using keys::TupleKeySpec;

// ---- FlowTable contract ----------------------------------------------------

TEST(FlowTable, SubscriptAccumulatesAndEmplaceKeepsOldValue) {
  FlowTable<IPv4Key> table;
  table[IPv4Key(1)] += 5;
  table[IPv4Key(1)] += 7;
  EXPECT_EQ(table.at(IPv4Key(1)), 12u);
  const auto [present, inserted_present] = table.emplace(IPv4Key(1), 99);
  EXPECT_FALSE(inserted_present);
  EXPECT_EQ(present->second, 12u);
  const auto [fresh, inserted_fresh] = table.emplace(IPv4Key(2), 3);
  EXPECT_TRUE(inserted_fresh);
  EXPECT_TRUE(fresh->first == IPv4Key(2));
  EXPECT_EQ(fresh->second, 3u);
  EXPECT_EQ(table.size(), 2u);
}

TEST(FlowTable, FindAndCountOnAbsentKeys) {
  FlowTable<IPv4Key> table;
  EXPECT_TRUE(table.find(IPv4Key(1)) == table.end());
  EXPECT_EQ(table.count(IPv4Key(1)), 0u);
  table[IPv4Key(1)] = 4;
  EXPECT_TRUE(table.find(IPv4Key(2)) == table.end());
  EXPECT_EQ(table.count(IPv4Key(2)), 0u);
  EXPECT_EQ(table.count(IPv4Key(1)), 1u);
  EXPECT_EQ(table.find(IPv4Key(1))->second, 4u);
  table.clear();
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.count(IPv4Key(1)), 0u);
}

// 100k keys, inserted with no reserve and after a small one, make the index
// rebuild many times. Every other key goes in through AddKeyBytes (the
// decoders' path, hashing the bytes in place) and the rest through
// operator[]; find must see each with its own value, and adding each key
// again through the other path must find its row.
template <typename Key, typename MakeKey>
void ExpectEveryKeyFound(MakeKey key) {
  constexpr uint32_t kKeys = 100'000;
  for (const size_t reserved : {size_t{0}, size_t{100}}) {
    SCOPED_TRACE("reserved " + std::to_string(reserved));
    FlowTable<Key> table;
    table.reserve(reserved);
    for (uint32_t i = 0; i < kKeys; ++i) {
      const Key k = key(i);
      if (i % 2 == 0) {
        table.AddKeyBytes(k.data(), i + 1);
      } else {
        table[k] = i + 1;
      }
    }
    EXPECT_EQ(table.size(), kKeys);
    for (uint32_t i = 0; i < kKeys; ++i) {
      const auto it = table.find(key(i));
      ASSERT_TRUE(it != table.end()) << i;
      EXPECT_EQ(it->second, i + 1);
    }
    for (uint32_t i = 0; i < kKeys; ++i) {
      const Key k = key(i);
      if (i % 2 == 0) {
        table[k] += 1;
      } else {
        table.AddKeyBytes(k.data(), 1);
      }
    }
    EXPECT_EQ(table.size(), kKeys);
    for (uint32_t i = 0; i < kKeys; ++i) {
      ASSERT_EQ(table.at(key(i)), i + 2) << i;
    }
  }
}

TEST(FlowTable, EveryKeyFoundAsTheIndexGrows) {
  // The three fixed-key widths the index hashes: two overlapping words
  // (13 bytes), one whole word (8) and a short word taken twice (4).
  ExpectEveryKeyFound<FiveTuple>([](uint32_t i) {
    return FiveTuple(i * 2654435761u, ~i, static_cast<uint16_t>(i), 443, 6);
  });
  ExpectEveryKeyFound<IpPairKey>(
      [](uint32_t i) { return IpPairKey(i * 2654435761u, ~i); });
  ExpectEveryKeyFound<IPv4Key>(
      [](uint32_t i) { return IPv4Key(i * 2654435761u); });
}

TEST(FlowTable, IteratesInFirstInsertionOrder) {
  FlowTable<IPv4Key> table;
  std::vector<uint32_t> order;
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const uint32_t addr = rng.Next32();
    if (table.count(IPv4Key(addr)) == 0) order.push_back(addr);
    table[IPv4Key(addr)] += 1;
  }
  table[IPv4Key(order.front())] += 1;  // a repeat keeps its place
  std::vector<uint32_t> seen;
  for (const auto& [key, size] : table) seen.push_back(key.addr());
  EXPECT_EQ(seen, order);
}

TEST(FlowTable, EqualityIgnoresOrderButNotKeysOrValues) {
  FlowTable<IPv4Key> a, b;
  a[IPv4Key(1)] = 10;
  a[IPv4Key(2)] = 20;
  b[IPv4Key(2)] = 20;
  b[IPv4Key(1)] = 10;
  EXPECT_TRUE(a == b);
  FlowTable<IPv4Key> other_value = b;
  other_value[IPv4Key(2)] += 1;
  EXPECT_FALSE(a == other_value);
  FlowTable<IPv4Key> other_key;
  other_key[IPv4Key(1)] = 10;
  other_key[IPv4Key(3)] = 20;
  EXPECT_FALSE(a == other_key);
  FlowTable<IPv4Key> subset;
  subset[IPv4Key(1)] = 10;
  EXPECT_FALSE(a == subset);
  EXPECT_FALSE(subset == a);
}

TEST(FlowTable, DynKeysDifferingOnlyInBitsStayTwoRows) {
  const IPv4Key addr(10u << 24);  // 10.0.0.0
  const DynKey slash8 = keys::PrefixSpec(8).Apply(addr);
  const DynKey slash16 = keys::PrefixSpec(16).Apply(addr);
  ASSERT_EQ(slash8.buf, slash16.buf);
  FlowTable<DynKey> table;
  table[slash8] += 1;
  table[slash16] += 2;
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.at(slash8), 1u);
  EXPECT_EQ(table.at(slash16), 2u);
}

TEST(FlowTable, DecodeIntoNonEmptyTableSumsKeysAlreadyThere) {
  core::CocoSketch<FiveTuple> sketch(KiB(16), 2, 7);
  for (const Packet& p :
       trace::GenerateTrace(trace::TraceConfig::CaidaLike(20000))) {
    sketch.Update(p.key, p.weight);
  }
  const FlowTable<FiveTuple> decoded = sketch.Decode();
  ASSERT_GT(decoded.size(), 2u);
  // Every other decoded key, inserted through the key path, plus one key
  // the sketch never saw.
  FlowTable<FiveTuple> table;
  size_t i = 0;
  for (const auto& [key, size] : decoded) {
    if (i++ % 2 == 0) table[key] = 1000;
  }
  const FiveTuple stranger(1, 2, 3, 4, 5);
  ASSERT_EQ(decoded.count(stranger), 0u);
  table[stranger] = 77;
  sketch.DecodeInto(&table);
  EXPECT_EQ(table.size(), decoded.size() + 1);
  i = 0;
  for (const auto& [key, size] : decoded) {
    EXPECT_EQ(table.at(key), size + (i++ % 2 == 0 ? 1000 : 0));
  }
  EXPECT_EQ(table.at(stranger), 77u);
}

// ---- Aggregation -----------------------------------------------------------

TEST(Aggregate, Figure7WorkedExample) {
  // Full key (SrcIP, SrcPort); query partial key SrcIP. Table from Fig. 7.
  FlowTable<FiveTuple> table;
  auto row = [](uint32_t ip, uint16_t port) {
    return FiveTuple(ip, 0, port, 0, 0);
  };
  const uint32_t ip_a = (19u << 24) | (98u << 16) | (10u << 8) | 26;  // 19.98.10.26
  const uint32_t ip_b = (34u << 24) | (52u << 16) | (73u << 8) | 13;  // 34.52.73.13
  const uint32_t ip_c = (34u << 24) | (52u << 16) | (73u << 8) | 17;  // 34.52.73.17
  table[row(ip_a, 80)] = 521;
  table[row(ip_b, 80)] = 305;
  // Fig. 7 has two (19.98.10.26, 80) rows summing to 1041; with a keyed table
  // we model them as one 1041 entry plus the distinct rows.
  table[row(ip_a, 8080)] = 520;
  table[row(ip_c, 118)] = 856;
  table[row(ip_b, 123)] = 463;

  const auto by_src = Aggregate(table, TupleKeySpec::SrcIp());
  EXPECT_EQ(by_src.size(), 3u);
  EXPECT_EQ(by_src.at(TupleKeySpec::SrcIp().Apply(row(ip_a, 0))), 1041u);
  EXPECT_EQ(by_src.at(TupleKeySpec::SrcIp().Apply(row(ip_b, 0))), 768u);
  EXPECT_EQ(by_src.at(TupleKeySpec::SrcIp().Apply(row(ip_c, 0))), 856u);
}

TEST(Aggregate, PreservesTotalMass) {
  FlowTable<FiveTuple> table;
  uint64_t total = 0;
  for (uint32_t i = 0; i < 100; ++i) {
    table[FiveTuple(i % 7, i % 3, static_cast<uint16_t>(i), 443, 6)] = i + 1;
    total += i + 1;
  }
  for (const auto& spec : TupleKeySpec::DefaultSix()) {
    uint64_t sum = 0;
    for (const auto& [key, size] : Aggregate(table, spec)) sum += size;
    EXPECT_EQ(sum, total) << spec.name();
  }
}

TEST(AbsDiff, UnionSemantics) {
  FlowTable<IPv4Key> a, b;
  a[IPv4Key(1)] = 100;  // only in a
  b[IPv4Key(2)] = 70;   // only in b
  a[IPv4Key(3)] = 50;   // in both, grows
  b[IPv4Key(3)] = 90;
  const auto diff = AbsDiff(a, b);
  EXPECT_EQ(diff.size(), 3u);
  EXPECT_EQ(diff.at(IPv4Key(1)), 100u);
  EXPECT_EQ(diff.at(IPv4Key(2)), 70u);
  EXPECT_EQ(diff.at(IPv4Key(3)), 40u);
}

TEST(AbsDiff, IdenticalTablesAllZero) {
  FlowTable<IPv4Key> a;
  a[IPv4Key(1)] = 5;
  const auto diff = AbsDiff(a, a);
  EXPECT_EQ(diff.at(IPv4Key(1)), 0u);
}

TEST(TopRows, SortsDescendingAndTruncates) {
  FlowTable<IPv4Key> table;
  for (uint32_t i = 0; i < 10; ++i) table[IPv4Key(i)] = i * 10;
  const auto rows = TopRows(table, 3);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].second, 90u);
  EXPECT_EQ(rows[1].second, 80u);
  EXPECT_EQ(rows[2].second, 70u);
}

TEST(TopRows, EqualSizesOrderedDeterministicallyByKey) {
  // Equal-size rows used to come out in hash-map iteration order; they must
  // now follow the KeyOrderLess total order, identically on every run.
  FlowTable<IPv4Key> table;
  for (uint32_t i = 0; i < 64; ++i) table[IPv4Key(i * 2654435761u)] = 7;
  const auto rows = TopRows(table, 64);
  ASSERT_EQ(rows.size(), 64u);
  for (size_t i = 0; i + 1 < rows.size(); ++i) {
    EXPECT_TRUE(KeyOrderLess(rows[i].first, rows[i + 1].first));
  }
  // A rebuilt (differently-ordered) table yields the same row sequence.
  FlowTable<IPv4Key> reversed;
  for (uint32_t i = 64; i > 0; --i) reversed[IPv4Key((i - 1) * 2654435761u)] = 7;
  EXPECT_EQ(TopRows(reversed, 64), rows);
}

TEST(FilterThreshold, KeepsOnlyHeavy) {
  FlowTable<IPv4Key> table;
  table[IPv4Key(1)] = 100;
  table[IPv4Key(2)] = 99;
  const auto kept = FilterThreshold(table, 100);
  EXPECT_EQ(kept.size(), 1u);
  EXPECT_TRUE(kept.count(IPv4Key(1)));
}

TEST(ScoreHeavyHitters, PerfectEstimatorScoresPerfectly) {
  trace::TraceConfig config = trace::TraceConfig::CaidaLike(50000);
  const auto trace = trace::GenerateTrace(config);
  const auto truth = trace::CountTrace(trace);

  // The "sketch" is the exact table itself.
  FlowTable<FiveTuple> exact_table(truth.counts().begin(),
                                   truth.counts().end());
  const auto specs = keys::TupleKeySpec::DefaultSix();
  const auto scores =
      ScoreHeavyHittersPerKey(exact_table, truth, specs, 1e-3);
  ASSERT_EQ(scores.size(), 6u);
  for (const auto& s : scores) {
    EXPECT_DOUBLE_EQ(s.recall, 1.0);
    EXPECT_DOUBLE_EQ(s.precision, 1.0);
    EXPECT_DOUBLE_EQ(s.f1, 1.0);
    EXPECT_DOUBLE_EQ(s.are, 0.0);
  }
}

TEST(ScoreHeavyHitters, EmptyEstimatorScoresZeroRecall) {
  trace::TraceConfig config = trace::TraceConfig::CaidaLike(20000);
  const auto trace = trace::GenerateTrace(config);
  const auto truth = trace::CountTrace(trace);
  FlowTable<FiveTuple> empty;
  const auto scores = ScoreHeavyHittersPerKey(
      empty, truth, keys::TupleKeySpec::DefaultSix(), 1e-3);
  for (const auto& s : scores) {
    EXPECT_EQ(s.recall, 0.0);
    EXPECT_EQ(s.reported_count, 0u);
    EXPECT_DOUBLE_EQ(s.are, 1.0);  // every heavy hitter estimated as 0
  }
}

TEST(ScoreHeavyChanges, PerfectEstimatorScoresPerfectly) {
  trace::TraceConfig config = trace::TraceConfig::CaidaLike(30000);
  const auto pair = trace::GenerateChurnPair(config, 0.3);
  const auto truth_before = trace::CountTrace(pair.before);
  const auto truth_after = trace::CountTrace(pair.after);
  FlowTable<FiveTuple> tb(truth_before.counts().begin(),
                          truth_before.counts().end());
  FlowTable<FiveTuple> ta(truth_after.counts().begin(),
                          truth_after.counts().end());
  const auto scores = ScoreHeavyChangesPerKey(
      tb, ta, truth_before, truth_after, keys::TupleKeySpec::DefaultSix(),
      1e-3);
  for (const auto& s : scores) {
    EXPECT_DOUBLE_EQ(s.recall, 1.0);
    EXPECT_DOUBLE_EQ(s.precision, 1.0);
  }
}

}  // namespace
}  // namespace coco::query
