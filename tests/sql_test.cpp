// Tests for the SQL front-end: tokenizer/parser acceptance and rejection,
// executor semantics (aggregation, HAVING, ORDER BY, LIMIT), and row
// rendering — including the Fig. 7 worked example expressed in SQL, and
// Execute against a reference GROUP BY over a decoded sketch.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/sizes.h"
#include "core/cocosketch.h"
#include "query/sql.h"
#include "trace/generators.h"

namespace coco::query::sql {
namespace {

FlowTable<FiveTuple> Fig7Table() {
  FlowTable<FiveTuple> table;
  auto row = [](uint32_t ip, uint16_t port) {
    return FiveTuple(ip, 0, port, 0, 0);
  };
  const uint32_t ip_a = (19u << 24) | (98u << 16) | (10u << 8) | 26;
  const uint32_t ip_b = (34u << 24) | (52u << 16) | (73u << 8) | 13;
  const uint32_t ip_c = (34u << 24) | (52u << 16) | (73u << 8) | 17;
  table[row(ip_a, 80)] = 521;
  table[row(ip_a, 8080)] = 520;
  table[row(ip_b, 80)] = 305;
  table[row(ip_b, 123)] = 463;
  table[row(ip_c, 118)] = 856;
  return table;
}

TEST(SqlParse, AcceptsMinimalQuery) {
  std::string error;
  const auto stmt = Parse("SELECT SrcIP, SUM(Size) FROM t GROUP BY SrcIP",
                          &error);
  ASSERT_TRUE(stmt.has_value()) << error;
  EXPECT_EQ(stmt->fields.size(), 1u);
  EXPECT_EQ(stmt->fields[0].field, keys::Field::kSrcIp);
  EXPECT_EQ(stmt->fields[0].prefix_bits, 32);
  EXPECT_EQ(stmt->table_name, "T");
  EXPECT_FALSE(stmt->having_at_least.has_value());
}

TEST(SqlParse, AcceptsFullClause) {
  std::string error;
  const auto stmt = Parse(
      "select SrcIP/24, DstPort, sum(size) from flows "
      "group by SrcIP/24, DstPort having sum(size) >= 100 "
      "order by sum(size) desc limit 5",
      &error);
  ASSERT_TRUE(stmt.has_value()) << error;
  EXPECT_EQ(stmt->fields.size(), 2u);
  EXPECT_EQ(stmt->fields[0].prefix_bits, 24);
  EXPECT_EQ(stmt->fields[1].field, keys::Field::kDstPort);
  EXPECT_EQ(stmt->having_at_least, 100u);
  EXPECT_TRUE(stmt->order_by_size_desc);
  EXPECT_EQ(stmt->limit, 5u);
}

TEST(SqlParse, RejectsMismatchedGroupBy) {
  std::string error;
  EXPECT_FALSE(
      Parse("SELECT SrcIP, SUM(Size) FROM t GROUP BY DstIP", &error));
  EXPECT_NE(error.find("must match"), std::string::npos);
}

TEST(SqlParse, RejectsUnknownField) {
  std::string error;
  EXPECT_FALSE(Parse("SELECT Bogus, SUM(Size) FROM t GROUP BY Bogus",
                     &error));
  EXPECT_NE(error.find("unknown field"), std::string::npos);
}

TEST(SqlParse, RejectsPrefixOnPort) {
  std::string error;
  EXPECT_FALSE(Parse(
      "SELECT SrcPort/8, SUM(Size) FROM t GROUP BY SrcPort/8", &error));
  EXPECT_NE(error.find("IP fields"), std::string::npos);
}

TEST(SqlParse, RejectsOversizedPrefix) {
  std::string error;
  EXPECT_FALSE(
      Parse("SELECT SrcIP/40, SUM(Size) FROM t GROUP BY SrcIP/40", &error));
  EXPECT_NE(error.find("exceeds"), std::string::npos);
}

TEST(SqlParse, RejectsMissingSum) {
  std::string error;
  EXPECT_FALSE(Parse("SELECT SrcIP FROM t GROUP BY SrcIP", &error));
}

TEST(SqlParse, RejectsTrailingGarbage) {
  std::string error;
  EXPECT_FALSE(Parse(
      "SELECT SrcIP, SUM(Size) FROM t GROUP BY SrcIP EXTRA", &error));
  EXPECT_NE(error.find("trailing"), std::string::npos);
}

TEST(SqlParse, RejectsBadCharacter) {
  std::string error;
  EXPECT_FALSE(Parse("SELECT SrcIP; SUM(Size)", &error));
  EXPECT_NE(error.find("unexpected character"), std::string::npos);
}

TEST(SqlExecute, Figure7InSql) {
  // The paper's Fig. 7: full key (SrcIP, SrcPort), query partial key SrcIP.
  std::string error;
  const auto result = Query(
      "SELECT SrcIP, SUM(Size) FROM flows GROUP BY SrcIP "
      "ORDER BY SUM(Size) DESC",
      Fig7Table(), &error);
  ASSERT_TRUE(result.has_value()) << error;
  ASSERT_EQ(result->rows.size(), 3u);
  EXPECT_EQ(result->rows[0].field_text[0], "19.98.10.26");
  EXPECT_EQ(result->rows[0].size, 1041u);  // 521 + 520
  EXPECT_EQ(result->rows[1].field_text[0], "34.52.73.17");
  EXPECT_EQ(result->rows[1].size, 856u);
  EXPECT_EQ(result->rows[2].field_text[0], "34.52.73.13");
  EXPECT_EQ(result->rows[2].size, 768u);  // 305 + 463
}

TEST(SqlExecute, HavingFilters) {
  std::string error;
  const auto result = Query(
      "SELECT SrcIP, SUM(Size) FROM flows GROUP BY SrcIP "
      "HAVING SUM(Size) >= 800",
      Fig7Table(), &error);
  ASSERT_TRUE(result.has_value()) << error;
  EXPECT_EQ(result->rows.size(), 2u);  // 1041 and 856
}

TEST(SqlExecute, LimitTruncates) {
  std::string error;
  const auto result = Query(
      "SELECT SrcIP, SUM(Size) FROM flows GROUP BY SrcIP "
      "ORDER BY SUM(Size) DESC LIMIT 1",
      Fig7Table(), &error);
  ASSERT_TRUE(result.has_value()) << error;
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0].size, 1041u);
}

TEST(SqlExecute, PrefixAggregation) {
  // Both 34.52.73.x sources share a /24.
  std::string error;
  const auto result = Query(
      "SELECT SrcIP/24, SUM(Size) FROM flows GROUP BY SrcIP/24 "
      "ORDER BY SUM(Size) DESC",
      Fig7Table(), &error);
  ASSERT_TRUE(result.has_value()) << error;
  ASSERT_EQ(result->rows.size(), 2u);
  EXPECT_EQ(result->rows[0].field_text[0], "34.52.73.0/24");
  EXPECT_EQ(result->rows[0].size, 856u + 768u);
  EXPECT_EQ(result->rows[1].field_text[0], "19.98.10.0/24");
}

TEST(SqlExecute, MultiFieldRendering) {
  std::string error;
  const auto result = Query(
      "SELECT SrcIP, SrcPort, SUM(Size) FROM flows "
      "GROUP BY SrcIP, SrcPort ORDER BY SUM(Size) DESC LIMIT 2",
      Fig7Table(), &error);
  ASSERT_TRUE(result.has_value()) << error;
  ASSERT_EQ(result->column_names.size(), 3u);
  EXPECT_EQ(result->column_names[0], "SrcIP");
  EXPECT_EQ(result->column_names[1], "SrcPort");
  ASSERT_EQ(result->rows.size(), 2u);
  EXPECT_EQ(result->rows[0].field_text[0], "34.52.73.17");
  EXPECT_EQ(result->rows[0].field_text[1], "118");
}

TEST(SqlExecute, TotalMassPreserved) {
  std::string error;
  const auto result = Query(
      "SELECT Proto, SUM(Size) FROM flows GROUP BY Proto", Fig7Table(),
      &error);
  ASSERT_TRUE(result.has_value()) << error;
  uint64_t total = 0;
  for (const auto& row : result->rows) total += row.size;
  EXPECT_EQ(total, 521u + 520 + 305 + 463 + 856);
}

// ---- Execute against a reference GROUP BY -----------------------------------

using Rows = std::vector<std::pair<DynKey, uint64_t>>;

// The statement's answer by the definition: query::Aggregate, then HAVING,
// then a sort by size descending with KeyOrderLess, then LIMIT.
Rows ReferenceRows(const FlowTable<FiveTuple>& table,
                   const Statement& stmt) {
  Rows rows;
  const keys::TupleKeySpec spec("reference", stmt.fields);
  for (const auto& [key, size] : Aggregate(table, spec)) {
    if (!stmt.having_at_least || size >= *stmt.having_at_least) {
      rows.emplace_back(key, size);
    }
  }
  if (stmt.order_by_size_desc) {
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return KeyOrderLess(a.first, b.first);
    });
  }
  if (stmt.limit && rows.size() > *stmt.limit) rows.resize(*stmt.limit);
  return rows;
}

// A row's field text, read from its DynKey one bit at a time.
std::vector<std::string> ReferenceText(const std::vector<keys::FieldSel>& sels,
                                       const DynKey& key) {
  std::vector<std::string> out;
  uint16_t pos = 0;
  for (const keys::FieldSel& sel : sels) {
    uint64_t value = 0;
    for (uint16_t i = 0; i < sel.prefix_bits; ++i, ++pos) {
      value = (value << 1) | ((key.buf[pos / 8] >> (7 - pos % 8)) & 1);
    }
    const bool ip =
        sel.field == keys::Field::kSrcIp || sel.field == keys::Field::kDstIp;
    if (!ip) {
      out.push_back(std::to_string(value));
      continue;
    }
    const uint32_t addr =
        static_cast<uint32_t>(value << (32 - sel.prefix_bits));
    std::string text = Ipv4ToString(addr);
    if (sel.prefix_bits < 32) text += "/" + std::to_string(sel.prefix_bits);
    out.push_back(text);
  }
  return out;
}

// Checks Execute(stmt) against ReferenceRows: row for row under ORDER BY;
// otherwise as a multiset, or with a LIMIT as distinct rows drawn from the
// unlimited answer.
void ExpectMatchesReference(const FlowTable<FiveTuple>& table,
                            const Statement& stmt, const std::string& text) {
  SCOPED_TRACE(text);
  const Result result = Execute(stmt, table);
  ASSERT_EQ(result.column_names.size(), stmt.fields.size() + 1);
  for (const ResultRow& row : result.rows) {
    ASSERT_EQ(row.field_text, ReferenceText(stmt.fields, row.key));
  }
  if (stmt.order_by_size_desc) {
    const Rows want = ReferenceRows(table, stmt);
    ASSERT_EQ(result.rows.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_TRUE(result.rows[i].key == want[i].first) << "row " << i;
      ASSERT_EQ(result.rows[i].size, want[i].second) << "row " << i;
    }
    return;
  }
  Statement unlimited = stmt;
  unlimited.limit.reset();
  std::unordered_map<DynKey, uint64_t> want;
  for (const auto& [key, size] : ReferenceRows(table, unlimited)) {
    want.emplace(key, size);
  }
  std::unordered_map<DynKey, uint64_t> got;
  for (const ResultRow& row : result.rows) {
    ASSERT_TRUE(got.emplace(row.key, row.size).second) << "duplicate group";
  }
  if (!stmt.limit || *stmt.limit >= want.size()) {
    EXPECT_EQ(got, want);
    return;
  }
  EXPECT_EQ(got.size(), *stmt.limit);
  for (const auto& [key, size] : got) {
    const auto it = want.find(key);
    ASSERT_NE(it, want.end());
    EXPECT_EQ(size, it->second);
  }
}

TEST(SqlExecute, MatchesReferenceGroupByOnDecodedSketch) {
  // A decoded 512 KiB sketch; the benchmark's nine statements plus odd
  // prefixes (/0, /3, /12, /28, /31) and field orders, each with HAVING,
  // ORDER BY and LIMIT on and off.
  core::CocoSketch<FiveTuple> sketch(KiB(512), 2, 0x5e1ec7);
  const auto trace =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(400'000));
  sketch.UpdateBatch(trace.data(), trace.size());
  const FlowTable<FiveTuple> table = sketch.Decode();
  ASSERT_GT(table.size(), 10'000u);
  const uint64_t threshold = (sketch.TotalValue() + 9'999) / 10'000;

  const char* const keys[] = {
      "SrcIP, DstIP, SrcPort, DstPort, Proto",
      "SrcIP, DstIP",
      "SrcIP, SrcPort",
      "DstIP, DstPort",
      "SrcIP",
      "DstIP",
      "SrcIP/8",
      "SrcIP/16",
      "SrcIP/24",
      "SrcIP/28, SrcPort",
      "DstIP/12, Proto, SrcIP/3",
      "SrcIP/0, DstIP/31",
      "Proto",
  };
  for (const char* key : keys) {
    for (int clauses = 0; clauses < 8; ++clauses) {
      std::string text = std::string("SELECT ") + key +
                         ", SUM(Size) FROM flows GROUP BY " + key;
      if (clauses & 1) {
        text += " HAVING SUM(Size) >= " + std::to_string(threshold);
      }
      if (clauses & 2) text += " ORDER BY SUM(Size) DESC";
      if (clauses & 4) text += " LIMIT 20";
      std::string error;
      const auto stmt = Parse(text, &error);
      ASSERT_TRUE(stmt.has_value()) << error;
      ExpectMatchesReference(table, *stmt, text);
    }
  }
}

TEST(SqlExecute, SizeTiesBreakByKeyOrder) {
  // 64 sources of equal size: under ORDER BY ... LIMIT the rows are the
  // smallest keys in KeyOrderLess order, which for keys of one length is
  // the packed key's numeric order.
  FlowTable<FiveTuple> table;
  for (uint32_t i = 0; i < 64; ++i) {
    const uint32_t src = (0xc0a8u << 16) | ((i * 37) % 64) << 4;
    table[FiveTuple(src, i, 1000, 80, 6)] = 7;
    table[FiveTuple(src, i, 2000, 80, 6)] = 4;
  }
  table[FiveTuple(1, 2, 3, 4, 6)] = 100;
  std::string error;
  const std::string text =
      "SELECT SrcIP/28, SUM(Size) FROM flows GROUP BY SrcIP/28 "
      "ORDER BY SUM(Size) DESC LIMIT 6";
  const auto stmt = Parse(text, &error);
  ASSERT_TRUE(stmt.has_value()) << error;
  ExpectMatchesReference(table, *stmt, text);
  const Result result = Execute(*stmt, table);
  ASSERT_EQ(result.rows.size(), 6u);
  EXPECT_EQ(result.rows[0].size, 100u);
  EXPECT_EQ(result.rows[0].field_text[0], "0.0.0.0/28");
  for (size_t i = 1; i < 6; ++i) {
    EXPECT_EQ(result.rows[i].size, 11u);
    EXPECT_EQ(result.rows[i].field_text[0],
              "192.168.0." + std::to_string(16 * (i - 1)) + "/28");
  }
}

TEST(SqlParse, RejectsKeyWiderThan128Bits) {
  std::string error;
  EXPECT_FALSE(Parse(
      "SELECT SrcIP, DstIP, SrcIP, DstIP, SrcPort, SUM(Size) FROM t "
      "GROUP BY SrcIP, DstIP, SrcIP, DstIP, SrcPort",
      &error));
  EXPECT_NE(error.find("128 bits"), std::string::npos);
}

TEST(SqlFormat, ProducesAlignedTable) {
  std::string error;
  const auto result = Query(
      "SELECT SrcIP, SUM(Size) FROM flows GROUP BY SrcIP "
      "ORDER BY SUM(Size) DESC",
      Fig7Table(), &error);
  ASSERT_TRUE(result.has_value());
  const std::string text = FormatResult(*result);
  EXPECT_NE(text.find("SrcIP"), std::string::npos);
  EXPECT_NE(text.find("SUM(Size)"), std::string::npos);
  EXPECT_NE(text.find("1041"), std::string::npos);
  // Header + 3 rows = 4 lines.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
}

}  // namespace
}  // namespace coco::query::sql
