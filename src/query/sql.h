// SQL front-end for partial-key queries — §4.3 defines the query interface
// as literally
//     SELECT g(k_F), SUM(Size) FROM table GROUP BY g(k_F)
// and this module makes that executable text. Supported grammar:
//
//   SELECT <field> ("," <field>)* "," SUM(Size)
//   FROM <identifier>
//   GROUP BY <field> ("," <field>)*
//   [HAVING SUM(Size) >= <number>]
//   [ORDER BY SUM(Size) DESC]
//   [LIMIT <number>]
//
//   <field> := SrcIP[/bits] | DstIP[/bits] | SrcPort | DstPort | Proto
//
// The selected fields must match the GROUP BY fields (that is the only
// aggregation §4.3's queries need), and together select at most 128 bits.
// Keywords are case-insensitive.
//
// The executor compiles the field list to a keys::TupleKeySpec, whose runs
// pack a row with one shift and one mask per run of fields that are
// neighbours in the 5-tuple, and groups the decoded flow table by each
// row's packed partial key (TupleKeySpec::Pack, one 128-bit value) into a
// flat query::FlowTable<keys::PackedKey>, indexed by the keyed two-word
// fold (hash::KeyedFold): no node or DynKey per group. Only the
// groups that pass HAVING are copied out; ORDER BY SUM(Size) DESC
// partially sorts them (only the first LIMIT k need order; ties by key,
// which is query::KeyOrderLess's order), and only the returned rows get a
// DynKey and their field text (dotted-decimal / numeric). Without ORDER
// BY, groups come in the order their first row appears in the decoded
// table: decode (bucket) order, the same on every run and platform.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "keys/key_spec.h"
#include "packet/keys.h"
#include "query/flow_table.h"

namespace coco::query::sql {

struct Statement {
  std::vector<keys::FieldSel> fields;  // the g(.) being asked for
  std::string table_name;
  std::optional<uint64_t> having_at_least;  // HAVING SUM(Size) >= n
  bool order_by_size_desc = false;
  std::optional<size_t> limit;
};

// Parses a statement; on failure returns std::nullopt and fills *error with
// a position-annotated message.
std::optional<Statement> Parse(const std::string& text, std::string* error);

struct ResultRow {
  DynKey key;
  uint64_t size = 0;
  std::vector<std::string> field_text;  // one rendered column per field
};

struct Result {
  std::vector<std::string> column_names;  // field names + "SUM(Size)"
  std::vector<ResultRow> rows;
};

// Executes a parsed statement against a decoded full-key table.
Result Execute(const Statement& statement, const FlowTable<FiveTuple>& table);

// Convenience: parse + execute. Aborts parse errors into *error.
std::optional<Result> Query(const std::string& text,
                            const FlowTable<FiveTuple>& table,
                            std::string* error);

// Renders a result as an aligned text table (for examples / debugging).
std::string FormatResult(const Result& result);

}  // namespace coco::query::sql
