#include "query/sql.h"

#include <algorithm>
#include <cctype>

#include "common/bytes.h"

namespace coco::query::sql {
namespace {

// ---- Tokenizer -------------------------------------------------------------

enum class TokenKind { kIdent, kNumber, kComma, kSlash, kLParen, kRParen,
                       kGreaterEqual, kEnd };

struct Token {
  TokenKind kind;
  std::string text;  // identifier (upper-cased) or number
  size_t position;
};

class Tokenizer {
 public:
  explicit Tokenizer(const std::string& text) : text_(text) {}

  // Returns false and sets *error on an unrecognized character.
  bool Tokenize(std::vector<Token>* out, std::string* error) {
    size_t i = 0;
    while (i < text_.size()) {
      const char c = text_[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c))) {
        size_t j = i;
        while (j < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[j])) ||
                text_[j] == '_')) {
          ++j;
        }
        std::string word = text_.substr(i, j - i);
        std::transform(word.begin(), word.end(), word.begin(),
                       [](unsigned char ch) { return std::toupper(ch); });
        out->push_back({TokenKind::kIdent, word, i});
        i = j;
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c))) {
        size_t j = i;
        while (j < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[j]))) {
          ++j;
        }
        out->push_back({TokenKind::kNumber, text_.substr(i, j - i), i});
        i = j;
        continue;
      }
      switch (c) {
        case ',':
          out->push_back({TokenKind::kComma, ",", i});
          ++i;
          continue;
        case '/':
          out->push_back({TokenKind::kSlash, "/", i});
          ++i;
          continue;
        case '(':
          out->push_back({TokenKind::kLParen, "(", i});
          ++i;
          continue;
        case ')':
          out->push_back({TokenKind::kRParen, ")", i});
          ++i;
          continue;
        case '>':
          if (i + 1 < text_.size() && text_[i + 1] == '=') {
            out->push_back({TokenKind::kGreaterEqual, ">=", i});
            i += 2;
            continue;
          }
          [[fallthrough]];
        default:
          *error = "unexpected character '" + std::string(1, c) +
                   "' at position " + std::to_string(i);
          return false;
      }
    }
    out->push_back({TokenKind::kEnd, "", text_.size()});
    return true;
  }

 private:
  const std::string& text_;
};

// Overflow-safe digit-string parse: std::stoull throws on absurd inputs,
// which must surface as a parse error rather than an exception.
bool ParseNumber(const std::string& digits, uint64_t* out) {
  uint64_t value = 0;
  for (char c : digits) {
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;  // would overflow
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

// ---- Parser ----------------------------------------------------------------

class Parser {
 public:
  Parser(std::vector<Token> tokens, std::string* error)
      : tokens_(std::move(tokens)), error_(error) {}

  std::optional<Statement> Run() {
    Statement stmt;
    if (!ExpectKeyword("SELECT")) return std::nullopt;
    if (!ParseFieldList(&stmt.fields, /*terminated_by_sum=*/true)) {
      return std::nullopt;
    }
    if (!ExpectKeyword("FROM")) return std::nullopt;
    if (Peek().kind != TokenKind::kIdent) {
      return Fail("expected table name after FROM");
    }
    stmt.table_name = Next().text;
    if (!ExpectKeyword("GROUP") || !ExpectKeyword("BY")) return std::nullopt;
    std::vector<keys::FieldSel> group_fields;
    if (!ParseFieldList(&group_fields, /*terminated_by_sum=*/false)) {
      return std::nullopt;
    }
    if (!SameFields(stmt.fields, group_fields)) {
      return Fail("GROUP BY fields must match the selected fields");
    }
    size_t key_bits = 0;
    for (const keys::FieldSel& sel : stmt.fields) key_bits += sel.prefix_bits;
    if (key_bits > DynKey::kCapacity * 8) {
      return Fail("GROUP BY key is wider than 128 bits");
    }

    if (PeekKeyword("HAVING")) {
      Next();
      if (!ParseSumSize()) return std::nullopt;
      if (Peek().kind != TokenKind::kGreaterEqual) {
        return Fail("expected >= after HAVING SUM(Size)");
      }
      Next();
      if (Peek().kind != TokenKind::kNumber) {
        return Fail("expected number after >=");
      }
      uint64_t having = 0;
      if (!ParseNumber(Next().text, &having)) {
        return Fail("number out of range");
      }
      stmt.having_at_least = having;
    }
    if (PeekKeyword("ORDER")) {
      Next();
      if (!ExpectKeyword("BY")) return std::nullopt;
      if (!ParseSumSize()) return std::nullopt;
      if (!ExpectKeyword("DESC")) return std::nullopt;
      stmt.order_by_size_desc = true;
    }
    if (PeekKeyword("LIMIT")) {
      Next();
      if (Peek().kind != TokenKind::kNumber) {
        return Fail("expected number after LIMIT");
      }
      uint64_t limit = 0;
      if (!ParseNumber(Next().text, &limit)) {
        return Fail("number out of range");
      }
      stmt.limit = static_cast<size_t>(limit);
    }
    if (Peek().kind != TokenKind::kEnd) {
      return Fail("unexpected trailing input '" + Peek().text + "'");
    }
    return stmt;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Next() { return tokens_[pos_++]; }

  bool PeekKeyword(const char* kw) const {
    return Peek().kind == TokenKind::kIdent && Peek().text == kw;
  }

  bool ExpectKeyword(const char* kw) {
    if (!PeekKeyword(kw)) {
      Fail("expected '" + std::string(kw) + "'");
      return false;
    }
    Next();
    return true;
  }

  std::optional<Statement> Fail(const std::string& message) {
    *error_ = message + " (at position " +
              std::to_string(Peek().position) + ")";
    return std::nullopt;
  }

  // SUM ( SIZE )
  bool ParseSumSize() {
    if (!ExpectKeyword("SUM")) return false;
    if (Peek().kind != TokenKind::kLParen) {
      Fail("expected ( after SUM");
      return false;
    }
    Next();
    if (!ExpectKeyword("SIZE")) return false;
    if (Peek().kind != TokenKind::kRParen) {
      Fail("expected ) after SUM(Size");
      return false;
    }
    Next();
    return true;
  }

  // field ("," field)* — in SELECT position the list ends with ", SUM(Size)".
  bool ParseFieldList(std::vector<keys::FieldSel>* fields,
                      bool terminated_by_sum) {
    for (;;) {
      if (terminated_by_sum && PeekKeyword("SUM")) {
        if (fields->empty()) {
          Fail("need at least one key field before SUM(Size)");
          return false;
        }
        return ParseSumSize();
      }
      if (Peek().kind != TokenKind::kIdent) {
        Fail("expected field name");
        return false;
      }
      const std::string name = Next().text;
      keys::Field field;
      if (name == "SRCIP") {
        field = keys::Field::kSrcIp;
      } else if (name == "DSTIP") {
        field = keys::Field::kDstIp;
      } else if (name == "SRCPORT") {
        field = keys::Field::kSrcPort;
      } else if (name == "DSTPORT") {
        field = keys::Field::kDstPort;
      } else if (name == "PROTO") {
        field = keys::Field::kProto;
      } else {
        Fail("unknown field '" + name + "'");
        return false;
      }
      uint8_t bits = static_cast<uint8_t>(keys::FieldBits(field));
      if (Peek().kind == TokenKind::kSlash) {
        Next();
        if (Peek().kind != TokenKind::kNumber) {
          Fail("expected prefix length after /");
          return false;
        }
        uint64_t parsed = 0;
        if (!ParseNumber(Next().text, &parsed)) {
          Fail("number out of range");
          return false;
        }
        if (field != keys::Field::kSrcIp && field != keys::Field::kDstIp) {
          Fail("prefix length only valid on IP fields");
          return false;
        }
        if (parsed > keys::FieldBits(field)) {
          Fail("prefix length exceeds field width");
          return false;
        }
        bits = static_cast<uint8_t>(parsed);
      }
      fields->push_back(keys::FieldSel(field, bits));
      if (Peek().kind != TokenKind::kComma) {
        if (terminated_by_sum) {
          Fail("SELECT list must end with SUM(Size)");
          return false;
        }
        return true;
      }
      Next();
    }
  }

  static bool SameFields(const std::vector<keys::FieldSel>& a,
                         const std::vector<keys::FieldSel>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].field != b[i].field || a[i].prefix_bits != b[i].prefix_bits) {
        return false;
      }
    }
    return true;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  std::string* error_;
};

// ---- GROUP BY --------------------------------------------------------------

// A TupleKeySpec whose g(.) is Pack: grouping by the 128-bit packed key
// builds no DynKey per row.
struct PackedSpec {
  const keys::TupleKeySpec& spec;
  keys::PackedKey Apply(const FiveTuple& full) const { return spec.Pack(full); }
};

// ---- Row rendering ---------------------------------------------------------

std::string FieldName(const keys::FieldSel& sel) {
  std::string name;
  switch (sel.field) {
    case keys::Field::kSrcIp: name = "SrcIP"; break;
    case keys::Field::kDstIp: name = "DstIP"; break;
    case keys::Field::kSrcPort: name = "SrcPort"; break;
    case keys::Field::kDstPort: name = "DstPort"; break;
    case keys::Field::kProto: name = "Proto"; break;
  }
  if ((sel.field == keys::Field::kSrcIp || sel.field == keys::Field::kDstIp) &&
      sel.prefix_bits < 32) {
    name += "/" + std::to_string(sel.prefix_bits);
  }
  return name;
}

std::vector<std::string> RenderFields(const std::vector<keys::FieldSel>& sels,
                                      const keys::PackedKey& key) {
  std::vector<std::string> out;
  out.reserve(sels.size());
  // The unread fields, MSB-first from the top bit.
  unsigned __int128 rest =
      (static_cast<unsigned __int128>(key.hi) << 64) | key.lo;
  for (const keys::FieldSel& sel : sels) {
    const uint64_t raw =
        sel.prefix_bits == 0
            ? 0
            : static_cast<uint64_t>(rest >> (128 - sel.prefix_bits));
    rest <<= sel.prefix_bits;
    if (sel.field == keys::Field::kSrcIp || sel.field == keys::Field::kDstIp) {
      // Re-left-align the prefix inside 32 bits for dotted-decimal display.
      const uint32_t addr =
          sel.prefix_bits == 0
              ? 0
              : static_cast<uint32_t>(raw << (32 - sel.prefix_bits));
      std::string text = Ipv4ToString(addr);
      if (sel.prefix_bits < 32) {
        text += "/" + std::to_string(sel.prefix_bits);
      }
      out.push_back(text);
    } else {
      out.push_back(std::to_string(raw));
    }
  }
  return out;
}

}  // namespace

std::optional<Statement> Parse(const std::string& text, std::string* error) {
  std::vector<Token> tokens;
  Tokenizer tokenizer(text);
  if (!tokenizer.Tokenize(&tokens, error)) return std::nullopt;
  return Parser(std::move(tokens), error).Run();
}

Result Execute(const Statement& statement,
               const FlowTable<FiveTuple>& table) {
  const keys::TupleKeySpec spec("sql", statement.fields);
  // Only the groups that pass HAVING are copied out for ORDER BY / LIMIT.
  const uint64_t having = statement.having_at_least.value_or(0);
  std::vector<std::pair<keys::PackedKey, uint64_t>> groups;
  for (const auto& group : Aggregate(table, PackedSpec{spec})) {
    if (group.second >= having) groups.push_back(group);
  }
  size_t keep = groups.size();
  if (statement.limit) keep = std::min(keep, *statement.limit);
  if (statement.order_by_size_desc) {
    // Ties broken by key so output is stable across runs: for keys of one
    // spec, PackedKey order is query::KeyOrderLess's order.
    const auto by_size_desc = [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    };
    if (keep < groups.size()) {
      std::partial_sort(groups.begin(), groups.begin() + keep, groups.end(),
                        by_size_desc);
    } else {
      std::sort(groups.begin(), groups.end(), by_size_desc);
    }
  }

  Result result;
  for (const keys::FieldSel& sel : statement.fields) {
    result.column_names.push_back(FieldName(sel));
  }
  result.column_names.push_back("SUM(Size)");
  result.rows.reserve(keep);
  for (size_t i = 0; i < keep; ++i) {
    ResultRow row;
    row.key = spec.Render(groups[i].first);
    row.size = groups[i].second;
    row.field_text = RenderFields(statement.fields, groups[i].first);
    result.rows.push_back(std::move(row));
  }
  return result;
}

std::optional<Result> Query(const std::string& text,
                            const FlowTable<FiveTuple>& table,
                            std::string* error) {
  const auto statement = Parse(text, error);
  if (!statement) return std::nullopt;
  return Execute(*statement, table);
}

std::string FormatResult(const Result& result) {
  // Column widths: max of header and cell widths.
  std::vector<size_t> widths;
  for (const std::string& name : result.column_names) {
    widths.push_back(name.size());
  }
  for (const ResultRow& row : result.rows) {
    for (size_t c = 0; c < row.field_text.size(); ++c) {
      widths[c] = std::max(widths[c], row.field_text[c].size());
    }
    widths.back() = std::max(widths.back(), std::to_string(row.size).size());
  }

  std::string out;
  auto append_cell = [&](const std::string& text, size_t width) {
    out += text;
    out.append(width > text.size() ? width - text.size() : 0, ' ');
    out += "  ";
  };
  for (size_t c = 0; c < result.column_names.size(); ++c) {
    append_cell(result.column_names[c], widths[c]);
  }
  out += "\n";
  for (const ResultRow& row : result.rows) {
    for (size_t c = 0; c < row.field_text.size(); ++c) {
      append_cell(row.field_text[c], widths[c]);
    }
    append_cell(std::to_string(row.size), widths.back());
    out += "\n";
  }
  return out;
}

}  // namespace coco::query::sql
