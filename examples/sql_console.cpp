// SQL console: measure a workload with one CocoSketch, then answer the
// paper's §4.3-style SQL queries against the decoded table. Pass a query as
// the (single) command-line argument, or run the built-in demo set.
//
// Usage:
//   ./build/examples/sql_console
//   ./build/examples/sql_console "SELECT SrcIP/16, SUM(Size) FROM flows
//        GROUP BY SrcIP/16 ORDER BY SUM(Size) DESC LIMIT 5"
#include <cstdio>
#include <string>
#include <vector>

#include "common/sizes.h"
#include "core/cocosketch.h"
#include "query/sql.h"
#include "trace/generators.h"

using namespace coco;

int main(int argc, char** argv) {
  // Measure once.
  const auto packets =
      trace::GenerateTrace(trace::TraceConfig::CaidaLike(800'000));
  core::CocoSketch<FiveTuple> sketch(KiB(500), 2);
  for (const Packet& p : packets) sketch.Update(p.key, p.weight);
  const auto table = sketch.Decode();
  std::printf("measured %zu packets -> %zu decoded flows; ready for SQL\n\n",
              packets.size(), table.size());

  std::vector<std::string> queries;
  if (argc > 1) {
    queries.push_back(argv[1]);
  } else {
    queries = {
        "SELECT SrcIP, SUM(Size) FROM flows GROUP BY SrcIP "
        "ORDER BY SUM(Size) DESC LIMIT 5",
        "SELECT SrcIP/16, SUM(Size) FROM flows GROUP BY SrcIP/16 "
        "HAVING SUM(Size) >= 10000 ORDER BY SUM(Size) DESC LIMIT 5",
        "SELECT DstIP, DstPort, SUM(Size) FROM flows "
        "GROUP BY DstIP, DstPort ORDER BY SUM(Size) DESC LIMIT 5",
        "SELECT Proto, SUM(Size) FROM flows GROUP BY Proto",
    };
  }

  for (const std::string& text : queries) {
    std::printf("> %s\n", text.c_str());
    std::string error;
    const auto result = query::sql::Query(text, table, &error);
    if (!result) {
      std::printf("error: %s\n\n", error.c_str());
      continue;
    }
    std::printf("%s(%zu rows)\n\n", query::sql::FormatResult(*result).c_str(),
                result->rows.size());
  }
  return 0;
}
