// cocotool — command-line front door to the library, tying the pieces into
// an operator workflow:
//
//   cocotool generate <out.cocotrc> [packets] [caida|mawi]
//       synthesize a workload and write it in the binary trace format
//   cocotool measure <in.cocotrc> <out.state> [memoryKB] [d]
//       run the trace through a CocoSketch and serialize the sketch state
//       (what a data plane would ship to the controller)
//   cocotool query <in.state> "<SQL>" [memoryKB] [d]
//       restore the state and answer a §4.3 SQL query
//   cocotool stats <in.state> [memoryKB] [d]
//       restore the state and dump occupancy/load-factor introspection as a
//       metrics-snapshot JSON (see docs/OBSERVABILITY.md)
//   cocotool merge <out.state> "<SQL|->" <in1.state> <in2.state> [...]
//       sketch-level merge (core/merge.h) of saved state images from
//       several vantage points, write the merged image, and answer a SQL
//       query over it ("-" skips the query); geometry is read from the
//       image headers, so all inputs must have been measured with the same
//       memKB and d, and hash seed (aggregating across seeds is refused —
//       bucket indices are incomparable)
//   cocotool rotate <in.state> <out.state> [newseedhex]
//       operator-commanded seed rotation (docs/ROBUSTNESS.md): restore the
//       image, epoch-swap it onto a new hash seed (fresh entropy unless
//       newseedhex is given), verify mass conservation, write the re-keyed
//       image
//
// State images carry the hash seed they were sealed with (format v3), and
// every subcommand restores with the seed read from the image header — a
// state file measured under one seed is never silently decoded under
// another.
//
// Example session:
//   cocotool generate /tmp/t.cocotrc 500000
//   cocotool measure /tmp/t.cocotrc /tmp/t.state 500 2
//   cocotool query /tmp/t.state "SELECT SrcIP/16, SUM(Size) FROM flows
//       GROUP BY SrcIP/16 ORDER BY SUM(Size) DESC LIMIT 10" 500 2
//   cocotool stats /tmp/t.state 500 2
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/sizes.h"
#include "core/cocosketch.h"
#include "core/merge.h"
#include "core/seed_rotation.h"
#include "core/state_image.h"
#include "obs/sketch_metrics.h"
#include "obs/snapshot.h"
#include "query/sql.h"
#include "trace/generators.h"
#include "trace/trace_io.h"

using namespace coco;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  cocotool generate <out.cocotrc> [packets] [caida|mawi]\n"
               "  cocotool measure <in.cocotrc> <out.state> [memKB] [d]\n"
               "  cocotool query <in.state> \"<SQL>\" [memKB] [d]\n"
               "  cocotool stats <in.state> [memKB] [d]\n"
               "  cocotool merge <out.state> \"<SQL|->\" <in1.state> "
               "<in2.state> [...]\n"
               "  cocotool rotate <in.state> <out.state> [newseedhex]\n");
  return 2;
}

// Restores `image` into a sketch whose hash seed comes from the image's own
// header (memKB/d stay caller-chosen so a geometry typo still fails loudly).
std::optional<core::CocoSketch<FiveTuple>> RestoreWithImageSeed(
    const std::vector<uint8_t>& image, size_t mem, size_t d,
    const char* path) {
  uint64_t hdr_d = 0, hdr_l = 0, seed = 0;
  if (!core::PeekStateImageHeader(image, &hdr_d, &hdr_l, &seed)) {
    std::fprintf(stderr, "%s is not a valid state image\n", path);
    return std::nullopt;
  }
  core::CocoSketch<FiveTuple> sketch(mem, d, seed);
  if (!sketch.RestoreState(image)) {
    std::fprintf(stderr,
                 "state/geometry mismatch: pass the memKB and d used at "
                 "measure time\n");
    return std::nullopt;
  }
  return sketch;
}

bool WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return out.good();
}

bool ReadFile(const std::string& path, std::vector<uint8_t>* bytes) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.good()) return false;
  bytes->resize(static_cast<size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes->data()),
          static_cast<std::streamsize>(bytes->size()));
  return in.good();
}

int Generate(int argc, char** argv) {
  if (argc < 3) return Usage();
  const size_t packets = argc > 3 ? std::strtoull(argv[3], nullptr, 10)
                                  : 500'000;
  const bool mawi = argc > 4 && std::strcmp(argv[4], "mawi") == 0;
  const auto trace = trace::GenerateTrace(
      mawi ? trace::TraceConfig::MawiLike(packets)
           : trace::TraceConfig::CaidaLike(packets));
  if (!trace::WriteTrace(argv[2], trace)) {
    std::fprintf(stderr, "cannot write %s\n", argv[2]);
    return 1;
  }
  std::printf("wrote %zu packets (%s model) to %s\n", trace.size(),
              mawi ? "MAWI" : "CAIDA", argv[2]);
  return 0;
}

int Measure(int argc, char** argv) {
  if (argc < 4) return Usage();
  bool ok = false;
  const auto trace = trace::ReadTrace(argv[2], &ok);
  if (!ok) {
    std::fprintf(stderr, "cannot read trace %s\n", argv[2]);
    return 1;
  }
  const size_t mem = KiB(argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 500);
  const size_t d = argc > 5 ? std::strtoull(argv[5], nullptr, 10) : 2;
  core::CocoSketch<FiveTuple> sketch(mem, d);
  for (const Packet& p : trace) sketch.Update(p.key, p.weight);
  if (!WriteFile(argv[3], sketch.SerializeState())) {
    std::fprintf(stderr, "cannot write state %s\n", argv[3]);
    return 1;
  }
  std::printf("measured %zu packets into %s (d=%zu, %s), state -> %s\n",
              trace.size(), FormatBytes(sketch.MemoryBytes()).c_str(), d,
              argv[2], argv[3]);
  return 0;
}

int RunQuery(int argc, char** argv) {
  if (argc < 4) return Usage();
  std::vector<uint8_t> image;
  if (!ReadFile(argv[2], &image)) {
    std::fprintf(stderr, "cannot read state %s\n", argv[2]);
    return 1;
  }
  const size_t mem = KiB(argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 500);
  const size_t d = argc > 5 ? std::strtoull(argv[5], nullptr, 10) : 2;
  auto sketch = RestoreWithImageSeed(image, mem, d, argv[2]);
  if (!sketch) return 1;
  std::string error;
  const auto result = query::sql::Query(argv[3], sketch->Decode(), &error);
  if (!result) {
    std::fprintf(stderr, "SQL error: %s\n", error.c_str());
    return 1;
  }
  std::printf("%s(%zu rows)\n", query::sql::FormatResult(*result).c_str(),
              result->rows.size());
  return 0;
}

int Stats(int argc, char** argv) {
  if (argc < 3) return Usage();
  std::vector<uint8_t> image;
  if (!ReadFile(argv[2], &image)) {
    std::fprintf(stderr, "cannot read state %s\n", argv[2]);
    return 1;
  }
  const size_t mem = KiB(argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 500);
  const size_t d = argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 2;
  auto sketch = RestoreWithImageSeed(image, mem, d, argv[2]);
  if (!sketch) return 1;
  obs::Registry registry;
  obs::PublishSketchStats(&registry, "sketch", sketch->Stats());
  std::fputs(obs::ToJson(obs::CaptureSnapshot(registry)).c_str(), stdout);
  return 0;
}

// Sketch-level merge of saved state images (network-wide aggregation,
// docs/NETWIDE.md): restores each image into a sketch sized from its own
// header, merges with core::MergeSketches, writes the merged image, and
// optionally answers one SQL query over the merged decode.
int Merge(int argc, char** argv) {
  if (argc < 5) return Usage();
  const std::string out_path = argv[2];
  const std::string sql = argv[3];
  Rng rng(0x6d657267);
  std::optional<core::CocoSketch<FiveTuple>> merged;
  for (int i = 4; i < argc; ++i) {
    std::vector<uint8_t> image;
    if (!ReadFile(argv[i], &image)) {
      std::fprintf(stderr, "cannot read state %s\n", argv[i]);
      return 1;
    }
    uint64_t d = 0, l = 0, seed = 0;
    if (!core::PeekStateImageHeader(image, &d, &l, &seed)) {
      std::fprintf(stderr, "%s is not a valid state image\n", argv[i]);
      return 1;
    }
    const size_t mem = static_cast<size_t>(d * l) *
                       core::CocoSketch<FiveTuple>::BucketBytes();
    core::CocoSketch<FiveTuple> shard(mem, static_cast<size_t>(d), seed);
    if (!shard.RestoreState(image)) {
      std::fprintf(stderr, "corrupt or mismatched state image %s\n", argv[i]);
      return 1;
    }
    if (!merged) {
      merged.emplace(mem, d, seed);
      merged->RestoreState(image);
      continue;
    }
    const auto stats = core::MergeSketches(&*merged, shard, &rng);
    if (stats.seed_mismatch) {
      std::fprintf(stderr,
                   "hash seed mismatch: %s was measured under seed %016llx, "
                   "the first image under %016llx — bucket positions are "
                   "incomparable across seeds (rotate one side first, or "
                   "re-measure with a shared COCO_SEED)\n",
                   argv[i], static_cast<unsigned long long>(shard.seed()),
                   static_cast<unsigned long long>(merged->seed()));
      return 1;
    }
    if (!stats.ok) {
      std::fprintf(stderr,
                   "geometry mismatch: %s differs from the first image "
                   "(all inputs need the same memKB and d)\n",
                   argv[i]);
      return 1;
    }
    std::printf("merged %s: %llu matched, %llu copied, %llu conflicts\n",
                argv[i], static_cast<unsigned long long>(stats.matched),
                static_cast<unsigned long long>(stats.copied),
                static_cast<unsigned long long>(stats.conflicts));
  }
  if (!WriteFile(out_path, merged->SerializeState())) {
    std::fprintf(stderr, "cannot write state %s\n", out_path.c_str());
    return 1;
  }
  std::printf("merged %d images (%s, d=%zu) -> %s, total mass %llu\n",
              argc - 4, FormatBytes(merged->MemoryBytes()).c_str(),
              merged->d(), out_path.c_str(),
              static_cast<unsigned long long>(merged->TotalValue()));
  if (sql != "-") {
    std::string error;
    const auto result = query::sql::Query(sql, merged->Decode(), &error);
    if (!result) {
      std::fprintf(stderr, "SQL error: %s\n", error.c_str());
      return 1;
    }
    std::printf("%s(%zu rows)\n", query::sql::FormatResult(*result).c_str(),
                result->rows.size());
  }
  return 0;
}

// Operator-commanded seed rotation (docs/ROBUSTNESS.md): the offline twin of
// the datapath's automatic response — rotate a saved image onto a fresh seed
// so a leaked/compromised seed stops being useful, preserving the decoded
// estimates and total mass.
int Rotate(int argc, char** argv) {
  if (argc < 4) return Usage();
  std::vector<uint8_t> image;
  if (!ReadFile(argv[2], &image)) {
    std::fprintf(stderr, "cannot read state %s\n", argv[2]);
    return 1;
  }
  uint64_t d = 0, l = 0, seed = 0;
  if (!core::PeekStateImageHeader(image, &d, &l, &seed)) {
    std::fprintf(stderr, "%s is not a valid state image\n", argv[2]);
    return 1;
  }
  const size_t mem = static_cast<size_t>(d * l) *
                     core::CocoSketch<FiveTuple>::BucketBytes();
  core::CocoSketch<FiveTuple> sketch(mem, static_cast<size_t>(d), seed);
  if (!sketch.RestoreState(image)) {
    std::fprintf(stderr, "corrupt or mismatched state image %s\n", argv[2]);
    return 1;
  }
  const uint64_t new_seed =
      argc > 4 ? std::strtoull(argv[4], nullptr, 16) : RandomSeed();
  if (new_seed == 0 || new_seed == seed) {
    std::fprintf(stderr, "new seed must be nonzero and differ from %016llx\n",
                 static_cast<unsigned long long>(seed));
    return 1;
  }
  const core::RotationStats stats = core::RotateSeed(&sketch, new_seed);
  std::printf("rotated %016llx -> %016llx: %zu flows replayed, mass %llu -> "
              "%llu (%s)\n",
              static_cast<unsigned long long>(stats.old_seed),
              static_cast<unsigned long long>(stats.new_seed),
              stats.flows_replayed,
              static_cast<unsigned long long>(stats.mass_before),
              static_cast<unsigned long long>(stats.mass_after),
              stats.mass_conserved ? "mass conserved" : "CONSERVATION FAILED");
  if (!WriteFile(argv[3], sketch.SerializeState())) {
    std::fprintf(stderr, "cannot write state %s\n", argv[3]);
    return 1;
  }
  return stats.mass_conserved ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    // With no arguments run a self-contained demo of the whole workflow.
    std::printf("no subcommand given - running the demo workflow\n\n");
    const std::string trc = "/tmp/cocotool_demo.cocotrc";
    const std::string st = "/tmp/cocotool_demo.state";
    char* gen[] = {argv[0], const_cast<char*>("generate"),
                   const_cast<char*>(trc.c_str()),
                   const_cast<char*>("400000")};
    if (Generate(4, gen) != 0) return 1;
    char* mea[] = {argv[0], const_cast<char*>("measure"),
                   const_cast<char*>(trc.c_str()),
                   const_cast<char*>(st.c_str())};
    if (Measure(4, mea) != 0) return 1;
    char* qry[] = {argv[0], const_cast<char*>("query"),
                   const_cast<char*>(st.c_str()),
                   const_cast<char*>(
                       "SELECT SrcIP, SUM(Size) FROM flows GROUP BY SrcIP "
                       "ORDER BY SUM(Size) DESC LIMIT 5")};
    if (RunQuery(4, qry) != 0) return 1;
    std::printf("\nsketch occupancy stats:\n");
    char* sta[] = {argv[0], const_cast<char*>("stats"),
                   const_cast<char*>(st.c_str())};
    return Stats(3, sta);
  }
  const std::string cmd = argv[1];
  if (cmd == "generate") return Generate(argc, argv);
  if (cmd == "measure") return Measure(argc, argv);
  if (cmd == "query") return RunQuery(argc, argv);
  if (cmd == "stats") return Stats(argc, argv);
  if (cmd == "merge") return Merge(argc, argv);
  if (cmd == "rotate") return Rotate(argc, argv);
  return Usage();
}
