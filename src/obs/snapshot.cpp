#include "obs/snapshot.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <iterator>

namespace coco::obs {

Snapshot CaptureSnapshot(const Registry& registry) {
  Snapshot snap;
  registry.ForEachCounter([&](const std::string& name, const Counter& c) {
    snap.counters.emplace(name, c.Value());
  });
  registry.ForEachGauge([&](const std::string& name, const Gauge& g) {
    snap.gauges.emplace(name, g.Value());
  });
  registry.ForEachHistogram([&](const std::string& name, const Histogram& h) {
    HistogramSnapshot hs;
    // Read the buckets first: samples observed mid-capture can land in
    // count/sum without a bucket, but never the other way around, so
    // count >= sum-of-buckets always holds in the snapshot.
    for (size_t i = 0; i < Histogram::kBuckets; ++i) {
      const uint64_t n = h.BucketCount(i);
      if (n != 0) hs.buckets.emplace_back(Histogram::BucketUpperBound(i), n);
    }
    hs.count = h.Count();
    hs.sum = h.Sum();
    snap.histograms.emplace(name, std::move(hs));
  });
  return snap;
}

namespace {

void AppendFmt(std::string* out, const char* fmt, ...) {
  char buf[64];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out->append(buf, static_cast<size_t>(n));
}

// %.17g prints doubles losslessly (round-trips through strtod).
void AppendDouble(std::string* out, double v) {
  AppendFmt(out, "%.17g", v);
}

}  // namespace

std::string ToJson(const Snapshot& snapshot, bool pretty) {
  const char* nl = pretty ? "\n" : "";
  const char* ind = pretty ? "  " : "";
  const char* ind2 = pretty ? "    " : "";
  std::string out;
  out.reserve(256 + 48 * (snapshot.counters.size() + snapshot.gauges.size()) +
              128 * snapshot.histograms.size());

  out += "{";
  out += nl;

  out += ind;
  out += "\"counters\": {";
  out += nl;
  for (auto it = snapshot.counters.begin(); it != snapshot.counters.end();
       ++it) {
    out += ind2;
    out += '"';
    out += it->first;
    out += "\": ";
    AppendFmt(&out, "%" PRIu64, it->second);
    if (std::next(it) != snapshot.counters.end()) out += ',';
    out += nl;
  }
  out += ind;
  out += "},";
  out += nl;

  out += ind;
  out += "\"gauges\": {";
  out += nl;
  for (auto it = snapshot.gauges.begin(); it != snapshot.gauges.end(); ++it) {
    out += ind2;
    out += '"';
    out += it->first;
    out += "\": ";
    AppendDouble(&out, it->second);
    if (std::next(it) != snapshot.gauges.end()) out += ',';
    out += nl;
  }
  out += ind;
  out += "},";
  out += nl;

  out += ind;
  out += "\"histograms\": {";
  out += nl;
  for (auto it = snapshot.histograms.begin(); it != snapshot.histograms.end();
       ++it) {
    out += ind2;
    out += '"';
    out += it->first;
    out += "\": {\"count\": ";
    AppendFmt(&out, "%" PRIu64, it->second.count);
    out += ", \"sum\": ";
    AppendFmt(&out, "%" PRIu64, it->second.sum);
    out += ", \"buckets\": [";
    for (size_t b = 0; b < it->second.buckets.size(); ++b) {
      if (b != 0) out += ", ";
      out += '[';
      AppendFmt(&out, "%" PRIu64, it->second.buckets[b].first);
      out += ", ";
      AppendFmt(&out, "%" PRIu64, it->second.buckets[b].second);
      out += ']';
    }
    out += "]}";
    if (std::next(it) != snapshot.histograms.end()) out += ',';
    out += nl;
  }
  out += ind;
  out += "}";
  out += nl;

  out += "}";
  if (pretty) out += '\n';
  return out;
}

}  // namespace coco::obs
