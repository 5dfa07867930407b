#include "common.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>

namespace pipebench {

MetricTable MetricTable::Select(const std::vector<std::string>& names,
                                bool keep) const {
  MetricTable selected;
  for (const auto& [name, row] : rows_) {
    const bool named =
        std::find(names.begin(), names.end(), name) != names.end();
    if (named == keep) selected.rows_[name] = row;
  }
  return selected;
}

std::string MetricTable::Json() const {
  std::string json = "{";
  bool first = true;
  for (const auto& [name, row] : rows_) {
    char value[64];
    // %.17g keeps every digit the double holds.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(row.value) ? row.value : 0.0);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value +
            ", \"unit\": \"" + row.unit + "\"}";
    first = false;
  }
  return json + "}";
}

void MetricTable::PrintTable(FILE* out) const {
  for (const auto& [name, row] : rows_) {
    std::fprintf(out, "  %-46s %16.6g %s\n", name.c_str(), row.value,
                 row.unit.c_str());
  }
}

namespace {

const char* SpanNameString(uint32_t name) {
  static const char* const kNames[kSpanNameCount] = {
      "session", "hello", "table", "batch", "goodbye",
      "query.point", "query.range", "query.aggregate"};
  return name < kSpanNameCount ? kNames[name] : "unknown";
}

}  // namespace

std::vector<int64_t> SelfTimeByName(const std::vector<Span>& spans) {
  std::vector<int64_t> self(kSpanNameCount, 0);
  std::vector<int64_t> children(spans.size(), 0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].end_ns == 0) continue;  // never closed: a failed session
    self[spans[i].name] += spans[i].end_ns - spans[i].start_ns - children[i];
  }
  return self;
}

bool WriteSpans(const std::string& path,
                const std::vector<std::vector<Span>>& recorders) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "recorder,group,parent,name,start_ns,end_ns\n");
  for (size_t r = 0; r < recorders.size(); ++r) {
    for (const Span& span : recorders[r]) {
      std::fprintf(out, "%zu,%" PRIu64 ",%d,%s,%" PRId64 ",%" PRId64 "\n", r,
                   span.group, span.parent, SpanNameString(span.name),
                   span.start_ns, span.end_ns);
    }
  }
  return std::fclose(out) == 0;
}

}  // namespace pipebench
