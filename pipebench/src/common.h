// Shared plumbing for the pipeline benchmark: clocks, percentiles, the
// metric table printed at the end of a run, and the in-memory span
// recorder used by traced runs.

#ifndef PIPEBENCH_COMMON_H_
#define PIPEBENCH_COMMON_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace pipebench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// CPU seconds (user + sys) of the calling thread or whole process.
inline double CpuSeconds(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec +
                             usage.ru_stime.tv_usec) *
             1e-6;
}

// Nearest-rank percentile (p in [0, 100]) of `values`; sorts in place.
inline double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return 0;
  std::sort(values->begin(), values->end());
  size_t rank = static_cast<size_t>(p / 100.0 *
                                    static_cast<double>(values->size()));
  if (rank >= values->size()) rank = values->size() - 1;
  return (*values)[rank];
}

inline double Median(std::vector<double> values) {
  return Percentile(&values, 50);
}

// The mean of `values` without their lowest and highest eighth: it moves
// smoothly with a shifting mix of fast and slow repeats, where a median
// jumps between the two, and one outlying repeat does not carry it.
inline double TrimmedMean(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t cut = values.size() / 8;
  double sum = 0;
  for (size_t i = cut; i < values.size() - cut; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * cut);
}

// The result table: metric name -> value with unit. Printed as the final
// JSON line and as a human-readable table on stderr.
class MetricTable {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    rows_[name] = {value, unit};
  }
  // The rows named in `names` (keep) or every other row (!keep).
  MetricTable Select(const std::vector<std::string>& names, bool keep) const;
  std::string Json() const;
  void PrintTable(FILE* out) const;

 private:
  struct Row {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Row> rows_;
};

// One traced interval. Spans of one session (or query) share `group`;
// `parent` is the index of the enclosing span in the same recorder, or -1.
struct Span {
  uint32_t name = 0;
  int32_t parent = -1;
  uint64_t group = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Span names, fixed so recording is an integer store.
enum SpanName : uint32_t {
  kSpanSession = 0,   // HELLO sent -> GOODBYE_ACK parsed
  kSpanHello,         // HELLO round trip
  kSpanTable,         // TABLE_ANNOUNCE round trip
  kSpanBatch,         // SYMBOL_BATCH -> BATCH_ACK
  kSpanGoodbye,       // GOODBYE round trip
  kSpanPoint,         // point query round trip
  kSpanRange,         // range query round trip
  kSpanAggregate,     // aggregate query round trip
  kSpanNameCount,
};

// Per-thread span buffer. Recording is off unless `enabled`; spans stay
// in memory until the run ends and all recorders are merged.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled = false) : enabled_(enabled) {}

  int32_t Begin(uint32_t name, uint64_t group, int32_t parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back({name, parent, group, NowNs(), 0});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t index) {
    if (index >= 0) spans_[static_cast<size_t>(index)].end_ns = NowNs();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// Self time of every span (duration minus the union of its children's
// intervals), summed per span name, in nanoseconds. Children of one span
// never overlap here (one blocking client per span tree), so the union is
// a plain sum.
std::vector<int64_t> SelfTimeByName(const std::vector<Span>& spans);

// Writes spans as CSV (group,parent,name,start_ns,end_ns) to `path`.
bool WriteSpans(const std::string& path,
                const std::vector<std::vector<Span>>& recorders);

}  // namespace pipebench

#endif  // PIPEBENCH_COMMON_H_
