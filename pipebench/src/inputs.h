// Workload inputs: synthetic meter traces from the repository's household
// generator, encoded sensor-side into upload-ready histories whose wire
// frames are pre-built, so the upload phase measures the server and not
// frame construction.

#ifndef PIPEBENCH_INPUTS_H_
#define PIPEBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/encoder.h"
#include "core/fleet_encoder.h"
#include "core/symbolic_series.h"
#include "core/time_series.h"

namespace pipebench {

// Every workload encodes like `smeter encode-fleet --gap-aware true`:
// level 4, 15-minute windows, median separators, no retries.
smeter::FleetEncodeOptions EncodeOptions();

// One meter's sensor-side result plus its pre-encoded upload frames
// (TABLE_ANNOUNCE, SYMBOL_BATCH..., GOODBYE; HELLO carries the meter id
// and is built per session).
struct History {
  std::string table_blob;
  smeter::SymbolicSeries symbols{1};
  smeter::EncodeQuality quality;
  std::vector<std::string> frames;
};

struct FleetSpec {
  size_t meters = 0;
  int64_t start = 0;        // first timestamp (day aligned)
  int64_t days = 1;
  int64_t sample_period = 60;
  uint64_t seed = 1;
  size_t chunk = 1000;      // meters generated and encoded per step
  size_t keep_raw = 0;      // raw traces kept for the traced replay
  size_t encode_repeats = 1;  // timed encodes per chunk (best one counts)
};

// Encoding cost of GenerateAndEncode: raw samples in, and the throughput
// of each chunk (its best of `FleetSpec::encode_repeats` encodes), plus
// one more rate per RetimeEncode call. Generation is not included.
struct EncodeStats {
  uint64_t samples = 0;
  std::vector<double> chunk_rates;  // samples per second
  std::vector<smeter::FleetInput> first_chunk;  // raw inputs, for RetimeEncode
};

// Generates `spec.meters` traces (untimed, 4 threads) chunk by chunk and
// encodes each chunk with EncodeFleetTolerant on a 2-lane ThreadPool
// (timed into `stats`; identical repeats only re-time the same work). The first `spec.keep_raw` raw traces are returned
// in `raw` for the traced encoder replay.
smeter::Result<std::vector<History>> GenerateAndEncode(
    const FleetSpec& spec, EncodeStats* stats,
    std::vector<smeter::TimeSeries>* raw);

// Encodes `stats->first_chunk` again (best of `spec.encode_repeats`) and
// adds its rate to `stats->chunk_rates`, so that encode throughput is
// sampled across a run and not only at its start.
smeter::Status RetimeEncode(const FleetSpec& spec, EncodeStats* stats);

// An upload: meter id, index of the history it sends, and its HELLO.
struct UploadSession {
  std::string meter;
  uint32_t history = 0;
  std::string hello;
};

UploadSession MakeSession(std::string meter, uint32_t history);

}  // namespace pipebench

#endif  // PIPEBENCH_INPUTS_H_
