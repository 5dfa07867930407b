#include "inputs.h"

#include <algorithm>
#include <optional>
#include <thread>
#include <utility>

#include "common.h"
#include "common/thread_pool.h"
#include "data/generator.h"
#include "net/wire.h"

namespace pipebench {

using smeter::Result;
using smeter::TimeSeries;
namespace net = smeter::net;

smeter::FleetEncodeOptions EncodeOptions() {
  smeter::FleetEncodeOptions options;
  options.table.level = 4;
  options.pipeline.window_seconds = 900;
  options.gap_aware = true;
  options.retry.max_retries = 0;
  return options;
}

namespace {

constexpr size_t kGenerateThreads = 4;
constexpr size_t kBatchSymbols = 512;  // symbols per SYMBOL_BATCH
constexpr size_t kEncodeLanes = 2;

std::vector<std::string> BuildFrames(const History& history) {
  std::vector<std::string> frames;
  net::TableAnnouncePayload announce;
  announce.table_blob = history.table_blob;
  frames.push_back(net::EncodeFrame(net::MakeTableAnnounce(announce)));
  const auto& samples = history.symbols.samples();
  const int64_t step = samples.size() >= 2
                           ? samples[1].timestamp - samples[0].timestamp
                           : EncodeOptions().pipeline.window_seconds;
  uint64_t seq = 1;
  for (size_t begin = 0; begin < samples.size(); begin += kBatchSymbols) {
    const size_t end = std::min(begin + kBatchSymbols, samples.size());
    net::SymbolBatchPayload batch;
    batch.seq = seq++;
    batch.start_timestamp = samples[begin].timestamp;
    batch.step_seconds = step;
    batch.level = static_cast<uint8_t>(history.symbols.level());
    for (size_t i = begin; i < end; ++i) {
      batch.symbols.push_back(
          samples[i].symbol.is_gap()
              ? net::kWireGapSymbol
              : static_cast<uint16_t>(samples[i].symbol.index()));
    }
    frames.push_back(net::EncodeFrame(net::MakeSymbolBatch(batch)));
  }
  net::GoodbyePayload goodbye;
  goodbye.windows_valid = history.quality.windows_valid;
  goodbye.windows_partial = history.quality.windows_partial;
  goodbye.windows_gap = history.quality.windows_gap;
  frames.push_back(net::EncodeFrame(net::MakeGoodbye(goodbye)));
  return frames;
}

// The fastest of `repeats` timed encodes of `inputs` (at least one); the
// last encode's reports go to `reports`.
Result<double> FastestEncode(const std::vector<smeter::FleetInput>& inputs,
                             size_t repeats, smeter::ThreadPool* pool,
                             std::vector<smeter::HouseholdReport>* reports) {
  const smeter::FleetEncodeOptions options = EncodeOptions();
  double best = 0;
  for (size_t r = 0; r < std::max<size_t>(1, repeats); ++r) {
    const int64_t begin = NowNs();
    Result<std::vector<smeter::HouseholdReport>> encoded =
        smeter::EncodeFleetTolerant(inputs, options, pool);
    const double seconds = Seconds(NowNs() - begin);
    if (!encoded.ok()) return encoded.status();
    if (r == 0 || seconds < best) best = seconds;
    *reports = std::move(encoded.value());
  }
  return best;
}

}  // namespace

Result<std::vector<History>> GenerateAndEncode(const FleetSpec& spec,
                                               EncodeStats* stats,
                                               std::vector<TimeSeries>* raw) {
  smeter::data::GeneratorOptions generator;
  generator.num_houses = spec.meters;
  generator.start_timestamp = spec.start;
  generator.duration_seconds = spec.days * smeter::kSecondsPerDay;
  generator.sample_period_seconds = spec.sample_period;
  generator.seed = spec.seed;

  smeter::ThreadPool pool(kEncodeLanes);
  std::vector<History> histories;
  histories.reserve(spec.meters);
  for (size_t first = 0; first < spec.meters; first += spec.chunk) {
    const size_t count = std::min(spec.chunk, spec.meters - first);
    std::vector<std::optional<Result<TimeSeries>>> traces(count);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kGenerateThreads; ++t) {
      threads.emplace_back([&, t] {
        for (size_t i = t; i < count; i += kGenerateThreads) {
          traces[i] = smeter::data::GenerateHouseSeries(first + i, generator);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    std::vector<smeter::FleetInput> inputs;
    inputs.reserve(count);
    uint64_t samples = 0;
    for (size_t i = 0; i < count; ++i) {
      if (!traces[i]->ok()) return traces[i]->status();
      samples += (*traces[i])->size();
      std::string name = "h";
      name += std::to_string(first + i);
      inputs.push_back({std::move(name), std::move(*traces[i])});
    }

    std::vector<smeter::HouseholdReport> reports;
    Result<double> best =
        FastestEncode(inputs, spec.encode_repeats, &pool, &reports);
    if (!best.ok()) return best.status();
    stats->samples += samples;
    stats->chunk_rates.push_back(static_cast<double>(samples) / *best);
    if (first == 0) stats->first_chunk = inputs;

    for (size_t i = 0; i < count; ++i) {
      smeter::HouseholdReport& report = reports[i];
      if (!report.encoding.has_value()) {
        return smeter::InternalError(report.name + " was not encoded: " +
                                     report.error.message());
      }
      History history;
      history.table_blob = report.encoding->table.Serialize();
      history.symbols = std::move(report.encoding->symbols);
      history.quality = report.quality;
      history.frames = BuildFrames(history);
      histories.push_back(std::move(history));
      if (raw != nullptr && first + i < spec.keep_raw) {
        raw->push_back(std::move(inputs[i].trace.value()));
      }
    }
  }
  return histories;
}

smeter::Status RetimeEncode(const FleetSpec& spec, EncodeStats* stats) {
  uint64_t samples = 0;
  for (const smeter::FleetInput& input : stats->first_chunk) {
    samples += input.trace->size();
  }
  smeter::ThreadPool pool(kEncodeLanes);
  std::vector<smeter::HouseholdReport> reports;
  Result<double> best =
      FastestEncode(stats->first_chunk, spec.encode_repeats, &pool, &reports);
  if (!best.ok()) return best.status();
  stats->chunk_rates.push_back(static_cast<double>(samples) / *best);
  return smeter::Status::Ok();
}

UploadSession MakeSession(std::string meter, uint32_t history) {
  UploadSession session;
  net::HelloPayload hello;
  hello.meter_id = meter;
  session.hello = net::EncodeFrame(net::MakeHello(hello));
  session.meter = std::move(meter);
  session.history = history;
  return session;
}

}  // namespace pipebench
