// TelemetryChunk wire codec (DESIGN.md §6): bit-exact round trips, rejection
// of unknown phases, oversized strings and absurd counts, and the end-to-end
// schema of the merged trace a real proc-backend run produces — master and
// worker spans on one timeline, workers remapped to their own labelled pids,
// counter deltas folded into the master registry, plus total decoding of
// truncated payloads. The codec harness sweeps the same payload generically.
// The ASan smoke runs TelemetryChunk*.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "mkp/generator.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/runner.hpp"
#include "parallel/wire.hpp"

#ifndef PTS_WORKER_BIN_FOR_TESTS
#error "build must define PTS_WORKER_BIN_FOR_TESTS (see tests/CMakeLists.txt)"
#endif

namespace pts::parallel {
namespace {

constexpr const char* kWorkerBin = PTS_WORKER_BIN_FOR_TESTS;

wire::TelemetryChunk sample_chunk() {
  wire::TelemetryChunk chunk;
  chunk.slave_id = 2;
  chunk.worker_now_us = 123'456;
  wire::ChunkEvent span;
  span.name = "slave_round";
  span.phase = 'X';
  span.tid = 3;
  span.ts_us = 1'000;
  span.dur_us = 250;
  span.args = {{"round", 4.0}, {"moves", 1'024.0}};
  chunk.events.push_back(span);
  wire::ChunkEvent instant;
  instant.name = "improved";
  instant.phase = 'i';
  instant.tid = 3;
  instant.ts_us = 1'100;
  instant.has_detail = true;
  instant.detail_key = "kind";
  instant.detail = "new incumbent";
  chunk.events.push_back(instant);
  chunk.counter_deltas = {{"worker_reports_total", 1}, {"moves_total", 2'048}};
  return chunk;
}

/// Strips the 8-byte frame header off an encoded frame.
std::span<const std::uint8_t> payload_of(const std::vector<std::uint8_t>& frame) {
  return std::span<const std::uint8_t>(frame).subspan(wire::kHeaderBytes);
}

TEST(TelemetryChunk, RoundTripsEventsAndCounterDeltas) {
  const auto chunk = sample_chunk();
  const auto frame = wire::encode_telemetry_chunk(chunk);

  const auto header = wire::decode_header(frame);
  ASSERT_TRUE(header) << header.status().to_string();
  EXPECT_EQ(header->type, wire::MessageType::kTelemetry);
  EXPECT_EQ(header->payload_size, frame.size() - wire::kHeaderBytes);

  const auto decoded = wire::decode_telemetry_chunk(payload_of(frame));
  ASSERT_TRUE(decoded) << decoded.status().to_string();
  EXPECT_EQ(decoded->slave_id, 2U);
  EXPECT_EQ(decoded->worker_now_us, 123'456);
  ASSERT_EQ(decoded->events.size(), 2U);
  const auto& span = decoded->events[0];
  EXPECT_EQ(span.name, "slave_round");
  EXPECT_EQ(span.phase, 'X');
  EXPECT_EQ(span.tid, 3U);
  EXPECT_EQ(span.ts_us, 1'000);
  EXPECT_EQ(span.dur_us, 250);
  ASSERT_EQ(span.args.size(), 2U);
  EXPECT_EQ(span.args[1].first, "moves");
  EXPECT_DOUBLE_EQ(span.args[1].second, 1'024.0);
  EXPECT_FALSE(span.has_detail);
  const auto& instant = decoded->events[1];
  EXPECT_TRUE(instant.has_detail);
  EXPECT_EQ(instant.detail_key, "kind");
  EXPECT_EQ(instant.detail, "new incumbent");
  ASSERT_EQ(decoded->counter_deltas.size(), 2U);
  EXPECT_EQ(decoded->counter_deltas[0].first, "worker_reports_total");
  EXPECT_EQ(decoded->counter_deltas[1].second, 2'048U);
}

TEST(TelemetryChunk, EmptyChunkRoundTrips) {
  wire::TelemetryChunk chunk;
  chunk.slave_id = 7;
  chunk.worker_now_us = -5;  // clock offsets can make this negative
  const auto frame = wire::encode_telemetry_chunk(chunk);
  const auto decoded = wire::decode_telemetry_chunk(payload_of(frame));
  ASSERT_TRUE(decoded) << decoded.status().to_string();
  EXPECT_EQ(decoded->slave_id, 7U);
  EXPECT_EQ(decoded->worker_now_us, -5);
  EXPECT_TRUE(decoded->events.empty());
  EXPECT_TRUE(decoded->counter_deltas.empty());
}

TEST(TelemetryChunk, EveryTruncationIsAStatusNotACrash) {
  // The decoder consumes exactly the encoded byte count, so every strict
  // prefix must come back as a Status (total decoding, no UB, no throw).
  const auto frame = wire::encode_telemetry_chunk(sample_chunk());
  const auto payload = payload_of(frame);
  for (std::size_t len = 0; len < payload.size(); ++len) {
    const auto decoded = wire::decode_telemetry_chunk(payload.first(len));
    EXPECT_FALSE(decoded) << "prefix of " << len << " bytes decoded";
  }
  // Trailing garbage is equally rejected: the payload must be fully consumed.
  std::vector<std::uint8_t> padded(payload.begin(), payload.end());
  padded.push_back(0);
  EXPECT_FALSE(wire::decode_telemetry_chunk(padded));
}

TEST(TelemetryChunk, RejectsUnknownEventPhase) {
  auto chunk = sample_chunk();
  const auto frame = wire::encode_telemetry_chunk(chunk);
  // Payload layout: u32 slave_id, u64 now, u32 event_count, then event 0 as
  // str name (u32 length + bytes) followed by the phase byte.
  const std::size_t phase_offset = wire::kHeaderBytes + 4 + 8 + 4 + 4 +
                                   chunk.events[0].name.size();
  std::vector<std::uint8_t> corrupt(frame);
  ASSERT_EQ(corrupt[phase_offset], static_cast<std::uint8_t>('X'));
  corrupt[phase_offset] = static_cast<std::uint8_t>('Z');
  const auto decoded = wire::decode_telemetry_chunk(payload_of(corrupt));
  ASSERT_FALSE(decoded);
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(TelemetryChunk, RejectsOversizedStringsAndAbsurdCounts) {
  // Event names beyond the 256-byte cap never allocate their claimed length.
  wire::TelemetryChunk chunk;
  wire::ChunkEvent event;
  event.name = std::string(300, 'n');
  event.phase = 'i';
  chunk.events.push_back(event);
  EXPECT_FALSE(wire::decode_telemetry_chunk(payload_of(
      wire::encode_telemetry_chunk(chunk))));

  // Details beyond 4096 bytes are likewise rejected.
  wire::TelemetryChunk detail_chunk;
  wire::ChunkEvent with_detail;
  with_detail.name = "d";
  with_detail.phase = 'i';
  with_detail.has_detail = true;
  with_detail.detail_key = "k";
  with_detail.detail = std::string(5'000, 'x');
  detail_chunk.events.push_back(with_detail);
  EXPECT_FALSE(wire::decode_telemetry_chunk(payload_of(
      wire::encode_telemetry_chunk(detail_chunk))));

  // A forged event count far beyond what the payload could hold must be
  // rejected before any reserve happens.
  std::vector<std::uint8_t> forged(16, 0);
  forged[12] = 0xFF;  // event_count = 0xFF000000+ little-endian low byte
  forged[13] = 0xFF;
  forged[14] = 0xFF;
  forged[15] = 0x7F;
  EXPECT_FALSE(wire::decode_telemetry_chunk(forged));
}

TEST(TelemetryChunk, MergedTraceFromProcRunIsOneCoherentTimeline) {
  // The acceptance scenario: a real proc-backend CTS2 run with the tracer on
  // must leave ONE merged Chrome trace in the master tracer — master spans on
  // pid 1, every worker's spans remapped to a labelled pid >= 2 — and the
  // workers' counter deltas folded into the master registry.
  const auto inst =
      mkp::generate_gk({.num_items = 60, .num_constraints = 5}, 17);

  auto& tr = obs::tracer();
  obs::set_telemetry_enabled(true);
  tr.clear();
  tr.set_enabled(true);
  const auto reports_before =
      obs::metrics().counter("worker_reports_total").value();
  const auto chunks_before =
      obs::metrics().counter("proc_telemetry_chunks_total").value();

  ParallelConfig config;
  config.mode = CooperationMode::kCooperativeAdaptive;
  config.num_slaves = 3;
  config.search_iterations = 3;
  config.work_per_slave_round = 2'000;
  config.seed = 5;
  config.backend = Backend::kProcess;
  config.proc.worker_path = kWorkerBin;
  const auto run = run_parallel_tabu_search(inst, config);
  tr.set_enabled(false);
  ASSERT_TRUE(run.status.ok()) << run.status.to_string();
  ASSERT_EQ(run.master.slave_faults, 0U);

  const auto events = tr.snapshot();
  std::ostringstream chrome;
  tr.write_chrome_trace(chrome);
  tr.clear();

  // Schema: both sides of the process boundary are present, and every worker
  // pid got its process_name metadata row.
  std::set<std::uint32_t> pids;
  std::set<std::uint32_t> named_worker_pids;
  bool master_span = false;
  bool worker_span = false;
  for (const auto& event : events) {
    pids.insert(event.pid);
    if (event.phase == 'X' && event.pid == 1) master_span = true;
    if (event.phase == 'X' && event.pid >= 2) worker_span = true;
    if (event.phase == 'M' && event.pid >= 2 &&
        std::string_view(event.name) == "process_name") {
      named_worker_pids.insert(event.pid);
      EXPECT_EQ(event.detail.rfind("pts_worker ", 0), 0U) << event.detail;
    }
  }
  EXPECT_TRUE(master_span);
  EXPECT_TRUE(worker_span);
  EXPECT_GE(pids.size(), 2U);  // master + at least one merged worker
  for (const auto pid : pids) {
    if (pid >= 2) {
      EXPECT_TRUE(named_worker_pids.count(pid)) << "pid " << pid;
    }
  }

  // The exported file is sorted: timestamps are monotone in file order, so
  // Perfetto renders one timeline with no out-of-order warnings.
  const std::string text = chrome.str();
  ASSERT_EQ(text.rfind("{\"traceEvents\":[", 0), 0U);
  std::int64_t previous = -1;
  std::size_t samples = 0;
  for (std::size_t at = text.find("\"ts\":"); at != std::string::npos;
       at = text.find("\"ts\":", at + 5)) {
    const auto ts = std::stoll(text.substr(at + 5));
    EXPECT_GE(ts, previous) << "trace not sorted at byte " << at;
    previous = ts;
    ++samples;
  }
  EXPECT_EQ(samples, events.size());

  // Counter folding: every worker counts one report send per round on ITS
  // OWN registry; the supervisor's folds must reproduce the farm total.
  const auto reports =
      obs::metrics().counter("worker_reports_total").value() - reports_before;
  EXPECT_EQ(reports, config.num_slaves * run.master.rounds_completed);
  EXPECT_GE(obs::metrics().counter("proc_telemetry_chunks_total").value() -
                chunks_before,
            static_cast<std::uint64_t>(config.num_slaves));
}

}  // namespace
}  // namespace pts::parallel
