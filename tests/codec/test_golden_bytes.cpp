// Golden bytes (DESIGN.md §8): the exact encoding of one fixed,
// representative value of every frame type and every persisted body, stored
// as hex. Round-trip tests cannot catch a reordered or re-sized field —
// both directions derive from the same field list — so these literals are
// the contract that keeps old peers, old journals and old checkpoints
// readable. A change here is a wire or format version change.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "cluster/peer_protocol.hpp"
#include "net/protocol.hpp"
#include "parallel/snapshot.hpp"
#include "parallel/wire.hpp"
#include "service/journal.hpp"
#include "service/warm_start.hpp"
#include "util/crc32.hpp"

namespace pts {
namespace {

namespace wire = parallel::wire;

std::string hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const auto b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

std::vector<std::uint8_t> unhex(const std::string& text) {
  std::vector<std::uint8_t> out;
  for (std::size_t k = 0; k + 1 < text.size(); k += 2) {
    out.push_back(
        static_cast<std::uint8_t>(std::stoi(text.substr(k, 2), nullptr, 16)));
  }
  return out;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("pts_golden_" + std::to_string(::getpid()) + "_" + name))
      .string();
}

/// 3 items x 2 constraints, every number exactly representable.
mkp::Instance golden_instance() {
  mkp::Instance inst("g", {3.0, 5.0, 8.0}, {1.0, 2.0, 4.0, 0.5, 0.25, 2.0},
                     {6.0, 3.0});
  inst.set_known_optimum(11.0);
  return inst;
}

mkp::Solution golden_solution(const mkp::Instance& inst) {
  mkp::Solution s(inst);
  s.add(0);
  s.add(2);
  return s;
}

service::JobOptions golden_options() {
  service::JobOptions o;
  o.preset = "quick";
  o.time_budget_seconds = 1.5;
  o.deadline_seconds = 4.0;
  o.priority = -2;
  o.seed = 77;
  o.target_value = 10.0;
  o.mode = parallel::CooperationMode::kCooperativePool;
  o.backend = parallel::Backend::kProcess;
  o.proc.worker_path = "w";
  o.proc.worker_timeout_seconds = 2.0;
  o.proc.max_respawns_per_slave = 3;
  o.proc.respawn_backoff_base_seconds = 0.25;
  o.proc.respawn_backoff_cap_seconds = 8.0;
  o.proc.breaker_threshold = 5;
  o.proc.breaker_window_seconds = 30.0;
  o.proc.breaker_cooloff_seconds = 60.0;
  o.core_reduction = true;
  return o;
}

// -- Worker range (1-6). ----------------------------------------------------

TEST(GoldenBytes, WorkerFrames) {
  const auto inst = golden_instance();

  EXPECT_EQ(hex(wire::encode_hello({4, 0x0102030405060708ull, inst, 3})),
            "545003017b000000040000000807060504030201010000006703000000020000"
            "00000000000000084000000000000014400000000000002040000000000000f0"
            "3f00000000000000400000000000001040000000000000e03f000000000000d0"
            "3f00000000000000400000000000001840000000000000084001000000000000"
            "264003");

  parallel::Assignment a{9, golden_solution(inst), tabu::TsParams{}};
  a.params.strategy = {11, 2, 40, 16};
  a.params.nb_div = 6;
  a.params.nb_int = 2;
  a.params.b_best = 4;
  a.params.intensification = tabu::IntensificationKind::kStrategicOscillation;
  a.params.oscillation_depth = 7;
  a.params.tenure_control = tabu::TenureControl::kReactive;
  a.params.high_frequency = 0.75;
  a.params.low_frequency = 0.125;
  a.params.diversify_hold = 21;
  a.params.max_moves = 5000;
  a.params.time_limit_seconds = 0.5;
  a.params.target_value = 10.5;
  a.params.run_to_budget = false;
  EXPECT_EQ(hex(wire::encode_assignment(a)),
            "5450030294000000090000000000000003000000010000000500000000000000"
            "00000000000026400b0000000000000002000000000000002800000000000000"
            "1000000000000000060000000000000002000000000000000400000000000000"
            "02070000000000000002000000000000e83f000000000000c03f150000000000"
            "00008813000000000000000000000000e03f01000000000000254000");

  EXPECT_EQ(hex(wire::encode_stop()), "5450030300000000");

  parallel::Report report;
  report.slave_id = 2;
  report.round = 9;
  report.initial_value = 3.0;
  report.final_value = 11.0;
  report.elite.push_back(golden_solution(inst));
  report.moves = 321;
  report.seconds = 0.0625;
  report.reached_target = true;
  report.counters[obs::Counter::kMovesTried] = 321;
  report.anytime.push_back({2, 0.5, 100, 11.0});
  EXPECT_EQ(hex(wire::encode_from_slave(report)),
            "54500304e5000000020000000900000000000000000000000000084000000000"
            "0000264001000000030000000100000005000000000000000000000000002640"
            "4101000000000000000000000000b03f010f0000004101000000000000000000"
            "0000000000000000000000000000000000000000000000000000000000000000"
            "0000000000000000000000000000000000000000000000000000000000000000"
            "0000000000000000000000000000000000000000000000000000000000000000"
            "000000000000000000000000000100000002000000000000000000e03f640000"
            "00000000000000000000002640");

  EXPECT_EQ(hex(wire::encode_from_slave(parallel::SlaveFault{1, 5, "oom"})),
            "5450030513000000010000000500000000000000030000006f6f6d");

  wire::TelemetryChunk chunk;
  chunk.slave_id = 1;
  chunk.worker_now_us = -7;
  wire::ChunkEvent event;
  event.name = "r";
  event.phase = 'X';
  event.tid = 3;
  event.ts_us = 10;
  event.dur_us = 4;
  event.args = {{"k", 2.0}};
  event.has_detail = true;
  event.detail_key = "d";
  event.detail = "v";
  chunk.events.push_back(event);
  chunk.counter_deltas = {{"c", 9}};
  EXPECT_EQ(hex(wire::encode_telemetry_chunk(chunk)),
            "545003065700000001000000f9ffffffffffffff010000000100000072580300"
            "00000a00000000000000040000000000000001000000010000006b0000000000"
            "00004001010000006401000000760100000001000000630900000000000000");
}

// -- Client range (16-21). --------------------------------------------------

TEST(GoldenBytes, ClientFrames) {
  const auto inst = golden_instance();

  const net::SubmitJob submit{5,
                              "t",
                              3,
                              2.5,
                              service::WarmStartPolicy::kExact,
                              false,
                              golden_options(),
                              inst};
  EXPECT_EQ(hex(net::encode_submit_job(submit)),
            "54500310fb000000050000000000000001000000740300000001000000000000"
            "0440010005000000717569636b000000000000f83f010000000000001040feff"
            "ffff4d0000000000000001000000000000244001020101010000007700000000"
            "000000400300000000000000000000000000d03f000000000000204005000000"
            "000000000000000000003e400000000000004e40010100000067030000000200"
            "0000000000000000084000000000000014400000000000002040000000000000"
            "f03f00000000000000400000000000001040000000000000e03f000000000000"
            "d03f000000000000004000000000000018400000000000000840010000000000"
            "002640");

  const net::SubmitAck ack{5, Status::resource_exhausted("q"), 12,
                           0x1122334455667788ull, true};
  EXPECT_EQ(hex(net::encode_submit_ack(ack)),
            "545003111f00000005000000000000000401000000710c000000000000008877"
            "66554433221101");

  net::JobEvent event;
  event.request_id = 5;
  event.anytime = {{-1, 0.25, 8, 3.0}};
  EXPECT_EQ(hex(net::encode_job_event(event)),
            "545003122900000005000000000000000101000000ffffffff000000000000d0"
            "3f08000000000000000000000000000840");

  net::JobResultFrame result;
  result.request_id = 5;
  result.status = Status::deadline_exceeded("late");
  result.origin = service::JobOrigin::kResumed;
  result.best_value = 11.0;
  result.best = golden_solution(inst);
  result.total_moves = 1000;
  result.reached_target = true;
  result.slave_faults = 1;
  result.queue_seconds = 0.5;
  result.run_seconds = 2.0;
  result.start_sequence = 3;
  result.tenant = "t";
  result.content_hash = 0xAABBCCDDEEFF0011ull;
  result.deduplicated = true;
  result.warm_started = true;
  EXPECT_EQ(hex(net::encode_job_result(result)),
            "545003136b000000050000000000000003040000006c61746501000000000000"
            "264001030000000100000005000000000000000000000000002640e803000000"
            "000000010100000000000000000000000000e03f000000000000004003000000"
            "0000000001000000741100ffeeddccbbaa0101");

  EXPECT_EQ(hex(net::encode_cancel_job({6})),
            "54500314080000000600000000000000");
  EXPECT_EQ(hex(net::encode_goodbye({"bye"})),
            "545003150700000003000000627965");
}

// -- Peer range (32-37). ----------------------------------------------------

TEST(GoldenBytes, PeerFrames) {
  EXPECT_EQ(hex(cluster::encode_peer_hello({"c", 2})),
            "545003200d00000001000000630200000000000000");
  EXPECT_EQ(hex(cluster::encode_peer_welcome({"n", 7, 4})),
            "5450032111000000010000006e070000000000000004000000");
  EXPECT_EQ(hex(cluster::encode_peer_ping({8})),
            "54500322080000000800000000000000");
  EXPECT_EQ(hex(cluster::encode_peer_pong({8, 1, 2, 7})),
            "5450032318000000080000000000000001000000020000000700000000000000");

  cluster::PeerReplicate replicate;
  cluster::ReplicateRecord submitted;
  submitted.seq = 1;
  submitted.kind = cluster::ReplicateRecord::Kind::kSubmitted;
  submitted.job_id = 3;
  submitted.instance = std::make_shared<const mkp::Instance>(golden_instance());
  submitted.options = golden_options();
  submitted.tenant = "t";
  submitted.warm_start = service::WarmStartPolicy::kSimilar;
  replicate.records.push_back(submitted);
  cluster::ReplicateRecord resolved;
  resolved.seq = 2;
  resolved.kind = cluster::ReplicateRecord::Kind::kResolved;
  resolved.job_id = 3;
  replicate.records.push_back(resolved);
  cluster::ReplicateRecord dedup;
  dedup.seq = 3;
  dedup.kind = cluster::ReplicateRecord::Kind::kDedup;
  dedup.job_id = 4;
  dedup.dedup_primary = 3;
  replicate.records.push_back(dedup);
  EXPECT_EQ(hex(cluster::encode_peer_replicate(replicate)),
            "5450032424010000030000000100000000000000010300000000000000010000"
            "0067030000000200000000000000000008400000000000001440000000000000"
            "2040000000000000f03f00000000000000400000000000001040000000000000"
            "e03f000000000000d03f00000000000000400000000000001840000000000000"
            "084001000000000000264005000000717569636b000000000000f83f01000000"
            "0000001040feffffff4d00000000000000010000000000002440010201010100"
            "00007700000000000000400300000000000000000000000000d03f0000000000"
            "00204005000000000000000000000000003e400000000000004e400101000000"
            "7402020000000000000002030000000000000003000000000000000304000000"
            "000000000300000000000000");

  EXPECT_EQ(hex(cluster::encode_peer_replicate_ack({9})),
            "54500325080000000900000000000000");
}

// -- Journal kSubmitted bodies. ---------------------------------------------

constexpr std::size_t kJournalBodyOffset =
    service::journal::kJournalHeaderBytes +
    service::journal::kRecordHeaderBytes;

TEST(GoldenBytes, JournalSubmittedBodyV3) {
  const auto path = temp_path("journal_v3.ptsj");
  {
    auto journal = service::journal::JobJournal::open_truncate(path);
    ASSERT_TRUE(journal) << journal.status().to_string();
    ASSERT_TRUE((*journal)
                    ->append_submitted(3, golden_instance(), golden_options(),
                                       "t", service::WarmStartPolicy::kExact)
                    .ok());
  }
  const auto file = read_file(path);
  std::remove(path.c_str());
  ASSERT_GT(file.size(), kJournalBodyOffset);
  EXPECT_EQ(hex(std::span(file).first(kJournalBodyOffset)),
            "5054534a03010bdfa1caed000000");
  EXPECT_EQ(hex(std::span(file).subspan(kJournalBodyOffset)),
            "0300000000000000010000006703000000020000000000000000000840000000"
            "00000014400000000000002040000000000000f03f0000000000000040000000"
            "0000001040000000000000e03f000000000000d03f0000000000000040000000"
            "0000001840000000000000084001000000000000264005000000717569636b00"
            "0000000000f83f010000000000001040feffffff4d0000000000000001000000"
            "0000002440010201010100000077000000000000004003000000000000000000"
            "00000000d03f000000000000204005000000000000000000000000003e400000"
            "000000004e4001010000007401");
}

TEST(GoldenBytes, JournalSubmittedBodyV2Replays) {
  // No encoder writes v2 any more; pin the decode side instead: this exact
  // v2 body must replay to the expected job (no tenant, warm start off).
  const auto body = unhex(
            "0300000000000000010000006703000000020000000000000000000840000000"
            "00000014400000000000002040000000000000f03f0000000000000040000000"
            "0000001040000000000000e03f000000000000d03f0000000000000040000000"
            "0000001840000000000000084001000000000000264005000000717569636b00"
            "0000000000f83f010000000000001040feffffff4d0000000000000001000000"
            "0000002440010201010100000077000000000000004003000000000000000000"
            "00000000d03f000000000000204005000000000000000000000000003e400000"
            "000000004e4001");
  std::vector<std::uint8_t> file = {'P', 'T', 'S', 'J', 2, 1};
  const std::uint32_t crc = crc32(body);
  const auto len = static_cast<std::uint32_t>(body.size());
  for (const std::uint32_t word : {crc, len}) {
    for (int k = 0; k < 4; ++k) {
      file.push_back(static_cast<std::uint8_t>(word >> (8 * k)));
    }
  }
  file.insert(file.end(), body.begin(), body.end());
  const auto path = temp_path("journal_v2.ptsj");
  {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(file.data()),
              static_cast<std::streamsize>(file.size()));
  }
  const auto jobs = service::journal::recover_jobs(path);
  std::remove(path.c_str());
  ASSERT_TRUE(jobs) << jobs.status().to_string();
  ASSERT_EQ(jobs->size(), 1U);
  const auto& job = (*jobs)[0];
  EXPECT_EQ(job.id, 3U);
  EXPECT_EQ(job.instance.name(), "g");
  EXPECT_EQ(job.instance.num_items(), 3U);
  EXPECT_EQ(job.instance.weight(1, 2), 2.0);
  EXPECT_EQ(job.options.preset, "quick");
  EXPECT_EQ(job.options.priority, -2);
  EXPECT_EQ(job.options.mode, parallel::CooperationMode::kCooperativePool);
  EXPECT_EQ(job.options.proc.breaker_cooloff_seconds, 60.0);
  EXPECT_TRUE(job.options.core_reduction);
  EXPECT_TRUE(job.tenant.empty());
  EXPECT_EQ(job.warm_start, service::WarmStartPolicy::kDisabled);
}

// -- Snapshot bodies. -------------------------------------------------------

parallel::snapshot::MasterCheckpoint golden_checkpoint(
    const mkp::Instance& inst) {
  parallel::snapshot::MasterCheckpoint cp(inst);
  cp.instance_fingerprint = parallel::snapshot::instance_fingerprint(inst);
  cp.seed = 5;
  cp.num_slaves = 1;
  cp.share_solutions = true;
  cp.adapt_strategies = false;
  cp.next_round = 4;
  cp.best = golden_solution(inst);
  cp.master_rng_state = {1, 2, 3, 4};
  parallel::snapshot::SlaveState slave;
  slave.strategy = {9, 1, 30, 0};
  slave.score = -3;
  slave.initial = golden_solution(inst);
  slave.b_best.push_back(golden_solution(inst));
  slave.rounds_unchanged = 2;
  slave.moves_before_round = 700;
  slave.consecutive_faults = 1;
  slave.active = false;
  cp.slaves.push_back(slave);
  cp.total_moves = 800;
  cp.elapsed_seconds = 1.25;
  cp.rounds_completed = 4;
  cp.strategy_retunes = 1;
  cp.global_best_injections = 2;
  cp.random_restarts = 3;
  cp.relink_improvements = 4;
  cp.slave_faults = 5;
  cp.slave_respawns = 6;
  return cp;
}

TEST(GoldenBytes, SnapshotV2Image) {
  const auto inst = golden_instance();
  auto cp = golden_checkpoint(inst);
  cp.core.full_instance_fingerprint = 0xCAFEF00Du;
  cp.core.status = {bounds::FixedValue::kFree, bounds::FixedValue::kOne,
                    bounds::FixedValue::kZero};
  EXPECT_EQ(hex(parallel::snapshot::encode_checkpoint(cp)),
            "505453430211a55a221c010000000000009d8fd2510500000000000000010000"
            "0001000400000000000000030000000100000005000000000000000000000000"
            "0026400100000000000000020000000000000003000000000000000400000000"
            "00000001000000090000000000000001000000000000001e0000000000000000"
            "00000000000000fdffffff010300000001000000050000000000000000000000"
            "0000264001000000030000000100000005000000000000000000000000002640"
            "0200000000000000bc0200000000000001000000000000000020030000000000"
            "00000000000000f43f0400000000000000010000000000000002000000000000"
            "0003000000000000000400000000000000050000000000000006000000000000"
            "00010df0feca03000000000201");
}

TEST(GoldenBytes, SnapshotV1ImageDecodes) {
  // No encoder writes v1 any more; pin the decode side: this exact v1 image
  // (no core section) loads with every field intact.
  const auto inst = golden_instance();
  const auto image = unhex(
            "5054534301167f7c4710010000000000009d8fd2510500000000000000010000"
            "0001000400000000000000030000000100000005000000000000000000000000"
            "0026400100000000000000020000000000000003000000000000000400000000"
            "00000001000000090000000000000001000000000000001e0000000000000000"
            "00000000000000fdffffff010300000001000000050000000000000000000000"
            "0000264001000000030000000100000005000000000000000000000000002640"
            "0200000000000000bc0200000000000001000000000000000020030000000000"
            "00000000000000f43f0400000000000000010000000000000002000000000000"
            "0003000000000000000400000000000000050000000000000006000000000000"
            "00");
  const auto decoded = parallel::snapshot::decode_checkpoint(image, inst);
  ASSERT_TRUE(decoded) << decoded.status().to_string();
  const auto expected = golden_checkpoint(inst);
  EXPECT_EQ(decoded->seed, expected.seed);
  EXPECT_EQ(decoded->next_round, expected.next_round);
  EXPECT_EQ(decoded->best, expected.best);
  EXPECT_EQ(decoded->master_rng_state, expected.master_rng_state);
  ASSERT_EQ(decoded->slaves.size(), 1U);
  EXPECT_EQ(decoded->slaves[0].strategy, expected.slaves[0].strategy);
  EXPECT_EQ(decoded->slaves[0].score, -3);
  EXPECT_EQ(decoded->slaves[0].moves_before_round, 700U);
  EXPECT_FALSE(decoded->slaves[0].active);
  EXPECT_EQ(decoded->slave_respawns, 6U);
  EXPECT_FALSE(decoded->core.engaged());
  // Re-encoding writes v2: the same body plus one disengaged core byte.
  const auto v2 = parallel::snapshot::encode_checkpoint(*decoded);
  constexpr auto kBody = parallel::snapshot::kSnapshotHeaderBytes;
  EXPECT_EQ(hex(std::span(v2).subspan(kBody)),
            hex(std::span(image).subspan(kBody)) +
            "00");
}

// -- Warm-start entry. ------------------------------------------------------

TEST(GoldenBytes, WarmStartEntry) {
  const auto dir = temp_path("warm");
  std::filesystem::remove_all(dir);
  const auto inst = golden_instance();
  {
    service::WarmStartStore store(dir);
    parallel::snapshot::SlaveState slave;
    slave.strategy = {9, 1, 30, 4};
    slave.score = 6;
    slave.b_best.push_back(golden_solution(inst));
    ASSERT_TRUE(store.save(inst, 0x0123456789ABCDEFull, golden_solution(inst),
                           {slave})
                    .ok());
  }
  const auto file = read_file(
      (std::filesystem::path(dir) / "ws_0123456789abcdef.ptsw").string());
  std::filesystem::remove_all(dir);
  EXPECT_EQ(hex(file),
            "5054535701c8ad68337c00000000000000efcdab896745230102000000030000"
            "00e2acfc84382bef3f0000000000002640010000000900000000000000010000"
            "00000000001e0000000000000004000000000000000600000002000000030000"
            "0001000000050000000000000000000000000026400300000001000000050000"
            "00000000000000000000002640");
}

}  // namespace
}  // namespace pts
