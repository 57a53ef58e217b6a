// The codec harness (DESIGN.md §8): one table of (type, sample, decoder)
// covering every frame type decode_header accepts that has a body (all but
// the header-only kStop) plus the journal, snapshot and warm-start bodies,
// and one set of sweeps over all of it:
//
//   - every sample decodes, re-encodes to the same bytes and rejects a
//     trailing byte (decoders are exact, not prefix-tolerant);
//   - truncation at every byte comes back as a Status;
//   - random bit flips (header included, for frames) never crash;
//   - a forged count or length at every offset never crashes and never
//     allocates what the input cannot hold (fatal under the ASan smoke);
//   - every sample that carries a solution is refused once one of its
//     solutions is swapped for one whose value matches its bits but which
//     breaks a constraint.
//
// A frame type added without a table entry fails TableCoversEveryHeaderType.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bounds/greedy.hpp"
#include "cluster/peer_protocol.hpp"
#include "mkp/generator.hpp"
#include "net/protocol.hpp"
#include "parallel/snapshot.hpp"
#include "parallel/wire.hpp"
#include "service/journal.hpp"
#include "service/warm_start.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace pts {
namespace {

namespace wire = parallel::wire;
using Bytes = std::vector<std::uint8_t>;
using ByteSpan = std::span<const std::uint8_t>;
using wire::MessageType;

const mkp::Instance& instance() {
  static const mkp::Instance inst = [] {
    auto gk = mkp::generate_gk({.num_items = 20, .num_constraints = 3}, 7);
    gk.set_known_optimum(1234.5);
    return gk;
  }();
  return inst;
}

/// The feasible sample solutions; the samples below use seeds 1 to 11.
mkp::Solution solution(std::uint64_t seed) {
  Rng rng(seed);
  return bounds::greedy_randomized(instance(), rng);
}
constexpr std::uint64_t kSolutionSeeds = 11;

/// Every item selected: over capacity, with a value that matches its bits.
mkp::Solution infeasible_solution() {
  mkp::Solution all(instance());
  for (std::size_t j = 0; j < instance().num_items(); ++j) all.add(j);
  return all;
}

/// Per-process directory for the file-backed bodies; removed at exit.
const std::filesystem::path& scratch() {
  static const auto dir = std::filesystem::temp_directory_path() /
                          ("pts_harness_" + std::to_string(::getpid()));
  return dir;
}
struct ScratchCleanup : ::testing::Environment {
  void TearDown() override { std::filesystem::remove_all(scratch()); }
};
const auto* const kCleanup =
    ::testing::AddGlobalTestEnvironment(new ScratchCleanup);

void write_file(const std::filesystem::path& path, ByteSpan bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

Bytes read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Appends the low `width` bytes of `v`, little-endian.
void put_le(Bytes& out, std::uint64_t v, int width) {
  for (int k = 0; k < width; ++k) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * k)));
  }
}

/// The snapshot / warm-start container around `body`, re-sealed (CRC and
/// size) so a mutated body reaches its decoder instead of failing the CRC.
Bytes seal(const char (&magic)[5], std::uint8_t version, ByteSpan body) {
  Bytes image(magic, magic + 4);
  image.push_back(version);
  put_le(image, crc32(body), 4);
  put_le(image, body.size(), 8);
  image.insert(image.end(), body.begin(), body.end());
  return image;
}

/// One harness entry. Frames carry their header type and full frame (the
/// bit-flip sweep corrupts headers too); bodies carry only the body.
struct Case {
  std::string name;
  std::optional<MessageType> type;
  Bytes frame;
  Bytes bytes;  ///< the payload (frames) or the body (persisted formats)
  std::function<Status(ByteSpan)> decode;
  /// decode + re-encode; empty when the encoder takes other inputs.
  std::function<Bytes(ByteSpan)> reencode;
  bool rejects_trailing = true;
};

Bytes payload_of(const Bytes& frame) {
  return {frame.begin() + wire::kHeaderBytes, frame.end()};
}

template <class Decode, class Encode>
Case frame_case(Bytes frame, Decode decode, Encode encode) {
  Case c;
  c.type = wire::decode_header(frame)->type;
  c.name = "frame type " + std::to_string(static_cast<int>(*c.type));
  c.bytes = payload_of(frame);
  c.frame = std::move(frame);
  c.decode = [decode](ByteSpan p) { return decode(p).status(); };
  c.reencode = [decode, encode](ByteSpan p) {
    return payload_of(encode(*decode(p)));
  };
  return c;
}

auto with_instance(auto decode) {
  return [decode](ByteSpan p) { return decode(p, instance()); };
}

auto slave_bound(auto decode, MessageType type) {
  return [decode, type](ByteSpan p) { return decode(type, p, instance()); };
}

// -- Frame samples: every field non-default, every nested path populated. --

std::vector<Case> frame_cases() {
  const auto& inst = instance();
  parallel::Assignment assignment{7, solution(1), tabu::TsParams{}};
  assignment.params.strategy = {11, 3, 77, 16};
  assignment.params.intensification = tabu::IntensificationKind::kNone;
  assignment.params.tenure_control = tabu::TenureControl::kReactive;
  assignment.params.target_value = 987.5;
  parallel::Report report{2, 5, 10.5, 11.5, {solution(2), solution(3)},
                          4242, 0.25, true};
  report.counters[obs::Counter::kMovesTried] = 4242;
  report.anytime = {{2, 0.5, 100, 150.0}, {2, 0.75, 200, 222.75}};
  wire::TelemetryChunk chunk{2, 123'456, {}, {{"worker_reports_total", 1}}};
  chunk.events = {{"slave_round", 'X', 3, 1'000, 250, {{"round", 4.0}}},
                  {"improved", 'i', 3, 1'100, 0, {}, true, "kind", "new"}};
  service::JobOptions options;
  options.deadline_seconds = 8.0;
  options.target_value = 1234.5;
  options.mode = parallel::CooperationMode::kCooperativeAdaptive;
  options.backend = parallel::Backend::kProcess;
  options.core_reduction = true;
  const net::SubmitJob submit{
      7, "prod", 3, 2.5, service::WarmStartPolicy::kSimilar, false, options,
      inst};
  net::JobEvent event{3, net::JobEvent::Kind::kAnytimeChunk,
                      {{0, 0.5, 10, 1.0}, {obs::kGlobalSource, 0.75, 20, 2.0}}};
  net::JobResultFrame result{4, Status::deadline_exceeded("late"),
                             service::JobOrigin::kResumed};
  result.best = solution(4);
  result.best_value = result.best->value();
  result.tenant = "prod";
  using Kind = cluster::ReplicateRecord::Kind;
  cluster::ReplicateRecord submitted{5, Kind::kSubmitted, 11, inst, options,
                                     "prod", service::WarmStartPolicy::kExact};
  cluster::PeerReplicate replicate{
      {submitted, {6, Kind::kResolved, 11}, {7, Kind::kDedup, 12}}};
  replicate.records[2].dedup_primary = 11;

  return {
      frame_case(wire::encode_hello({3, 99, inst, 3}), wire::decode_hello,
                 wire::encode_hello),
      frame_case(wire::encode_assignment(assignment),
                 with_instance(wire::decode_assignment), wire::encode_assignment),
      frame_case(wire::encode_from_slave(report),
                 slave_bound(wire::decode_from_slave, MessageType::kReport),
                 wire::encode_from_slave),
      frame_case(wire::encode_from_slave(parallel::SlaveFault{1, 2, "boom"}),
                 slave_bound(wire::decode_from_slave, MessageType::kFault),
                 wire::encode_from_slave),
      frame_case(wire::encode_telemetry_chunk(chunk),
                 wire::decode_telemetry_chunk, wire::encode_telemetry_chunk),
      frame_case(net::encode_submit_job(submit), net::decode_submit_job,
                 net::encode_submit_job),
      frame_case(net::encode_submit_ack({2, Status::unavailable("bye"), 9, 77,
                                         true}),
                 net::decode_submit_ack, net::encode_submit_ack),
      frame_case(net::encode_job_event(event), net::decode_job_event,
                 net::encode_job_event),
      frame_case(net::encode_job_result(result),
                 with_instance(net::decode_job_result), net::encode_job_result),
      frame_case(net::encode_cancel_job({6}), net::decode_cancel_job,
                 net::encode_cancel_job),
      frame_case(net::encode_goodbye({"bye"}), net::decode_goodbye,
                 net::encode_goodbye),
      frame_case(cluster::encode_peer_hello({"prod", 2}),
                 cluster::decode_peer_hello, cluster::encode_peer_hello),
      frame_case(cluster::encode_peer_welcome({"node-a", 7, 4}),
                 cluster::decode_peer_welcome, cluster::encode_peer_welcome),
      frame_case(cluster::encode_peer_ping({1}), cluster::decode_peer_ping,
                 cluster::encode_peer_ping),
      frame_case(cluster::encode_peer_pong({1, 2, 3, 4}),
                 cluster::decode_peer_pong, cluster::encode_peer_pong),
      frame_case(cluster::encode_peer_replicate(replicate),
                 cluster::decode_peer_replicate, cluster::encode_peer_replicate),
      frame_case(cluster::encode_peer_replicate_ack({9}),
                 cluster::decode_peer_replicate_ack,
                 cluster::encode_peer_replicate_ack),
  };
}

// -- Persisted bodies, each driven through its real reader. ----------------

/// A kSubmitted body, replayed from a one-record journal file. A record the
/// replay cannot decode ends it, as a torn tail would: zero jobs.
Case journal_case() {
  const auto path = scratch() / "journal.ptsj";
  service::JobOptions options;
  options.mode = parallel::CooperationMode::kCooperativePool;
  options.deadline_seconds = 3.0;
  (void)(*service::journal::JobJournal::open_truncate(path))
      ->append_submitted(3, instance(), options, "prod",
                         service::WarmStartPolicy::kExact);
  const auto file = read_file(path);
  Case c{"journal kSubmitted body"};
  c.bytes.assign(file.begin() + service::journal::kJournalHeaderBytes +
                     service::journal::kRecordHeaderBytes,
                 file.end());
  c.decode = [path](ByteSpan body) {
    Bytes image = {'P', 'T', 'S', 'J', service::journal::kJournalVersion, 1};
    put_le(image, crc32(body), 4);
    put_le(image, body.size(), 4);
    image.insert(image.end(), body.begin(), body.end());
    write_file(path, image);
    const auto jobs = service::journal::recover_jobs(path);
    if (!jobs) return jobs.status();
    return jobs->size() == 1 ? Status{} : Status::invalid_argument("dropped");
  };
  return c;
}

/// A v2 snapshot body with an engaged core section.
Case snapshot_case() {
  namespace snapshot = parallel::snapshot;
  snapshot::MasterCheckpoint cp(instance());
  cp.instance_fingerprint = snapshot::instance_fingerprint(instance());
  cp.num_slaves = 2;
  cp.best = solution(5);
  cp.master_rng_state = {1, 2, 3, 4};
  for (std::uint64_t k = 0; k < 2; ++k) {
    cp.slaves.push_back(
        {.initial = solution(6 + k), .b_best = {solution(8 + k)}});
  }
  cp.core = {77, {bounds::FixedValue::kOne, bounds::FixedValue::kFree}};
  const auto decode = [](ByteSpan body) {
    return snapshot::decode_checkpoint(
        seal("PTSC", snapshot::kSnapshotVersion, body), instance());
  };
  const auto body_of = [](const Bytes& image) {
    return Bytes(image.begin() + snapshot::kSnapshotHeaderBytes, image.end());
  };
  Case c{"snapshot body"};
  c.bytes = body_of(snapshot::encode_checkpoint(cp));
  c.decode = [decode](ByteSpan body) { return decode(body).status(); };
  c.reencode = [decode, body_of](ByteSpan body) {
    return body_of(snapshot::encode_checkpoint(*decode(body)));
  };
  return c;
}

/// A warm-start entry, looked up as an exact hit. A torn solutions tail
/// still seeds a partial list, so "decoded" means every strategy AND every
/// saved solution came back.
Case warm_start_case() {
  constexpr std::uint64_t kHash = 0xABCDEF;
  auto store = std::make_shared<service::WarmStartStore>(
      (scratch() / "warm").string());
  parallel::snapshot::SlaveState slave{.strategy = {9, 1, 30, 4}, .score = 6};
  slave.b_best = {solution(10)};
  (void)store->save(instance(), kHash, solution(11), {slave, slave});
  const auto path = scratch() / "warm" / "ws_0000000000abcdef.ptsw";
  const auto file = read_file(path);
  Case c{"warm-start entry"};
  c.bytes.assign(file.begin() + service::kWarmStartHeaderBytes, file.end());
  c.decode = [store, path](ByteSpan body) {
    write_file(path, seal("PTSW", service::kWarmStartVersion, body));
    const auto hit =
        store->lookup(instance(), kHash, service::WarmStartPolicy::kExact);
    const bool whole = hit && hit->warm.strategies.size() == 2 &&
                       hit->warm.initials.size() == 3;
    return whole ? Status{} : Status::invalid_argument("no whole hit");
  };
  // The solutions tail is read as far as it decodes; trailing bytes are
  // never inspected.
  c.rejects_trailing = false;
  return c;
}

const std::vector<Case>& all_cases() {
  static const std::vector<Case> cases = [] {
    std::filesystem::create_directories(scratch());
    auto table = frame_cases();
    table.push_back(journal_case());
    table.push_back(snapshot_case());
    table.push_back(warm_start_case());
    return table;
  }();
  return cases;
}

enum class Range { kWorker, kClient, kPeer, kBody };

Range range_of(const Case& c) {
  if (!c.type) return Range::kBody;
  if (*c.type < MessageType::kSubmitJob) return Range::kWorker;
  if (*c.type < MessageType::kPeerHello) return Range::kClient;
  return Range::kPeer;
}

// -- The sweeps. -----------------------------------------------------------

void sweep_truncation(Range range) {
  for (const auto& c : all_cases()) {
    if (range_of(c) != range) continue;
    for (std::size_t cut = 0; cut < c.bytes.size(); ++cut) {
      EXPECT_FALSE(c.decode(ByteSpan(c.bytes).first(cut)).ok())
          << c.name << ": a " << cut << "-byte prefix of " << c.bytes.size()
          << " decoded";
    }
  }
}

/// Corruption may happen to decode (a flipped low bit of a double is still
/// a valid message); the invariant is totality: a value or a Status, never
/// a crash or an unbounded allocation. Frames are flipped whole, header
/// included, and the payload goes to whichever decoder the header names.
void sweep_bit_flips(Range range, std::uint64_t seed) {
  Rng rng(seed);
  for (const auto& c : all_cases()) {
    if (range_of(c) != range) continue;
    for (int trial = 0; trial < 200; ++trial) {
      Bytes bytes = c.type ? c.frame : c.bytes;
      const int flips = 1 + static_cast<int>(rng.next_below(4));
      for (int f = 0; f < flips; ++f) {
        bytes[rng.index(bytes.size())] ^=
            static_cast<std::uint8_t>(1u << rng.next_below(8));
      }
      if (!c.type) {
        (void)c.decode(bytes);
        continue;
      }
      const auto header = wire::decode_header(bytes);
      if (!header ||
          header->payload_size != bytes.size() - wire::kHeaderBytes) {
        continue;  // refused, or a length the frame reader would wait on
      }
      for (const auto& target : all_cases()) {
        if (target.type == header->type) {
          (void)target.decode(ByteSpan(bytes).subspan(wire::kHeaderBytes));
        }
      }
    }
  }
}

TEST(CodecHarness, TableCoversEveryHeaderType) {
  // kStop is header only: there is no body to decode or fuzz, and
  // GoldenBytes pins its eight bytes.
  std::set<int> table = {static_cast<int>(MessageType::kStop)};
  for (const auto& c : all_cases()) {
    if (c.type) table.insert(static_cast<int>(*c.type));
  }
  std::set<int> accepted;
  for (int type = 0; type < 256; ++type) {
    const Bytes header = {0x54, 0x50, wire::kVersion,
                          static_cast<std::uint8_t>(type), 0, 0, 0, 0};
    if (wire::decode_header(header)) accepted.insert(type);
  }
  EXPECT_EQ(table, accepted)
      << "every type byte decode_header accepts needs a harness entry";
  EXPECT_EQ(accepted.size(), 18U);
}

TEST(CodecHarness, EverySampleRoundTripsByteExactly) {
  for (const auto& c : all_cases()) {
    const auto status = c.decode(c.bytes);
    ASSERT_TRUE(status.ok()) << c.name << ": " << status.to_string();
    if (c.reencode) {
      EXPECT_EQ(c.reencode(c.bytes), c.bytes) << c.name;
    }
    if (c.rejects_trailing) {
      Bytes padded = c.bytes;
      padded.push_back(0);
      EXPECT_FALSE(c.decode(padded).ok()) << c.name << " took a trailing byte";
    }
  }
}

TEST(CodecFuzz, ForgedCountsNeverAllocateUnboundedly) {
  // Every u32 window is a potential count or length prefix: forge it to
  // values no input of this size can hold.
  for (const auto& c : all_cases()) {
    for (std::size_t at = 0; at + 4 <= c.bytes.size(); ++at) {
      for (const std::uint32_t forged : {0xFFFFFFFFu, 0x7FFFFFFFu, 1u << 20}) {
        Bytes bytes = c.bytes;
        std::memcpy(bytes.data() + at, &forged, sizeof forged);
        (void)c.decode(bytes);
      }
    }
  }
}

TEST(CodecHarness, InfeasibleSolutionIsRefusedByEveryCarrier) {
  const auto forged = wire::encode_solution(infeasible_solution());
  ASSERT_FALSE(infeasible_solution().is_feasible());
  EXPECT_EQ(wire::decode_solution(forged, instance()).status().code(),
            StatusCode::kInvalidArgument);

  // Splice the forged encoding over one sample solution in each case that
  // carries any; both encodings have the same length.
  std::set<std::string> carriers;
  for (const auto& c : all_cases()) {
    for (std::uint64_t seed = 1; seed <= kSolutionSeeds; ++seed) {
      const auto sample = wire::encode_solution(solution(seed));
      const auto at =
          std::search(c.bytes.begin(), c.bytes.end(), sample.begin(), sample.end());
      if (at == c.bytes.end()) continue;
      Bytes bytes = c.bytes;
      std::copy(forged.begin(), forged.end(),
                bytes.begin() + (at - c.bytes.begin()));
      EXPECT_EQ(c.decode(bytes).code(), StatusCode::kInvalidArgument)
          << c.name << " took an infeasible solution";
      carriers.insert(c.name);
      break;
    }
  }
  // Assignment, report, job result, snapshot and warm-start entry.
  EXPECT_EQ(carriers.size(), 5U);
}

// The same generic sweeps, split so each protocol range keeps its suite.
TEST(WireFuzz, TruncatedPayloadsAlwaysReturnStatus) {
  sweep_truncation(Range::kWorker);
}
TEST(NetProtocolFuzz, TruncatedPayloadsAlwaysReturnStatus) {
  sweep_truncation(Range::kClient);
}
TEST(PeerProtocolFuzz, TruncatedPayloadsAlwaysReturnStatus) {
  sweep_truncation(Range::kPeer);
}
TEST(CodecFuzz, TruncatedBodiesAlwaysReturnStatus) {
  sweep_truncation(Range::kBody);
}
TEST(WireFuzz, RandomByteFlipsNeverCrashTheDecoders) {
  sweep_bit_flips(Range::kWorker, 2026);
}
TEST(NetProtocolFuzz, RandomByteFlipsNeverCrashTheDecoders) {
  sweep_bit_flips(Range::kClient, 2027);
}
TEST(PeerProtocolFuzz, RandomByteFlipsNeverCrashTheDecoders) {
  sweep_bit_flips(Range::kPeer, 0xC1A05);
}
TEST(CodecFuzz, RandomByteFlipsInBodiesNeverCrash) {
  sweep_bit_flips(Range::kBody, 2028);
}

}  // namespace
}  // namespace pts
