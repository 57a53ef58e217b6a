#include "service/journal.hpp"

#include <map>

#include "obs/metrics.hpp"
#include "parallel/durable_file.hpp"
#include "parallel/runner.hpp"
#include "parallel/wire.hpp"
#include "util/crc32.hpp"
#include "util/timer.hpp"

namespace pts::service::journal {

namespace {

using parallel::codec::decode;
using parallel::codec::encode;
using parallel::codec::Reader;
using parallel::codec::Writer;
namespace durable = parallel::durable;

constexpr durable::Format kFormat{"journal", "job journal",
                                  {'P', 'T', 'S', 'J'}, kJournalMinVersion,
                                  kJournalVersion};

/// Frames one record (type | crc | len | body) into `w` — shared between the
/// append path and the compaction rewrite so both produce identical bytes.
void put_record(Writer& w, RecordType type,
                const std::vector<std::uint8_t>& body) {
  w.u8(static_cast<std::uint8_t>(type));
  w.u32(crc32(body));
  w.u32(static_cast<std::uint32_t>(body.size()));
  w.bytes(body);
}

// -- Record bodies. kSubmitted is the job id plus submission_fields(); the
//    other three are pairs of ids and sequences. --

struct Submitted {
  JobId id = 0;
  const mkp::Instance& instance;
  const JobOptions& options;
  const TenantId& tenant;
  WarmStartPolicy warm_start = WarmStartPolicy::kDisabled;
};
struct Resolved {
  JobId id = 0;
};
struct Dispatched {
  JobId id = 0;
  std::uint64_t start_sequence = 0;
};
struct Dedup {
  JobId follower = 0;
  JobId primary = 0;
};

template <class V, parallel::codec::Of<Submitted> M>
void fields(V& v, M& m) {
  v.u64(m.id);
  submission_fields(v, m.instance, m.options, m.tenant, m.warm_start);
}
template <class V, parallel::codec::Of<Resolved> M>
void fields(V& v, M& m) {
  v.u64(m.id);
}
template <class V, parallel::codec::Of<Dispatched> M>
void fields(V& v, M& m) {
  v.u64(m.id);
  v.u64(m.start_sequence);
}
template <class V, parallel::codec::Of<Dedup> M>
void fields(V& v, M& m) {
  v.u64(m.follower);
  v.u64(m.primary);
}

/// Decodes a recovered kSubmitted body written at journal `version`.
Expected<RecoveredJob> decode_submitted(std::span<const std::uint8_t> body,
                                        std::uint8_t version) {
  RecoveredJob job{0, parallel::codec::blank_instance(), {}};
  Reader r(body, nullptr, version);
  r.u64(job.id);
  submission_fields(r, job.instance, job.options, job.tenant, job.warm_start);
  if (auto status = r.finish("journal submitted record"); !status.ok()) {
    return status;
  }
  return job;
}

}  // namespace

void put_job_options(Writer& w, const JobOptions& options) {
  fields(w, options);
}

Expected<JobOptions> get_job_options(Reader& r, std::uint8_t version) {
  JobOptions options;
  r.set_version(version);
  fields(r, options);
  if (auto status = r.status("journal job options"); !status.ok()) return status;
  return options;
}

Expected<std::unique_ptr<JobJournal>> JobJournal::open_truncate(
    const std::string& path) {
  if (path.empty()) {
    return Status::invalid_argument("journal: empty journal path");
  }
  auto file = durable::create(kFormat, path);
  if (!file) return file.status();
  if (auto status = (*file)->append(durable::tag(kFormat)); !status.ok()) {
    return status;
  }
  return std::unique_ptr<JobJournal>(new JobJournal(std::move(*file), path));
}

Status JobJournal::append(RecordType type, const std::vector<std::uint8_t>& body) {
  Writer w;
  put_record(w, type, body);
  const auto frame = w.take();
  const Stopwatch watch;
  std::lock_guard lock(mutex_);
  // One write, then fsync: a crash can tear at most the tail record, which
  // the reader detects (CRC) and discards — the replay contract.
  if (auto status = file_->append(frame); !status.ok()) return status;
  ++records_appended_;
  obs::metrics().counter("journal_appends_total").add();
  obs::metrics().histogram("journal_append_seconds")
      .record(watch.elapsed_seconds());
  return Status{};
}

Status JobJournal::append_submitted(JobId id, const mkp::Instance& instance,
                                    const JobOptions& options,
                                    const TenantId& tenant,
                                    WarmStartPolicy warm_start) {
  return append(RecordType::kSubmitted,
                encode(Submitted{id, instance, options, tenant, warm_start}));
}

Status JobJournal::append_dedup(JobId follower, JobId primary) {
  return append(RecordType::kDedup, encode(Dedup{follower, primary}));
}

Status JobJournal::append_dispatched(JobId id, std::uint64_t start_sequence) {
  return append(RecordType::kDispatched,
                encode(Dispatched{id, start_sequence}));
}

Status JobJournal::append_resolved(JobId id) {
  return append(RecordType::kResolved, encode(Resolved{id}));
}

std::uint64_t JobJournal::records_appended() const {
  std::lock_guard lock(mutex_);
  return records_appended_;
}

Status JobJournal::compact(const std::vector<LiveJob>& live) {
  const Stopwatch watch;
  // Build the full compacted image first — header, then one kSubmitted per
  // open job (plus kDispatched for the already-started ones, preserving the
  // committed start order) — so the file write is a single pass.
  Writer w;
  w.bytes(durable::tag(kFormat));
  std::uint64_t records = 0;
  const TenantId default_tenant;
  for (const auto& job : live) {
    put_record(w, RecordType::kSubmitted,
               encode(Submitted{job.id, *job.instance, *job.options,
                                job.tenant != nullptr ? *job.tenant
                                                      : default_tenant,
                                job.warm_start}));
    ++records;
    if (job.dispatch_sequence != 0) {
      put_record(w, RecordType::kDispatched,
                 encode(Dispatched{job.id, job.dispatch_sequence}));
      ++records;
    }
    if (job.dedup_primary != 0) {
      put_record(w, RecordType::kDedup,
                 encode(Dedup{job.id, job.dedup_primary}));
      ++records;
    }
  }
  const auto image = w.take();

  std::lock_guard lock(mutex_);
  auto file = durable::replace(kFormat, path_, path_ + ".tmp", image);
  if (!file) return file.status();
  // Future appends go to the new file.
  file_ = std::move(*file);
  records_appended_ = records;
  obs::metrics().counter("service_journal_compactions_total").add();
  obs::metrics().histogram("journal_compact_seconds")
      .record(watch.elapsed_seconds());
  return Status{};
}

Expected<std::vector<RecoveredJob>> recover_jobs(const std::string& path) {
  // Read a record at a time: a journal compaction never shrank, or a huge
  // foreign file at this path, costs one record of memory, not its size.
  auto source = durable::open(kFormat, path);
  if (!source && source.status().code() != StatusCode::kUnavailable) {
    return source.status();
  }
  // No file, or an empty one: a fresh start.
  if (!source) return std::vector<RecoveredJob>{};
  const auto head = (*source)->next(kJournalHeaderBytes);
  if (!head) return head.status();
  if (head->empty()) return std::vector<RecoveredJob>{};
  const auto version = durable::check_tag(kFormat, *head);
  if (!version) return version.status();

  // Replay. Ordered map keyed by the old id keeps submission order; a
  // resolved record erases its submission. Any malformed record is treated
  // as the torn tail of a crashed append: stop there, trust what came before.
  std::map<JobId, RecoveredJob> open;
  while (true) {
    const auto header_bytes = (*source)->next(kRecordHeaderBytes);
    if (!header_bytes) return header_bytes.status();
    if (header_bytes->size() < kRecordHeaderBytes) break;  // torn tail
    Reader header(*header_bytes);
    const auto type = header.u8();
    const auto crc = header.u32();
    const auto body_len = header.u32();
    if (body_len > kMaxRecordBytes) break;  // torn tail
    const auto body_bytes = (*source)->next(body_len);
    if (!body_bytes) return body_bytes.status();
    const std::span<const std::uint8_t> body = *body_bytes;
    if (body.size() < body_len || crc32(body) != crc) break;  // torn tail

    if (type == static_cast<std::uint8_t>(RecordType::kResolved)) {
      const auto record = decode(body, Resolved{}, "resolved");
      if (!record) break;
      open.erase(record->id);
      // A dedup link into a resolved primary is inert provenance — the
      // follower recovers as a plain job rather than pointing at a solve
      // that no longer exists.
      for (auto& [other_id, other] : open) {
        if (other.dedup_primary == record->id) other.dedup_primary = 0;
      }
      continue;
    }
    if (type == static_cast<std::uint8_t>(RecordType::kDispatched)) {
      const auto record = decode(body, Dispatched{}, "dispatched");
      if (!record) break;
      // Attaches to the open submission; a dispatch record whose job was
      // since resolved (or whose submission the tail tore away) is inert.
      if (auto it = open.find(record->id); it != open.end()) {
        it->second.dispatch_sequence = record->start_sequence;
      }
      continue;
    }
    if (type == static_cast<std::uint8_t>(RecordType::kDedup)) {
      const auto record = decode(body, Dedup{}, "dedup");
      if (!record) break;
      // Provenance on the open follower; the link only stands while the
      // primary itself is still open (its solve never resolved anyone).
      if (auto it = open.find(record->follower);
          it != open.end() && open.count(record->primary) != 0) {
        it->second.dedup_primary = record->primary;
      }
      continue;
    }
    if (type != static_cast<std::uint8_t>(RecordType::kSubmitted)) {
      break;  // unknown record type: written by a future version, stop
    }
    auto job = decode_submitted(body, *version);
    if (!job) break;
    const JobId id = job->id;
    open.insert_or_assign(id, std::move(*job));
  }

  std::vector<RecoveredJob> out;
  out.reserve(open.size());
  for (auto& [id, job] : open) out.push_back(std::move(job));
  return out;
}

}  // namespace pts::service::journal
