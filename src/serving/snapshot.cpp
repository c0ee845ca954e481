#include "serving/snapshot.h"

#include <bit>

#include "common/check.h"
#include "common/crc32.h"
#include "kvcache/serialization.h"

namespace turbo::serving {

namespace {

// 'TSNP' + format version. Version 2 matches the stream-format-v2
// integrity contract: a trailing CRC-32 over the whole preceding stream,
// checked before any payload is adopted.
constexpr std::uint32_t kSnapshotMagic = 0x504e5354u;
constexpr std::uint32_t kSnapshotVersion = 2;

// Fewest bytes one entry takes: a request with no prompt ids is 18
// eight-byte fields and two u32 enums, and the entry adds five eight-byte
// fields. A count of more entries than the bytes left can hold is
// hostile, and is rejected before anything is allocated for it.
constexpr std::size_t kMinEntryBytes = 23 * 8 + 2 * 4;

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    // Little-endian byte extraction: the truncation is the point.
    out.push_back(
        static_cast<std::uint8_t>(v >> (8 * i)));  // turbo-lint: allow-narrowing
  }
}
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(
        static_cast<std::uint8_t>(v >> (8 * i)));  // turbo-lint: allow-narrowing
  }
}
void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}
void put_i64(std::vector<std::uint8_t>& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

struct Reader {
  std::span<const std::uint8_t> bytes;
  std::size_t pos = 0;

  std::uint32_t u32() {
    TURBO_CHECK_MSG(pos + 4 <= bytes.size(), "truncated snapshot stream");
    std::uint32_t v = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(bytes[pos + i]) << (8 * i);
    }
    pos += 4;
    return v;
  }
  std::uint64_t u64() {
    TURBO_CHECK_MSG(pos + 8 <= bytes.size(), "truncated snapshot stream");
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(bytes[pos + i]) << (8 * i);
    }
    pos += 8;
    return v;
  }
  double f64() { return std::bit_cast<double>(u64()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::size_t left() const { return bytes.size() - pos; }
};

void put_request(std::vector<std::uint8_t>& out, const Request& r) {
  put_u64(out, r.id);
  put_f64(out, r.arrival_s);
  put_u64(out, r.prompt_tokens);
  put_u64(out, r.max_new_tokens);
  put_u64(out, r.prompt_ids.size());
  for (const std::int32_t t : r.prompt_ids) {
    put_u32(out, static_cast<std::uint32_t>(t));
  }
  put_i64(out, r.priority);
  put_u32(out, static_cast<std::uint32_t>(r.service_class));
  put_f64(out, r.ttft_deadline_s);
  put_f64(out, r.e2e_deadline_s);
  put_f64(out, r.prefill_start_s);
  put_f64(out, r.first_token_s);
  put_f64(out, r.finish_s);
  put_u64(out, r.generated);
  put_u64(out, r.prefix_hit_tokens);
  put_u64(out, r.preemptions);
  put_u64(out, r.recomputed_tokens);
  put_u64(out, r.tier_failovers);
  put_u64(out, r.replica_failovers);
  put_u32(out, static_cast<std::uint32_t>(r.outcome));
  put_f64(out, r.kv_bits_used);
}

Request read_request(Reader& in) {
  Request r;
  r.id = in.u64();
  r.arrival_s = in.f64();
  r.prompt_tokens = in.u64();
  r.max_new_tokens = in.u64();
  const std::uint64_t n_ids = in.u64();
  TURBO_CHECK_MSG(n_ids <= in.left() / 4,
                  "snapshot prompt_ids length exceeds stream");
  r.prompt_ids.resize(n_ids);
  for (std::uint64_t i = 0; i < n_ids; ++i) {
    r.prompt_ids[i] = static_cast<std::int32_t>(in.u32());
  }
  r.priority = static_cast<int>(in.i64());
  const std::uint32_t service_class = in.u32();
  TURBO_CHECK_MSG(service_class < kServiceClassCount,
                  "snapshot service class out of range");
  r.service_class = static_cast<ServiceClass>(service_class);
  r.ttft_deadline_s = in.f64();
  r.e2e_deadline_s = in.f64();
  r.prefill_start_s = in.f64();
  r.first_token_s = in.f64();
  r.finish_s = in.f64();
  r.generated = in.u64();
  r.prefix_hit_tokens = in.u64();
  r.preemptions = in.u64();
  r.recomputed_tokens = in.u64();
  r.tier_failovers = in.u64();
  r.replica_failovers = in.u64();
  const std::uint32_t outcome = in.u32();
  TURBO_CHECK_MSG(outcome <= static_cast<std::uint32_t>(Outcome::kShed),
                  "snapshot outcome out of range");
  r.outcome = static_cast<Outcome>(outcome);
  r.kv_bits_used = in.f64();
  return r;
}

}  // namespace

std::vector<std::uint8_t> serialize_snapshot(const ReplicaSnapshot& snap) {
  std::vector<std::uint8_t> out;
  put_u32(out, kSnapshotMagic);
  put_u32(out, kSnapshotVersion);
  put_u64(out, snap.replica);
  put_f64(out, snap.taken_at_s);
  put_u64(out, snap.entries.size());
  for (const SnapshotEntry& e : snap.entries) {
    put_request(out, e.request);
    put_u64(out, e.context);
    put_u64(out, e.remaining);
    put_u64(out, e.prompt_left);
    put_f64(out, e.kv_bits);
    put_f64(out, e.bytes);
  }
  const std::uint32_t crc =
      crc32(std::span<const std::uint8_t>(out.data(), out.size()));
  put_u32(out, crc);
  return out;
}

ReplicaSnapshot deserialize_snapshot(std::span<const std::uint8_t> bytes) {
  TURBO_CHECK_MSG(bytes.size() >= 4, "truncated snapshot stream");
  const std::uint32_t stored_crc =
      static_cast<std::uint32_t>(bytes[bytes.size() - 4]) |
      static_cast<std::uint32_t>(bytes[bytes.size() - 3]) << 8 |
      static_cast<std::uint32_t>(bytes[bytes.size() - 2]) << 16 |
      static_cast<std::uint32_t>(bytes[bytes.size() - 1]) << 24;
  const std::uint32_t actual_crc =
      crc32(bytes.first(bytes.size() - 4));
  if (actual_crc != stored_crc) {
    throw IntegrityError("snapshot CRC-32 mismatch");
  }
  Reader in{bytes.first(bytes.size() - 4)};
  TURBO_CHECK_MSG(in.u32() == kSnapshotMagic, "bad snapshot magic");
  TURBO_CHECK_MSG(in.u32() == kSnapshotVersion,
                  "unsupported snapshot version");
  ReplicaSnapshot snap;
  snap.replica = in.u64();
  snap.taken_at_s = in.f64();
  const std::uint64_t n = in.u64();
  TURBO_CHECK_MSG(n <= in.left() / kMinEntryBytes,
                  "snapshot entry count exceeds stream");
  snap.entries.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    SnapshotEntry e;
    e.request = read_request(in);
    e.context = in.u64();
    e.remaining = in.u64();
    e.prompt_left = in.u64();
    e.kv_bits = in.f64();
    e.bytes = in.f64();
    snap.entries.push_back(std::move(e));
  }
  TURBO_CHECK_MSG(in.pos == in.bytes.size(),
                  "trailing bytes in snapshot stream");
  return snap;
}

SnapshotStore::SaveOutcome SnapshotStore::save(std::size_t replica,
                                               const ReplicaSnapshot& snap,
                                               FaultInjector* fault) {
  if (fault != nullptr && fault->snapshot_unavailable()) {
    return {};  // store unreachable; the previous blob stays valid
  }
  std::vector<std::uint8_t> blob = serialize_snapshot(snap);
  SaveOutcome out;
  out.stored = true;
  out.bytes = blob.size();
  blobs_[replica] = std::move(blob);
  return out;
}

SnapshotStore::RestoreOutcome SnapshotStore::restore(std::size_t replica,
                                                     FaultInjector* fault) {
  RestoreOutcome out;
  const auto it = blobs_.find(replica);
  if (it == blobs_.end()) return out;
  std::vector<std::uint8_t> blob = std::move(it->second);
  blobs_.erase(it);  // consumed: a restart never replays a stale snapshot
  if (fault != nullptr && fault->corrupt_snapshot() && !blob.empty()) {
    blob[fault->corruption_offset(blob.size())] ^= 0x01;
  }
  try {
    out.snapshot = deserialize_snapshot(
        std::span<const std::uint8_t>(blob.data(), blob.size()));
    out.status = RestoreStatus::kHit;
  } catch (const IntegrityError&) {
    out.status = RestoreStatus::kCorrupt;
  }
  return out;
}

}  // namespace turbo::serving
