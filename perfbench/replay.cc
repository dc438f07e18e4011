#include "replay.h"

#include <algorithm>
#include <vector>

#include "src/codec/chunk_codec.h"
#include "src/codec/frame.h"
#include "src/codec/lz.h"
#include "src/common/checksum.h"
#include "src/wal/binlog.h"

namespace perfbench {

namespace {

enum class Kind : uint8_t { kRead, kUpdate, kCommit };

struct ReplayOp {
  uint32_t tenant = 0;
  Kind kind = Kind::kRead;
  uint64_t key = 0;
};

/// Regenerates the transactions each tenant's generator produced during
/// the timed phase. ClientPool draws one inter-arrival at Start() and
/// then, per arrival, the transaction followed by the next inter-arrival
/// from the same generator, so an identically seeded YcsbWorkload
/// called in that order yields the identical stream. Tenants are
/// interleaved transaction by transaction, as their equal rates
/// interleave them in the run.
std::vector<ReplayOp> RecordedStream(const std::vector<TenantSlot>& tenants) {
  std::vector<std::vector<ReplayOp>> per_tenant(tenants.size());
  std::vector<std::vector<size_t>> txn_end(tenants.size());
  for (size_t i = 0; i < tenants.size(); ++i) {
    const TenantSlot& t = tenants[i];
    slacker::workload::YcsbWorkload gen(t.ycsb, t.id, t.seed);
    (void)gen.NextInterarrival();
    for (uint64_t n = 1; n <= t.txns_at_end; ++n) {
      const slacker::engine::TxnSpec spec = gen.NextTxn();
      (void)gen.NextInterarrival();
      if (n <= t.txns_at_start) continue;
      for (const slacker::engine::Operation& op : spec.ops) {
        if (op.type == slacker::engine::OpType::kRead) {
          per_tenant[i].push_back({static_cast<uint32_t>(i), Kind::kRead,
                                   op.key});
        } else if (op.type == slacker::engine::OpType::kUpdate) {
          per_tenant[i].push_back({static_cast<uint32_t>(i), Kind::kUpdate,
                                   op.key});
        }
      }
      per_tenant[i].push_back({static_cast<uint32_t>(i), Kind::kCommit, 0});
      txn_end[i].push_back(per_tenant[i].size());
    }
  }
  std::vector<ReplayOp> stream;
  size_t rounds = 0;
  for (const auto& ends : txn_end) rounds = std::max(rounds, ends.size());
  for (size_t r = 0; r < rounds; ++r) {
    for (size_t i = 0; i < tenants.size(); ++i) {
      if (r >= txn_end[i].size()) continue;
      const size_t begin = r == 0 ? 0 : txn_end[i][r - 1];
      stream.insert(stream.end(), per_tenant[i].begin() + begin,
                    per_tenant[i].begin() + txn_end[i][r]);
    }
  }
  return stream;
}

/// Fails the plausibility guard when `calls` took under 1 ns each.
void Guard(const char* what, uint64_t calls, int64_t ns,
           std::string* implausible) {
  if (calls > 0 && static_cast<double>(ns) < static_cast<double>(calls)) {
    *implausible += std::string(what) + " replay ran faster than 1 op/ns; ";
  }
}

double NsPer(int64_t ns, uint64_t n) {
  return n == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(n);
}

}  // namespace

LayerReplay ReplayLayers(WorkloadRun* run, SpanRecorder* spans) {
  ScopedSpan replay_span(spans, "replay");
  LayerReplay out;
  uint64_t sum = 0;
  slacker::Cluster* cluster = run->cluster();
  const std::vector<TenantSlot>& tenants = run->tenants();

  std::vector<slacker::engine::TenantDb*> dbs;
  for (const TenantSlot& t : tenants) dbs.push_back(cluster->Resolve(t.id));
  std::vector<ReplayOp> stream;
  {
    ScopedSpan span(spans, "replay.generate");
    stream = RecordedStream(tenants);
  }
  for (const ReplayOp& op : stream) {
    if (op.kind == Kind::kRead) ++out.reads;
    if (op.kind == Kind::kUpdate) ++out.updates;
  }
  const uint64_t key_ops = out.reads + out.updates;

  // storage: BTree::Get over every key of the stream.
  int64_t get_ns = 0;
  {
    ScopedSpan span(spans, "replay.storage.BTree::Get");
    const int64_t start = WallNs();
    for (const ReplayOp& op : stream) {
      if (op.kind == Kind::kCommit) continue;
      const slacker::storage::Record* r = dbs[op.tenant]->table().Get(op.key);
      sum += r != nullptr ? r->digest : op.key;
    }
    get_ns = WallNs() - start;
  }
  // storage: BufferPool::Touch on every key's page.
  int64_t touch_ns = 0;
  {
    ScopedSpan span(spans, "replay.storage.BufferPool::Touch");
    const int64_t start = WallNs();
    for (const ReplayOp& op : stream) {
      if (op.kind == Kind::kCommit) continue;
      slacker::engine::TenantDb* db = dbs[op.tenant];
      const slacker::storage::PageAccess a = db->buffer_pool()->Touch(
          db->config().layout.PageOf(op.key), op.kind == Kind::kUpdate);
      sum += (a.hit ? 1 : 0) + a.evicted_page;
    }
    touch_ns = WallNs() - start;
  }
  // storage: BTree::Put of every update (rewrites the run's own rows;
  // the run's digest was taken before).
  int64_t put_ns = 0;
  {
    ScopedSpan span(spans, "replay.storage.BTree::Put");
    slacker::storage::Lsn lsn = 1ULL << 40;
    const int64_t start = WallNs();
    for (const ReplayOp& op : stream) {
      if (op.kind != Kind::kUpdate) continue;
      ++lsn;
      sum += dbs[op.tenant]->mutable_table()->Put(
                 slacker::storage::Record{op.key, lsn, op.key ^ lsn})
                 ? 1
                 : 0;
    }
    put_ns = WallNs() - start;
  }
  Guard("BTree::Get", key_ops, get_ns, &out.implausible);
  Guard("BufferPool::Touch", key_ops, touch_ns, &out.implausible);
  Guard("BTree::Put", out.updates, put_ns, &out.implausible);
  out.btree_get_ns = NsPer(get_ns, key_ops);
  out.bp_touch_ns = NsPer(touch_ns, key_ops);
  out.btree_put_ns = NsPer(put_ns, out.updates);
  out.storage_s = (out.btree_get_ns * static_cast<double>(out.reads) +
                   out.bp_touch_ns * static_cast<double>(key_ops) +
                   out.btree_put_ns * static_cast<double>(out.updates)) *
                  1e-9;

  // wal: Binlog::Append of every update's row image and every commit.
  {
    ScopedSpan span(spans, "replay.wal.Binlog::Append");
    std::vector<slacker::wal::Binlog> logs(tenants.size());
    uint64_t appends = 0;
    const int64_t start = WallNs();
    for (const ReplayOp& op : stream) {
      slacker::wal::Binlog& log = logs[op.tenant];
      slacker::wal::LogRecord rec;
      rec.lsn = log.NextLsn();
      uint64_t image_bytes = 0;
      if (op.kind == Kind::kCommit) {
        rec.type = slacker::wal::LogType::kCommit;
        rec.txn_id = rec.lsn;
      } else if (op.kind == Kind::kUpdate) {
        rec.type = slacker::wal::LogType::kUpdate;
        rec.key = op.key;
        rec.digest = op.key * 0x9e3779b97f4a7c15ULL;
        image_bytes = dbs[op.tenant]->config().layout.record_bytes;
      } else {
        continue;
      }
      sum += log.Append(rec, image_bytes).ok() ? log.last_lsn() : 0;
      ++appends;
    }
    const int64_t ns = WallNs() - start;
    Guard("Binlog::Append", appends, ns, &out.implausible);
    out.wal_append_ns = NsPer(ns, appends);
    out.wal_s = static_cast<double>(ns) * 1e-9;
    for (const auto& log : logs) out.binlog_bytes += log.total_bytes();
  }

  // codec: the chunk encoder, LzCompress and Crc32c over chunks of the
  // run's chunk size, cut from the first moved tenant's table.
  {
    ScopedSpan span(spans, "replay.codec");
    const WorkloadParams& p = run->params();
    const uint64_t tenant_id = run->moves().empty()
                                   ? tenants.front().id
                                   : run->moves()[0]->plan.tenant;
    slacker::engine::TenantDb* db = cluster->Resolve(tenant_id);
    const uint64_t record_bytes = db->config().layout.record_bytes;
    const size_t rows_per_chunk = static_cast<size_t>(
        std::max<uint64_t>(1, p.migration.backup.chunk_bytes / record_bytes));
    constexpr int kSampleChunks = 64;
    std::vector<std::vector<slacker::storage::Record>> chunks(1);
    for (auto it = db->table().Begin(); it.Valid(); it.Next()) {
      if (chunks.back().size() == rows_per_chunk) {
        if (static_cast<int>(chunks.size()) == kSampleChunks) break;
        chunks.emplace_back();
      }
      chunks.back().push_back(it.record());
    }
    int64_t encode_ns = 0, verify_ns = 0, chunk_crc_ns = 0, lz_ns = 0,
            crc_ns = 0;
    uint64_t payload_bytes = 0;
    for (const auto& rows : chunks) {
      const uint64_t logical = rows.size() * record_bytes;
      int64_t t = WallNs();
      const slacker::codec::EncodedChunk enc =
          slacker::codec::EncodeSnapshotChunk(
              rows, logical, slacker::codec::Codec::kLz, p.migration.codec,
              record_bytes, nullptr);
      encode_ns += WallNs() - t;
      sum += enc.frame.encoded_bytes ^ enc.frame.payload_crc;
      t = WallNs();
      sum += slacker::codec::VerifyPayloadCrc(enc.frame, rows, record_bytes)
                 ? 1
                 : 0;
      verify_ns += WallNs() - t;
      t = WallNs();
      sum += slacker::codec::ChunkCrc(rows);
      chunk_crc_ns += WallNs() - t;

      const std::vector<uint8_t> payload =
          slacker::codec::MaterializeChunkPayload(
              rows, record_bytes, p.migration.codec.payload_redundancy);
      payload_bytes += payload.size();
      t = WallNs();
      sum += slacker::codec::LzCompress(payload).size();
      lz_ns += WallNs() - t;
      t = WallNs();
      sum += slacker::Crc32c(payload);
      crc_ns += WallNs() - t;
    }
    const uint64_t n = chunks.size();
    Guard("EncodeSnapshotChunk", n, encode_ns, &out.implausible);
    Guard("LzCompress", n, lz_ns, &out.implausible);
    Guard("Crc32c", n, crc_ns, &out.implausible);
    // More than 64 bytes per ns is beyond any memory system: the work
    // was skipped.
    constexpr double kMaxBytesPerNs = 64.0;
    const double bytes = static_cast<double>(payload_bytes);
    if (bytes > kMaxBytesPerNs * static_cast<double>(lz_ns) ||
        bytes > kMaxBytesPerNs * static_cast<double>(crc_ns)) {
      out.implausible += "codec replay exceeded 64 bytes/ns; ";
    }
    const double mib = bytes / static_cast<double>(slacker::kMiB);
    out.lz_mib_per_s =
        lz_ns > 0 ? mib / (static_cast<double>(lz_ns) * 1e-9) : 0.0;
    out.crc_mib_per_s =
        crc_ns > 0 ? mib / (static_cast<double>(crc_ns) * 1e-9) : 0.0;

    uint64_t chunks_lz = 0, chunks_all = 0;
    for (const auto& move : run->moves()) {
      for (const slacker::MigrationReport& r : move->handovers) {
        chunks_lz += r.chunks_lz;
        chunks_all += r.chunks_raw + r.chunks_lz + r.chunks_delta;
      }
    }
    // Source encodes and the target verifies every LZ chunk; both ends
    // CRC every chunk's rows.
    out.codec_s = (NsPer(encode_ns + verify_ns, n) *
                       static_cast<double>(chunks_lz) +
                   2.0 * NsPer(chunk_crc_ns, n) *
                       static_cast<double>(chunks_all)) *
                  1e-9;
  }
  out.checksum = sum;
  return out;
}

}  // namespace perfbench
