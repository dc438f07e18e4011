// Tests for the src/codec subsystem: the deterministic LZ block
// compressor, the checksummed frame header, the row-delta encoder, the
// adaptive selector, and the end-to-end delta-retransmission path
// (HotBackupStream::RewindTo reconciling against a mutated table, and a
// full migration with a forced NACK shipping delta frames), and a
// pinned digest of the source's wire sequence in raw, coded and
// downgraded migrations.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "src/backup/delta_shipper.h"
#include "src/backup/hot_backup.h"
#include "src/codec/chunk_codec.h"
#include "src/codec/delta.h"
#include "src/codec/frame.h"
#include "src/codec/lz.h"
#include "src/codec/payload.h"
#include "src/codec/selector.h"
#include "src/common/bytes.h"
#include "src/common/checksum.h"
#include "src/common/random.h"
#include "src/common/units.h"
#include "src/engine/tenant_db.h"
#include "src/net/channel.h"
#include "src/resource/cpu.h"
#include "src/resource/disk.h"
#include "src/sim/simulator.h"
#include "src/slacker/cluster.h"
#include "src/workload/client_pool.h"
#include "src/workload/ycsb.h"

namespace slacker::codec {
namespace {

// ---------------------------------------------------------------- LZ

std::vector<uint8_t> RandomBytes(Rng* rng, size_t n) {
  std::vector<uint8_t> out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng->Next());
  return out;
}

TEST(LzTest, RoundTripRandomSizes) {
  Rng rng(0x17a);
  for (int trial = 0; trial < 50; ++trial) {
    const auto input = RandomBytes(&rng, rng.NextBelow(5000));
    const auto compressed = LzCompress(input);
    std::vector<uint8_t> out;
    ASSERT_TRUE(LzDecompress(compressed, input.size(), &out).ok()) << trial;
    EXPECT_EQ(out, input) << trial;
  }
}

TEST(LzTest, CompressesRedundantInput) {
  std::vector<uint8_t> input(64 * 1024, 0x5a);
  const auto compressed = LzCompress(input);
  EXPECT_LT(compressed.size(), input.size() / 8);
  std::vector<uint8_t> out;
  ASSERT_TRUE(LzDecompress(compressed, input.size(), &out).ok());
  EXPECT_EQ(out, input);
}

TEST(LzTest, IncompressibleInputDoesNotExplode) {
  Rng rng(0x17b);
  const auto input = RandomBytes(&rng, 8192);
  const auto compressed = LzCompress(input);
  // Worst case is one op byte per 128 literals.
  EXPECT_LE(compressed.size(), input.size() + input.size() / 128 + 2);
}

TEST(LzTest, TruncationAndSizeMismatchRejected) {
  std::vector<uint8_t> input(4096, 0x33);
  for (size_t i = 0; i < input.size(); i += 7) {
    input[i] = static_cast<uint8_t>(i);
  }
  auto compressed = LzCompress(input);
  std::vector<uint8_t> out;
  // Wrong expected size: corruption.
  EXPECT_FALSE(LzDecompress(compressed, input.size() + 1, &out).ok());
  EXPECT_FALSE(LzDecompress(compressed, input.size() - 1, &out).ok());
  // Truncated token stream: corruption.
  compressed.pop_back();
  EXPECT_FALSE(LzDecompress(compressed, input.size(), &out).ok());
}

TEST(LzTest, DeterministicOutput) {
  Rng rng(0x17c);
  const auto input = RandomBytes(&rng, 4096);
  EXPECT_EQ(LzCompress(input), LzCompress(input));
}

// A fixed seeded corpus whose compressed bytes are pinned by digest, so
// any change to the match search that alters a single output byte (and
// with it every LZ frame size and CRC in the goldens) fails here first.
std::vector<std::vector<uint8_t>> LzGoldenCorpus() {
  std::vector<std::vector<uint8_t>> corpus;
  Rng rng(0x601d);
  for (size_t n = 0; n <= 9; ++n) {
    corpus.push_back(RandomBytes(&rng, n));
    corpus.push_back(std::vector<uint8_t>(n, 0x41));
  }
  for (const size_t n : {1000u, 4097u, 65536u}) {
    corpus.push_back(RandomBytes(&rng, n));
  }
  corpus.push_back(std::vector<uint8_t>(64 * 1024, 0x5a));
  corpus.push_back(std::vector<uint8_t>(1001, 0x00));
  // A four-letter alphabet: many matches of every length and alignment.
  std::vector<uint8_t> text(20000);
  for (auto& b : text) b = static_cast<uint8_t>('a' + rng.NextBelow(4));
  corpus.push_back(text);
  // 256 KiB migration chunks of 1 KiB rows at the three redundancies.
  std::vector<storage::Record> rows;
  for (uint64_t key = 0; key < 256; ++key) {
    rows.push_back(storage::Record{key * 3 + 1, rng.Next(), rng.Next()});
  }
  for (const double redundancy : {0.0, 0.5, 1.0}) {
    corpus.push_back(MaterializeChunkPayload(rows, kKiB, redundancy));
  }
  // A repeat longer than one match: the first match stops exactly at
  // the kMaxMatch cap (131 bytes) with the next byte still equal.
  const auto block = RandomBytes(&rng, 300);
  std::vector<uint8_t> capped = block;
  capped.insert(capped.end(), block.begin(), block.end());
  corpus.push_back(capped);
  // A match ended by a mismatch on its last byte before the cap, past
  // the last whole 8-byte word of the extension.
  std::vector<uint8_t> below_cap = block;
  below_cap.insert(below_cap.end(), block.begin(), block.begin() + 130);
  below_cap.push_back(static_cast<uint8_t>(block[130] ^ 0xff));
  below_cap.insert(below_cap.end(), block.begin() + 131, block.end());
  corpus.push_back(below_cap);
  // Matches that run into the last input byte, at every tail length
  // around the 8-byte word boundary.
  for (size_t tail = 4; tail <= 20; ++tail) {
    std::vector<uint8_t> to_end(block.begin(), block.begin() + 64);
    to_end.insert(to_end.end(), block.begin(), block.begin() + tail);
    corpus.push_back(to_end);
  }
  return corpus;
}

TEST(LzTest, OutputBytesArePinned) {
  uint64_t digest = 0;
  // One output buffer through the whole corpus: each call must clear
  // what the previous, possibly longer, output left in it.
  std::vector<uint8_t> reused;
  for (const auto& input : LzGoldenCorpus()) {
    const auto compressed = LzCompress(input);
    LzCompress(input, &reused);
    EXPECT_EQ(reused, compressed);
    digest = HashCombine(digest, compressed.size());
    digest = Fnv1a64(compressed.data(), compressed.size(), digest);
    std::vector<uint8_t> out;
    ASSERT_TRUE(LzDecompress(compressed, input.size(), &out).ok());
    EXPECT_EQ(out, input);
  }
  EXPECT_EQ(digest, 0x0298f52142766103ull);
}

TEST(LzTest, OverlongDistanceVarintRejected) {
  // One literal, then a match whose distance varint carries a 10th byte
  // above 0x01: the value's high bits do not fit in 64 bits, so the
  // stream is malformed even though the low bits decode to distance 1.
  std::vector<uint8_t> stream = {0x00, 'a', 0x80, 0x81};
  stream.insert(stream.end(), 8, 0x80);
  stream.push_back(0x02);
  std::vector<uint8_t> out;
  EXPECT_EQ(LzDecompress(stream, 5, &out).code(), StatusCode::kCorruption);
  // The same stream with a well-formed distance decodes.
  const std::vector<uint8_t> ok = {0x00, 'a', 0x80, 0x01};
  ASSERT_TRUE(LzDecompress(ok, 5, &out).ok());
  EXPECT_EQ(out, std::vector<uint8_t>(5, 'a'));
}

// ------------------------------------------------------------- Payload

TEST(PayloadTest, DeterministicAndRedundancyControlsRatio) {
  const storage::Record rec{42, 7, 0xabc};
  const auto a = MaterializeCompressiblePayload(rec, 1024, 0.75);
  const auto b = MaterializeCompressiblePayload(rec, 1024, 0.75);
  EXPECT_EQ(a, b);

  const auto noise = MaterializeCompressiblePayload(rec, 16 * 1024, 0.0);
  const auto redundant = MaterializeCompressiblePayload(rec, 16 * 1024, 0.75);
  EXPECT_GT(LzCompress(noise).size(), LzCompress(redundant).size());
  // ~1/(1 - r) ratio on the redundant payload.
  EXPECT_LT(LzCompress(redundant).size(), redundant.size() / 2);
}

// --------------------------------------------------------------- Frame

FrameHeader SampleFrame() {
  FrameHeader frame;
  frame.codec = Codec::kDelta;
  frame.logical_bytes = 1 << 20;
  frame.encoded_bytes = 123456;
  frame.payload_crc = 0xdeadbeef;
  frame.base_crc = 0x12345678;
  frame.payload_redundancy = 0.5;
  return frame;
}

TEST(FrameTest, HeaderRoundTrip) {
  const FrameHeader frame = SampleFrame();
  ByteWriter writer;
  frame.EncodeTo(&writer);
  ByteReader reader(writer.data());
  FrameHeader out;
  ASSERT_TRUE(out.DecodeFrom(&reader).ok());
  EXPECT_EQ(out, frame);
  EXPECT_TRUE(reader.exhausted());
}

TEST(FrameTest, EveryHeaderByteIsCrcProtected) {
  const FrameHeader frame = SampleFrame();
  ByteWriter writer;
  frame.EncodeTo(&writer);
  const std::vector<uint8_t> bytes = writer.data();
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::vector<uint8_t> corrupt = bytes;
    corrupt[i] ^= 0x20;
    ByteReader reader(corrupt);
    FrameHeader out;
    // Either the header CRC (or magic/version check) rejects it, or the
    // flip hit a varint continuation and truncation is detected —
    // never a silently-wrong decode.
    EXPECT_FALSE(out.DecodeFrom(&reader).ok() && out == frame) << i;
  }
}

TEST(FrameTest, ChunkCrcIsOrderAndContentSensitive) {
  std::vector<storage::Record> rows = {{1, 2, 3}, {4, 5, 6}};
  const uint32_t crc = ChunkCrc(rows);
  EXPECT_EQ(crc, ChunkCrc(rows));
  std::vector<storage::Record> swapped = {{4, 5, 6}, {1, 2, 3}};
  EXPECT_NE(crc, ChunkCrc(swapped));
  rows[1].digest ^= 1;
  EXPECT_NE(crc, ChunkCrc(rows));
}

// --------------------------------------------------------------- Delta

std::vector<storage::Record> RandomSortedRows(Rng* rng, uint64_t max_rows) {
  std::set<uint64_t> keys;
  const uint64_t n = rng->NextBelow(max_rows);
  while (keys.size() < n) keys.insert(rng->NextBelow(10 * max_rows));
  std::vector<storage::Record> rows;
  for (const uint64_t key : keys) {
    rows.push_back(storage::Record{key, rng->Next(), rng->Next()});
  }
  return rows;
}

TEST(DeltaTest, ComputeApplyInvariant) {
  Rng rng(0xde17a);
  for (int trial = 0; trial < 100; ++trial) {
    const auto base = RandomSortedRows(&rng, 64);
    // `current` = base with random mutations, insertions, deletions.
    std::vector<storage::Record> current;
    for (const auto& row : base) {
      const uint64_t action = rng.NextBelow(4);
      if (action == 0) continue;  // Deleted.
      storage::Record copy = row;
      if (action == 1) {          // Mutated.
        copy.lsn += 1;
        copy.digest = rng.Next();
      }
      current.push_back(copy);
    }
    for (const auto& extra : RandomSortedRows(&rng, 8)) {
      storage::Record shifted = extra;
      shifted.key += 10 * 64;  // Keys beyond the base range: inserts.
      current.push_back(shifted);
    }
    std::sort(current.begin(), current.end(),
              [](const storage::Record& a, const storage::Record& b) {
                return a.key < b.key;
              });

    const RowDelta delta = ComputeRowDelta(base, current);
    EXPECT_EQ(ApplyRowDelta(base, delta.changed, delta.removed_keys), current)
        << trial;
  }
}

TEST(DeltaTest, IdenticalInputsYieldEmptyDelta) {
  Rng rng(0xde17b);
  const auto rows = RandomSortedRows(&rng, 32);
  EXPECT_TRUE(ComputeRowDelta(rows, rows).empty());
  EXPECT_EQ(ApplyRowDelta(rows, {}, {}), rows);
}

// ------------------------------------------------------------ Selector

TEST(SelectorTest, EngagesLzOnlyWhenNetworkBound) {
  CodecConfig config;
  config.mode = CodecMode::kAdaptive;
  CodecSelector selector(config);

  SelectorInputs inputs;
  inputs.throttle_bytes_per_sec = 10.0 * kMiB;  // Slow wire.
  inputs.total_cores = 8;
  inputs.busy_cores = 1.0;
  EXPECT_EQ(selector.Choose(inputs), Codec::kLz);

  // Saturated CPU: compression would become the bottleneck.
  inputs.busy_cores = 8.0;
  EXPECT_EQ(selector.Choose(inputs), Codec::kRaw);

  // Fast wire, one free core: the throttle drains faster than one core
  // can compress — stay raw.
  inputs.busy_cores = 7.0;
  inputs.throttle_bytes_per_sec = 200.0 * kMiB;
  EXPECT_EQ(selector.Choose(inputs), Codec::kRaw);
}

TEST(SelectorTest, DeltaBaseWinsInAdaptiveAndDeltaModes) {
  SelectorInputs inputs;
  inputs.throttle_bytes_per_sec = 10.0 * kMiB;
  inputs.total_cores = 8;
  inputs.has_delta_base = true;
  for (const CodecMode mode : {CodecMode::kDelta, CodecMode::kAdaptive}) {
    CodecConfig config;
    config.mode = mode;
    EXPECT_EQ(CodecSelector(config).Choose(inputs), Codec::kDelta);
  }
  // Forced-LZ mode never delta-encodes.
  CodecConfig lz;
  lz.mode = CodecMode::kLz;
  EXPECT_EQ(CodecSelector(lz).Choose(inputs), Codec::kLz);
}

TEST(SelectorTest, DeltaModeWithoutBaseShipsRaw) {
  CodecConfig config;
  config.mode = CodecMode::kDelta;
  SelectorInputs inputs;
  inputs.throttle_bytes_per_sec = 1.0 * kMiB;
  inputs.total_cores = 8;
  EXPECT_EQ(CodecSelector(config).Choose(inputs), Codec::kRaw);
}

TEST(SelectorTest, ObservedRatioFeedsBackIntoEngageDecision) {
  CodecConfig config;
  config.mode = CodecMode::kAdaptive;
  CodecSelector selector(config);
  const double prior = selector.expected_ratio();
  EXPECT_NEAR(prior, 2.0, 1e-9);  // redundancy 0.5 → ~2x.
  for (int i = 0; i < 50; ++i) selector.ObserveRatio(4.0);
  EXPECT_GT(selector.expected_ratio(), 3.5);

  // A higher expected ratio raises the logical drain rate, so a
  // borderline CPU budget that engaged at 2x no longer engages at ~4x.
  SelectorInputs inputs;
  inputs.total_cores = 1;
  inputs.busy_cores = 0.0;
  // One core compresses 150 MiB/s; engage needs rate*ratio*1.25 below.
  inputs.throttle_bytes_per_sec = 40.0 * kMiB;
  CodecSelector fresh(config);
  EXPECT_EQ(fresh.Choose(inputs), Codec::kLz);       // 40*2*1.25 = 100.
  EXPECT_EQ(selector.Choose(inputs), Codec::kRaw);   // 40*~4*1.25 > 150.
}

// ----------------------------------------------------------- ChunkCodec

TEST(ChunkCodecTest, DeltaWithoutBaseFallsBackToRaw) {
  Rng rng(0xcc01);
  const auto rows = RandomSortedRows(&rng, 32);
  CodecConfig config;
  config.mode = CodecMode::kDelta;
  const EncodedChunk enc =
      EncodeSnapshotChunk(rows, rows.size() * kKiB, Codec::kDelta, config,
                          kKiB, nullptr);
  EXPECT_EQ(enc.frame.codec, Codec::kRaw);
  EXPECT_EQ(enc.frame.encoded_bytes, rows.size() * kKiB);
}

TEST(ChunkCodecTest, LzFrameVerifiesPayloadCrcEndToEnd) {
  Rng rng(0xcc02);
  const auto rows = RandomSortedRows(&rng, 48);
  CodecConfig config;
  config.mode = CodecMode::kLz;
  config.payload_redundancy = 0.75;
  // A larger chunk first: the encoder reuses its buffers from chunk to
  // chunk, and nothing of this one may show in the next frame.
  std::vector<storage::Record> larger;
  for (uint64_t key = 0; key < 64; ++key) {
    larger.push_back(storage::Record{key, rng.Next(), rng.Next()});
  }
  EncodeSnapshotChunk(larger, larger.size() * kKiB, Codec::kLz, config, kKiB,
                      nullptr);
  const EncodedChunk enc = EncodeSnapshotChunk(
      rows, rows.size() * kKiB, Codec::kLz, config, kKiB, nullptr);
  ASSERT_EQ(enc.frame.codec, Codec::kLz);
  EXPECT_LT(enc.frame.encoded_bytes, enc.frame.logical_bytes);
  const auto payload = MaterializeChunkPayload(rows, kKiB, 0.75);
  EXPECT_EQ(enc.frame.encoded_bytes, LzCompress(payload).size());
  EXPECT_EQ(enc.frame.payload_crc, Crc32c(payload));
  EXPECT_GT(enc.cpu_seconds, 0.0);
  EXPECT_GT(DecodeCpuSeconds(enc.frame, config), 0.0);

  // The target re-materializes the payload from the received rows.
  EXPECT_TRUE(VerifyPayloadCrc(enc.frame, rows, kKiB));
  std::vector<storage::Record> tampered = rows;
  tampered.front().digest ^= 1;
  EXPECT_FALSE(VerifyPayloadCrc(enc.frame, tampered, kKiB));
}

// ---------------------------------------- RewindTo × delta retransmission

engine::TenantConfig SmallConfig(uint64_t id = 1) {
  engine::TenantConfig config;
  config.tenant_id = id;
  config.layout.record_count = 1024;  // 1 MiB of 1 KiB rows.
  config.buffer_pool_bytes = 16 * 16 * kKiB;
  return config;
}

TEST(DeltaRetransmissionTest, RewindedChunkReconcilesAsDeltaOrRaw) {
  // The go-back-N story end to end at the stream level: transmit a
  // chunk, mutate rows inside it, rewind, re-read, and ship the re-read
  // as a delta against the first transmission. The reconstruction on
  // the "target" must equal a raw resend of the re-read chunk.
  sim::Simulator sim;
  resource::DiskModel disk(&sim, resource::DiskOptions{});
  resource::CpuModel cpu(&sim, resource::CpuOptions{});
  engine::TenantDb db(&sim, &disk, &cpu, SmallConfig());
  db.Load();

  backup::HotBackupOptions options;
  options.chunk_bytes = 64 * kKiB;  // 64 rows per chunk.
  backup::HotBackupStream stream(&db, options);

  // First transmission of chunk 0 — the source caches these rows as a
  // future delta base; the target stages them durably.
  const auto first = stream.NextChunk();
  ASSERT_EQ(first.seq, 0u);
  const std::vector<storage::Record> base_rows = first.rows;

  // Writes land inside chunk 0's key range between the transmissions.
  for (uint64_t key = 0; key < 64; key += 5) {
    db.ExecuteOp(engine::Operation{engine::OpType::kUpdate, key}, nullptr);
  }
  sim.RunUntil(1.0);

  // NACK: rewind and re-read.
  stream.RewindTo(0);
  const auto second = stream.NextChunk();
  ASSERT_EQ(second.seq, 0u);
  EXPECT_NE(backup::ChunkCrc(second.rows), backup::ChunkCrc(base_rows));

  CodecConfig config;
  config.mode = CodecMode::kAdaptive;
  const EncodedChunk enc = backup::EncodeChunk(
      second, Codec::kDelta, config,
      db.config().layout.record_bytes, &base_rows);
  ASSERT_EQ(enc.frame.codec, Codec::kDelta);
  EXPECT_EQ(enc.frame.base_crc, ChunkCrc(base_rows));
  // Only the mutated rows ride the wire.
  EXPECT_LT(enc.rows.size(), second.rows.size());
  EXPECT_LT(enc.frame.encoded_bytes, enc.frame.logical_bytes);

  // Target side: apply the delta to the staged base. The result must be
  // exactly what a raw resend would have delivered.
  const std::vector<storage::Record> reconstructed =
      ApplyRowDelta(base_rows, enc.rows, enc.removed_keys);
  EXPECT_EQ(reconstructed, second.rows);
  EXPECT_EQ(ChunkCrc(reconstructed), ChunkCrc(second.rows));
}

// -------------------------------------------- End-to-end forced-NACK

TEST(CodecMigrationTest, ForcedNackShipsDeltaFramesAndConverges) {
  // Drop exactly one snapshot chunk mid-stream. The gap NACKs, the
  // source rewinds, and — in adaptive mode — every re-sent chunk the
  // target already staged ships as a delta frame. The migration must
  // still converge with matching digests.
  sim::Simulator sim;
  ClusterOptions cluster_options;
  cluster_options.num_servers = 2;
  Cluster cluster(&sim, cluster_options);

  engine::TenantConfig tenant;
  tenant.tenant_id = 1;
  tenant.layout.record_count = 16 * 1024;
  tenant.buffer_pool_bytes = 2 * kMiB;
  ASSERT_TRUE(cluster.AddTenant(0, tenant).ok());

  auto dropped = std::make_shared<bool>(false);
  cluster.ChannelBetween(0, 1)->SetDeliveryFilter(
      [dropped](net::Message* m) {
        if (!*dropped && m->type == net::MessageType::kSnapshotChunk &&
            m->chunk_seq == 2) {
          *dropped = true;
          return false;
        }
        return true;
      });

  workload::YcsbConfig ycsb;
  ycsb.record_count = tenant.layout.record_count;
  ycsb.mean_interarrival = 0.2;
  workload::YcsbWorkload workload(ycsb, 1, 0xc0de);
  workload::ClientPool pool(&sim, &workload, &cluster,
                            cluster.MakeLatencyObserver());
  cluster.AttachClientPool(1, &pool);
  pool.Start();
  sim.RunUntil(2.0);

  MigrationOptions options;
  options.throttle = ThrottleKind::kFixed;
  options.fixed_rate_mbps = 16.0;
  options.prepare.base_seconds = 0.5;
  options.codec.mode = CodecMode::kAdaptive;
  MigrationReport report;
  bool done = false;
  ASSERT_TRUE(cluster
                  .StartMigration(1, 1, options,
                                  [&](const MigrationReport& r) {
                                    report = r;
                                    done = true;
                                  })
                  .ok());
  sim.RunUntil(120.0);
  pool.Stop();
  sim.RunUntil(140.0);

  ASSERT_TRUE(done);
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_TRUE(report.digest_match);
  EXPECT_TRUE(*dropped);

  // The retransmitted tail shipped as deltas against staged bases.
  EXPECT_GE(report.chunks_delta, 1u);
  // The compressible workload plus the retransmission deltas must beat
  // raw on the wire.
  EXPECT_LT(report.snapshot_wire_bytes, report.snapshot_bytes);
  EXPECT_GT(report.CompressionRatio(), 1.0);
  EXPECT_GT(report.codec_cpu_seconds, 0.0);
}

TEST(CodecMigrationTest, RawAndAdaptiveConvergeToSameAuthority) {
  // Same cluster, workload, and seed under --codec=raw and
  // --codec=adaptive: both must hand over with matching digests —
  // compression is transparent to correctness.
  for (const CodecMode mode : {CodecMode::kRaw, CodecMode::kAdaptive}) {
    sim::Simulator sim;
    ClusterOptions cluster_options;
    cluster_options.num_servers = 2;
    Cluster cluster(&sim, cluster_options);

    engine::TenantConfig tenant;
    tenant.tenant_id = 1;
    tenant.layout.record_count = 8 * 1024;
    tenant.buffer_pool_bytes = 2 * kMiB;
    ASSERT_TRUE(cluster.AddTenant(0, tenant).ok());

    workload::YcsbConfig ycsb;
    ycsb.record_count = tenant.layout.record_count;
    ycsb.mean_interarrival = 0.3;
    workload::YcsbWorkload workload(ycsb, 1, 7);
    workload::ClientPool pool(&sim, &workload, &cluster,
                              cluster.MakeLatencyObserver());
    cluster.AttachClientPool(1, &pool);
    pool.Start();
    sim.RunUntil(2.0);

    MigrationOptions options;
    options.throttle = ThrottleKind::kFixed;
    options.fixed_rate_mbps = 16.0;
    options.prepare.base_seconds = 0.5;
    options.codec.mode = mode;
    MigrationReport report;
    bool done = false;
    ASSERT_TRUE(cluster
                    .StartMigration(1, 1, options,
                                    [&](const MigrationReport& r) {
                                      report = r;
                                      done = true;
                                    })
                    .ok());
    sim.RunUntil(120.0);
    pool.Stop();
    sim.RunUntil(140.0);

    ASSERT_TRUE(done) << CodecModeName(mode);
    ASSERT_TRUE(report.status.ok()) << report.status.ToString();
    EXPECT_TRUE(report.digest_match) << CodecModeName(mode);
    EXPECT_EQ(*cluster.range_directory()->HomeOf(1), 1u);
    if (mode == CodecMode::kRaw) {
      // Raw accounting: wire bytes equal logical bytes exactly.
      EXPECT_EQ(report.snapshot_wire_bytes, report.snapshot_bytes);
      EXPECT_EQ(report.delta_wire_bytes, report.delta_bytes);
      EXPECT_EQ(report.chunks_lz, 0u);
      EXPECT_EQ(report.chunks_delta, 0u);
      EXPECT_DOUBLE_EQ(report.CompressionRatio(), 1.0);
    } else {
      EXPECT_GT(report.chunks_lz, 0u);
      EXPECT_LT(report.snapshot_wire_bytes, report.snapshot_bytes);
    }
  }
}

TEST(CodecMigrationTest, MixedVersionPairDowngradesToCommonCodec) {
  // An adaptive-mode migration between a v3 source (LZ + delta) and a
  // v1 target (raw only) must negotiate down to raw on the wire and
  // still converge; the same pair at v3/v3 keeps the compressor. The
  // downgrade never fails the migration (DESIGN.md §12).
  struct Case {
    uint32_t source_version;
    uint32_t target_version;
    bool expect_compressed;
  } kCases[] = {{3, 1, false}, {1, 3, false}, {3, 3, true}};
  for (const Case& c : kCases) {
    sim::Simulator sim;
    ClusterOptions cluster_options;
    cluster_options.num_servers = 2;
    cluster_options.software_version = 1;
    Cluster cluster(&sim, cluster_options);
    ASSERT_TRUE(cluster.SetServerVersion(0, c.source_version).ok());
    ASSERT_TRUE(cluster.SetServerVersion(1, c.target_version).ok());

    engine::TenantConfig tenant;
    tenant.tenant_id = 1;
    tenant.layout.record_count = 8 * 1024;
    tenant.buffer_pool_bytes = 2 * kMiB;
    ASSERT_TRUE(cluster.AddTenant(0, tenant).ok());

    workload::YcsbConfig ycsb;
    ycsb.record_count = tenant.layout.record_count;
    ycsb.mean_interarrival = 0.3;
    workload::YcsbWorkload workload(ycsb, 1, 7);
    workload::ClientPool pool(&sim, &workload, &cluster,
                              cluster.MakeLatencyObserver());
    cluster.AttachClientPool(1, &pool);
    pool.Start();
    sim.RunUntil(2.0);

    MigrationOptions options;
    options.throttle = ThrottleKind::kFixed;
    options.fixed_rate_mbps = 16.0;
    options.prepare.base_seconds = 0.5;
    options.codec.mode = CodecMode::kAdaptive;
    MigrationReport report;
    bool done = false;
    ASSERT_TRUE(cluster
                    .StartMigration(1, 1, options,
                                    [&](const MigrationReport& r) {
                                      report = r;
                                      done = true;
                                    })
                    .ok());
    sim.RunUntil(120.0);
    pool.Stop();
    sim.RunUntil(140.0);

    SCOPED_TRACE("v" + std::to_string(c.source_version) + " -> v" +
                 std::to_string(c.target_version));
    ASSERT_TRUE(done);
    ASSERT_TRUE(report.status.ok()) << report.status.ToString();
    EXPECT_TRUE(report.digest_match);
    EXPECT_EQ(*cluster.range_directory()->HomeOf(1), 1u);
    if (c.expect_compressed) {
      EXPECT_GT(report.chunks_lz, 0u);
      EXPECT_LT(report.snapshot_wire_bytes, report.snapshot_bytes);
    } else {
      // Downgraded to raw: byte-for-byte accounting, no encoded chunks.
      EXPECT_EQ(report.chunks_lz, 0u);
      EXPECT_EQ(report.chunks_delta, 0u);
      EXPECT_EQ(report.snapshot_wire_bytes, report.snapshot_bytes);
      EXPECT_EQ(report.delta_wire_bytes, report.delta_bytes);
    }
  }
}

// ------------------------------------------------ Pinned wire sequence

uint64_t HashDouble(uint64_t digest, double value) {
  return HashCombine(digest, std::bit_cast<uint64_t>(value));
}

struct WireCase {
  const char* name;
  CodecMode mode;
  bool drop_chunk_2;
  uint32_t source_version;
  uint32_t target_version;
  /// A 2 MB/s pipe with 64 KiB chunks (so a 64 KiB burst) under 50
  /// txn/s: delta rounds outgrow the burst and wait for tokens, which
  /// is where reading before or after the grant differs.
  bool slow_pipe;
  uint64_t expected_digest;
};

/// Runs one migration and digests every source->target message as the
/// target receives it (delivery time, type, seq, logical and wire
/// payload sizes, frame codec, chunk CRC, LSN, row/record counts), then
/// folds in the final report's counters and phase times. With `nacks`,
/// also counts the snapshot NACKs the target sends back.
uint64_t MigrationWireDigest(const WireCase& c, MigrationReport* report,
                             int* nacks = nullptr) {
  sim::Simulator sim;
  ClusterOptions cluster_options;
  cluster_options.num_servers = 2;
  Cluster cluster(&sim, cluster_options);
  if (c.source_version != 0) {
    EXPECT_TRUE(cluster.SetServerVersion(0, c.source_version).ok());
    EXPECT_TRUE(cluster.SetServerVersion(1, c.target_version).ok());
  }

  engine::TenantConfig tenant;
  tenant.tenant_id = 1;
  tenant.layout.record_count = 16 * 1024;
  tenant.buffer_pool_bytes = 2 * kMiB;
  EXPECT_TRUE(cluster.AddTenant(0, tenant).ok());

  auto digest = std::make_shared<uint64_t>(0);
  auto dropped = std::make_shared<bool>(false);
  const bool drop = c.drop_chunk_2;
  cluster.ChannelBetween(0, 1)->SetDeliveryFilter(
      [&sim, digest, dropped, drop](net::Message* m) {
        uint64_t d = HashDouble(*digest, sim.Now());
        d = HashCombine(d, static_cast<uint64_t>(m->type));
        d = HashCombine(d, m->chunk_seq);
        d = HashCombine(d, m->payload_bytes);
        d = HashCombine(d, m->wire_payload_bytes());
        d = HashCombine(d, static_cast<uint64_t>(m->frame.codec));
        d = HashCombine(d, m->chunk_crc);
        d = HashCombine(d, m->lsn);
        d = HashCombine(d, m->rows.size());
        d = HashCombine(d, m->log_records.size());
        *digest = d;
        if (drop && !*dropped && m->type == net::MessageType::kSnapshotChunk &&
            m->chunk_seq == 2) {
          *dropped = true;
          return false;
        }
        return true;
      });
  if (nacks != nullptr) {
    cluster.ChannelBetween(1, 0)->SetDeliveryFilter([nacks](net::Message* m) {
      if (m->type == net::MessageType::kSnapshotNack) ++*nacks;
      return true;
    });
  }

  workload::YcsbConfig ycsb;
  ycsb.record_count = tenant.layout.record_count;
  ycsb.mean_interarrival = c.slow_pipe ? 0.02 : 0.05;
  workload::YcsbWorkload workload(ycsb, 1, 0xc0de);
  workload::ClientPool pool(&sim, &workload, &cluster,
                            cluster.MakeLatencyObserver());
  cluster.AttachClientPool(1, &pool);
  pool.Start();
  sim.RunUntil(2.0);

  MigrationOptions options;
  options.throttle = ThrottleKind::kFixed;
  options.fixed_rate_mbps = c.slow_pipe ? 2.0 : 16.0;
  if (c.slow_pipe) options.backup.chunk_bytes = 64 * kKiB;
  options.prepare.base_seconds = 0.5;
  // A small handover budget keeps the job in delta rounds for a while,
  // so kDeltaBatch frames are on the wire too.
  options.delta_handover_bytes = 2 * kKiB;
  options.codec.mode = c.mode;
  bool done = false;
  EXPECT_TRUE(cluster
                  .StartMigration(1, 1, options,
                                  [&](const MigrationReport& r) {
                                    *report = r;
                                    done = true;
                                  })
                  .ok());
  sim.RunUntil(120.0);
  pool.Stop();
  sim.RunUntil(140.0);
  EXPECT_TRUE(done);
  EXPECT_EQ(*dropped, c.drop_chunk_2);

  uint64_t d = *digest;
  for (const uint64_t v :
       {report->snapshot_bytes, report->delta_bytes,
        report->snapshot_wire_bytes, report->delta_wire_bytes,
        report->chunks_raw, report->chunks_lz, report->chunks_delta,
        static_cast<uint64_t>(report->delta_rounds),
        report->chunks_retransmitted, report->resumed_bytes,
        static_cast<uint64_t>(report->digest_match)}) {
    d = HashCombine(d, v);
  }
  for (const double v :
       {report->codec_cpu_seconds, report->start_time, report->end_time,
        report->negotiate_seconds, report->snapshot_seconds,
        report->prepare_seconds, report->delta_seconds,
        report->handover_seconds, report->downtime_ms}) {
    d = HashDouble(d, v);
  }
  return d;
}

TEST(CodecMigrationTest, WireSequenceIsPinned) {
  // Every message the source puts on the wire, in order and in time,
  // plus the report: the raw pump (tokens before the read), the coded
  // pump (encode, then tokens for the wire size), a go-back-N NACK in
  // both modes (the adaptive resend ships kDelta frames), and a
  // negotiated v3 -> v1 downgrade to raw. Delta mode sends coded frames
  // that fall back to kRaw (snapshot chunks and delta rounds alike)
  // beside its kDelta resends. The slow-pipe raw cases make delta
  // rounds wait for tokens: reading a raw round before its grant instead
  // of inside it moves their digests. Any change to when the throttle
  // is paid or what a frame carries moves these digests.
  const WireCase kCases[] = {
      {"raw", CodecMode::kRaw, false, 0, 0, false, 0xca63a1743f5e689eull},
      {"raw+drop", CodecMode::kRaw, true, 0, 0, false, 0x915ac0242ac6f77full},
      {"raw slow", CodecMode::kRaw, false, 0, 0, true, 0x0ff669f6b75e942bull},
      {"raw slow+drop", CodecMode::kRaw, true, 0, 0, true,
       0x7718014b240ff57dull},
      {"adaptive", CodecMode::kAdaptive, false, 0, 0, false,
       0x1c4ff5c17d5ed3e3ull},
      {"adaptive+drop", CodecMode::kAdaptive, true, 0, 0, false,
       0x6638805543d42b81ull},
      {"delta+drop", CodecMode::kDelta, true, 0, 0, false,
       0x1b138e56076ee8a7ull},
      {"adaptive v3->v1", CodecMode::kAdaptive, false, 3, 1, false,
       0xfbad8a15b0875604ull},
      {"adaptive v3->v1+drop", CodecMode::kAdaptive, true, 3, 1, false,
       0xcb46f962c48eb2eaull},
  };
  for (const WireCase& c : kCases) {
    SCOPED_TRACE(c.name);
    MigrationReport report;
    const uint64_t digest = MigrationWireDigest(c, &report);
    ASSERT_TRUE(report.status.ok()) << report.status.ToString();
    EXPECT_TRUE(report.digest_match);
    EXPECT_EQ(report.chunks_retransmitted > 0, c.drop_chunk_2);
    EXPECT_EQ(digest, c.expected_digest)
        << std::hex << "0x" << digest << " chunks raw/lz/delta "
        << std::dec << report.chunks_raw << "/" << report.chunks_lz << "/"
        << report.chunks_delta << " rounds " << report.delta_rounds;
  }
}

TEST(CodecMigrationTest, GoBackNResendsDeltaOnlyAgainstSentBases) {
  // On the slow pipe a coded chunk waits for tokens after it is read, so
  // the NACK for the dropped chunk 2 arrives while one is pending and
  // throws it away unsent. Had the read already cached it as a delta
  // base, the rewound stream would resend that seq as kDelta against
  // rows the target never got: the target NACKs it, and every rewind
  // repeats the mistake until the retransmit budget runs out. One NACK
  // must repair the one drop.
  for (const CodecMode mode : {CodecMode::kAdaptive, CodecMode::kDelta}) {
    const WireCase c{mode == CodecMode::kAdaptive ? "adaptive slow+drop"
                                                  : "delta slow+drop",
                     mode, true, 0, 0, true, 0};
    SCOPED_TRACE(c.name);
    MigrationReport report;
    int nacks = 0;
    MigrationWireDigest(c, &report, &nacks);
    ASSERT_TRUE(report.status.ok()) << report.status.ToString();
    EXPECT_TRUE(report.digest_match);
    EXPECT_EQ(nacks, 1);
  }
}

}  // namespace
}  // namespace slacker::codec
