// One repetition of one benchmark workload, in its own single-threaded
// process. run.py launches it several times per benchmark run and
// reports medians; this binary prints one JSON object on its last line.
//
//   perfbench_workload --workload <name> --seed <n> [--trace 0|1]
//                      [--spans <path>]
//
// --trace 1 records spans around the benchmark's calls into the program
// and replays the run's inputs layer by layer after the run (see
// replay.h); the end-to-end numbers come from --trace 0 runs.

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "replay.h"
#include "scenarios.h"
#include "spans.h"

namespace perfbench {
namespace {

/// Nearest-rank percentile of sorted values.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank =
      std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Percentile(values, 50.0);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c == '\n' ? ' ' : c);
  }
  return out;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_workload --workload <name> --seed <n> "
               "[--trace 0|1] [--spans <path>]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  uint64_t seed = 0;
  bool have_seed = false;
  bool trace = false;
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (arg == "--trace") {
      trace = std::strcmp(value, "1") == 0;
    } else if (arg == "--spans") {
      spans_path = value;
    } else {
      return Usage();
    }
  }
  WorkloadParams params;
  if (!have_seed || !MakeParams(workload, &params)) return Usage();

  std::unique_ptr<SpanRecorder> recorder;
  if (trace) recorder = std::make_unique<SpanRecorder>(seed);
  SpanRecorder* spans = recorder.get();

  WorkloadRun run(params, seed, spans);
  run.Setup();
  run.Timed();
  run.Finish();

  std::map<std::string, double> m;
  std::vector<std::string> failures = run.failures();

  // --- End-to-end inputs (run.py takes medians over repetitions) ----
  const double wall = run.timed_wall_s();
  m["setup_s"] = run.setup_s();
  m["timed_wall_s"] = wall;
  m["timed_cpu_s"] = run.timed_cpu_s();
  m["sim_seconds"] = run.sim_seconds();
  const std::vector<double>& lat = run.window_latencies();
  m["txns_window"] = static_cast<double>(lat.size());
  m["sim_txn_p50_ms"] = Percentile(lat, 50.0);
  m["sim_txn_tail_percentile"] = params.tail_percentile;
  m["sim_txn_tail_ms"] = Percentile(lat, params.tail_percentile);
  double lat_sum = 0.0;
  for (double v : lat) lat_sum += v;
  m["sim_txn_mean_ms"] =
      lat.empty() ? 0.0 : lat_sum / static_cast<double>(lat.size());

  std::vector<double> move_s, downtime_ms, throttle;
  uint64_t moves_failed = 0, handovers = 0, range_jobs = 0;
  uint64_t snap = 0, delta = 0, snap_wire = 0, delta_wire = 0, rounds = 0,
           retrans = 0, chunks_lz = 0, throttle_updates = 0;
  for (const auto& move : run.moves()) {
    if (!move->status.ok()) ++moves_failed;
    move_s.push_back(move->end - move->start);
    for (const slacker::MigrationReport& r : move->handovers) {
      ++handovers;
      if (r.range_scoped) ++range_jobs;
      downtime_ms.push_back(r.downtime_ms);
      snap += r.snapshot_bytes;
      delta += r.delta_bytes;
      snap_wire += r.snapshot_wire_bytes;
      delta_wire += r.delta_wire_bytes;
      rounds += static_cast<uint64_t>(r.delta_rounds);
      retrans += r.chunks_retransmitted;
      chunks_lz += r.chunks_lz;
      for (const auto& point : r.throttle_series.points()) {
        throttle.push_back(point.value);
        ++throttle_updates;
      }
    }
  }
  std::sort(downtime_ms.begin(), downtime_ms.end());
  const double mib = static_cast<double>(slacker::kMiB);
  m["migrated_mib"] = static_cast<double>(snap + delta) / mib;
  m["sim_migration_s"] = Median(move_s);
  m["sim_downtime_p50_ms"] = Percentile(downtime_ms, 50.0);
  m["slacker.downtime_max_ms"] =
      downtime_ms.empty() ? 0.0 : downtime_ms.back();
  m["sim_migration_jobs"] = static_cast<double>(move_s.size());
  m["sim_handovers"] = static_cast<double>(handovers);

  const slacker::workload::ClientPoolStats pools = run.pool_totals();
  m["txn_attempted"] = static_cast<double>(pools.arrivals);
  m["txn_failed"] = static_cast<double>(pools.failed);
  m["migrations_attempted"] = static_cast<double>(run.moves().size());
  m["migrations_failed"] = static_cast<double>(moves_failed);

  // --- Per-layer counts (deterministic, from public accessors) ------
  const double events = static_cast<double>(run.events());
  const double window_txns = std::max<double>(1.0, lat.size());
  m["sim.events"] = events;
  m["sim.events_per_txn"] = events / window_txns;
  m["sim.events_per_s"] = wall > 0 ? events / wall : 0.0;
  m["workload.txns_completed"] = static_cast<double>(lat.size());
  m["workload.txns_failed"] = static_cast<double>(pools.failed);
  m["workload.retries"] = static_cast<double>(pools.retries);
  m["workload.max_queue_depth"] = static_cast<double>(pools.max_queue_depth);
  m["backup.snapshot_mib"] = static_cast<double>(snap) / mib;
  m["backup.delta_mib"] = static_cast<double>(delta) / mib;
  m["backup.delta_rounds"] = static_cast<double>(rounds);
  m["backup.chunks_retransmitted"] = static_cast<double>(retrans);
  m["codec.logical_mib"] = static_cast<double>(snap + delta) / mib;
  m["codec.wire_mib"] = static_cast<double>(snap_wire + delta_wire) / mib;
  m["codec.ratio"] = snap_wire + delta_wire > 0
                         ? static_cast<double>(snap + delta) /
                               static_cast<double>(snap_wire + delta_wire)
                         : 1.0;
  m["codec.chunks_lz"] = static_cast<double>(chunks_lz);
  uint64_t messages = 0, bytes_sent = 0, dropped = 0;
  {
    std::vector<std::pair<uint64_t, uint64_t>> pairs;
    for (const auto& move : run.moves()) {
      for (const slacker::MigrationReport& r : move->handovers) {
        pairs.push_back({r.source_server, r.target_server});
        pairs.push_back({r.target_server, r.source_server});
      }
    }
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
    for (const auto& [from, to] : pairs) {
      const slacker::net::Channel* ch =
          run.cluster()->ChannelBetween(from, to);
      messages += ch->messages_sent();
      bytes_sent += ch->bytes_sent();
      dropped += ch->messages_dropped();
    }
  }
  m["net.messages"] = static_cast<double>(messages);
  m["net.mib_sent"] = static_cast<double>(bytes_sent) / mib;
  m["net.messages_dropped"] = static_cast<double>(dropped);
  m["resource.disk_util"] = run.disk_util();
  m["resource.disk_wait_ms_mean"] = run.disk_wait_ms_mean();
  m["resource.cpu_util"] = run.cpu_util();
  double throttle_sum = 0.0;
  for (double v : throttle) throttle_sum += v;
  m["control.throttle_mean_mbps"] =
      throttle.empty()
          ? 0.0
          : throttle_sum / static_cast<double>(throttle.size());
  m["control.throttle_updates"] = static_cast<double>(throttle_updates);
  m["slacker.migrations_ok"] =
      static_cast<double>(run.moves().size() - moves_failed);
  m["slacker.migrations_failed"] = static_cast<double>(moves_failed);
  m["slacker.auditor_checks"] = static_cast<double>(run.auditor_checks());
  m["range.jobs"] = static_cast<double>(range_jobs);
  m["range.directory_version"] =
      static_cast<double>(run.cluster()->range_directory()->version());

  // --- Traced run: sampled counters, layer replays, spans -----------
  uint64_t replay_checksum = 0;
  if (trace) {
    const InstanceSampler& s = run.sampler();
    m["engine.ops"] = static_cast<double>(s.ops());
    m["engine.ops_per_txn"] = static_cast<double>(s.ops()) / window_txns;
    m["storage.bp_hits"] = static_cast<double>(s.bp_hits());
    m["storage.bp_misses"] = static_cast<double>(s.bp_misses());
    const uint64_t touches = s.bp_hits() + s.bp_misses();
    m["storage.bp_hit_ratio"] =
        touches > 0 ? static_cast<double>(s.bp_hits()) /
                          static_cast<double>(touches)
                    : 1.0;
    // The replays need every tenant's owner; a run that failed its
    // checks may not have one.
    const LayerReplay replay =
        failures.empty() ? ReplayLayers(&run, spans) : LayerReplay{};
    replay_checksum = replay.checksum;
    if (!replay.implausible.empty()) failures.push_back(replay.implausible);
    m["storage.btree_get_ns"] = replay.btree_get_ns;
    m["storage.btree_put_ns"] = replay.btree_put_ns;
    m["storage.bp_touch_ns"] = replay.bp_touch_ns;
    m["wal.binlog_mib"] = static_cast<double>(replay.binlog_bytes) / mib;
    m["wal.append_ns"] = replay.wal_append_ns;
    m["codec.lz_mib_per_s"] = replay.lz_mib_per_s;
    m["codec.crc_mib_per_s"] = replay.crc_mib_per_s;
    const double storage = wall > 0 ? replay.storage_s / wall : 0.0;
    const double wal = wall > 0 ? replay.wal_s / wall : 0.0;
    const double codec = wall > 0 ? replay.codec_s / wall : 0.0;
    m["storage.host_share"] = storage;
    m["wal.host_share"] = wal;
    m["codec.host_share"] = codec;
    m["other.host_share"] = 1.0 - storage - wal - codec;
    if (!spans_path.empty() && !spans->WriteJson(spans_path)) {
      failures.push_back("cannot write spans to " + spans_path);
    }
  }
  m["peak_rss_mb"] = PeakRssMb();

  std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"trace\": %d, \"correct\": %s, \"digest\": \"%016" PRIx64
              "\", \"replay_checksum\": \"%016" PRIx64 "\", \"failures\": [",
              workload.c_str(), seed, trace ? 1 : 0,
              failures.empty() ? "true" : "false", run.digest(),
              replay_checksum);
  for (size_t i = 0; i < failures.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ", Escape(failures[i]).c_str());
  }
  std::printf("], \"slice_ns\": [");
  for (size_t i = 0; i < run.slice_ns().size(); ++i) {
    std::printf("%s%lld", i == 0 ? "" : ", ",
                static_cast<long long>(run.slice_ns()[i]));
  }
  std::printf("], \"values\": {");
  bool first = true;
  for (const auto& [name, value] : m) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::printf("}}\n");
  return 0;
}
