// Quickstart: the smallest end-to-end Slacker run.
//
// Builds a two-server simulated cluster, creates a 128 MiB tenant on
// server 0, points a YCSB-style open workload at it, then live-migrates
// the tenant to server 1 with the PID-controlled dynamic throttle while
// the workload keeps running. Prints what the paper cares about: the
// latency the workload saw, how fast the migration went, and the
// sub-second downtime of the handover.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "src/obs/chrome_trace.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"
#include "src/slacker/cluster.h"
#include "src/workload/client_pool.h"
#include "src/workload/ycsb.h"

using namespace slacker;

int main() {
  // --- 1. A simulated two-server testbed, with a tracer recording
  //        every migration phase, throttle decision, and fault.
  sim::Simulator sim;
  obs::Tracer tracer([&sim] { return sim.Now(); });
  ClusterOptions cluster_options;
  cluster_options.num_servers = 2;
  Cluster cluster(&sim, cluster_options);
  cluster.InstallTracer(&tracer);

  // --- 2. One tenant: 128 MiB of 1 KiB rows, 16 MiB buffer pool.
  engine::TenantConfig tenant;
  tenant.tenant_id = 1;
  tenant.layout.record_count = 128 * 1024;
  tenant.buffer_pool_bytes = 16 * kMiB;
  auto db = cluster.AddTenant(/*server_id=*/0, tenant);
  if (!db.ok()) {
    std::fprintf(stderr, "AddTenant: %s\n", db.status().ToString().c_str());
    return 1;
  }
  (*db)->WarmBufferPool();

  // --- 3. An open-loop workload: Poisson arrivals, 10-op transactions,
  //        85% reads / 15% updates, MPL 10 (the paper's benchmark).
  workload::YcsbConfig ycsb;
  ycsb.record_count = tenant.layout.record_count;
  ycsb.mean_interarrival = 0.25;  // ~4 txn/s.
  workload::YcsbWorkload workload(ycsb, tenant.tenant_id, /*seed=*/42);
  workload::ClientPool clients(&sim, &workload, &cluster,
                               cluster.MakeLatencyObserver());
  cluster.AttachClientPool(tenant.tenant_id, &clients);
  clients.Start();
  sim.RunUntil(20.0);  // Warm-up.

  // --- 4. Live migration with the dynamic throttle: target 500 ms.
  MigrationOptions migration;  // Defaults: PID, paper gains, 1 s tick.
  migration.pid.setpoint = 500.0;
  migration.pid.output_max = 30.0;
  migration.prepare.base_seconds = 1.0;

  MigrationReport report;
  bool done = false;
  const Status status = cluster.StartMigration(
      tenant.tenant_id, /*target_server=*/1, migration,
      [&](const MigrationReport& r) {
        report = r;
        done = true;
      });
  if (!status.ok()) {
    std::fprintf(stderr, "StartMigration: %s\n", status.ToString().c_str());
    return 1;
  }
  while (!done) sim.RunUntil(sim.Now() + 1.0);
  sim.RunUntil(sim.Now() + 10.0);  // Post-migration tail.
  clients.Stop();
  sim.RunUntil(sim.Now() + 10.0);

  // --- 5. What happened.
  std::printf("migration:       %s\n", report.status.ToString().c_str());
  std::printf("tenant now on:   server %llu\n",
              static_cast<unsigned long long>(
                  *cluster.range_directory()->HomeOf(tenant.tenant_id)));
  std::printf("data moved:      %.1f MiB snapshot + %.1f KiB deltas "
              "(%d rounds)\n",
              static_cast<double>(report.snapshot_bytes) / kMiB,
              static_cast<double>(report.delta_bytes) / kKiB,
              report.delta_rounds);
  std::printf("duration:        %.1f s (avg %.1f MB/s)\n",
              report.DurationSeconds(), report.AverageRateMbps());
  std::printf("downtime:        %.0f ms (freeze-and-handover)\n",
              report.downtime_ms);
  std::printf("replicas agreed: %s\n", report.digest_match ? "yes" : "NO");
  std::printf("workload:        %llu txns, mean %.0f ms, p99 %.0f ms, "
              "%llu failed\n",
              static_cast<unsigned long long>(clients.stats().completed),
              clients.latencies().Mean(), clients.latencies().Percentile(99),
              static_cast<unsigned long long>(clients.stats().failed));

  // --- 6. Export the trace: one row per migration/supervisor/server
  //        track, spans for every phase, instants for every throttle
  //        decision. Load it in chrome://tracing or ui.perfetto.dev.
  const std::string trace_path = "quickstart_trace.json";
  const Status trace_status = obs::WriteChromeTrace(tracer, trace_path);
  if (trace_status.ok()) {
    std::printf("trace:           %s (open in chrome://tracing or "
                "https://ui.perfetto.dev)\n",
                trace_path.c_str());
  } else {
    std::fprintf(stderr, "WriteChromeTrace: %s\n",
                 trace_status.ToString().c_str());
  }
  cluster.InstallTracer(nullptr);
  return report.status.ok() && report.digest_match ? 0 : 1;
}
