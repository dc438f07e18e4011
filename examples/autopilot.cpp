// Autopilot — closing the loop the paper leaves to future work (§8):
// *when* to migrate, *which* tenant, and *where*, with Slacker's
// latency-aware throttle handling *how*.
//
// Three servers host four tenants. One tenant rides a flash-crowd
// arrival pattern. A control loop samples per-server utilization every
// 15 s; when the PlacementAdvisor detects a hotspot it executes the
// recommended migration with a PID throttle, so the mitigation itself
// doesn't deepen the hotspot. When the crowd passes and servers go
// idle, the advisor consolidates tenants back and frees a server.
//
// Build & run:  ./build/examples/autopilot

#include <cstdio>

#include "src/sim/simulator.h"
#include "src/slacker/cluster.h"
#include "src/slacker/placement.h"
#include "src/workload/client_pool.h"
#include "src/workload/patterns.h"
#include "src/workload/ycsb.h"

using namespace slacker;

int main() {
  sim::Simulator sim;
  ClusterOptions cluster_options;
  cluster_options.num_servers = 3;
  Cluster cluster(&sim, cluster_options);

  // Four tenants: 1 and 2 on server 0, 3 and 4 on server 1.
  std::vector<std::unique_ptr<workload::YcsbWorkload>> workloads;
  std::vector<std::unique_ptr<workload::ClientPool>> pools;
  for (uint64_t id : {1, 2, 3, 4}) {
    engine::TenantConfig tenant;
    tenant.tenant_id = id;
    tenant.layout.record_count = 128 * 1024;
    tenant.buffer_pool_bytes = 16 * kMiB;
    auto db = cluster.AddTenant(id <= 2 ? 0 : 1, tenant);
    if (!db.ok()) return 1;
    (*db)->WarmBufferPool();
    workload::YcsbConfig ycsb;
    ycsb.record_count = tenant.layout.record_count;
    ycsb.mean_interarrival = 0.55;
    workloads.push_back(
        std::make_unique<workload::YcsbWorkload>(ycsb, id, id * 101));
    pools.push_back(std::make_unique<workload::ClientPool>(
        &sim, workloads.back().get(), &cluster,
        cluster.MakeLatencyObserver()));
    cluster.AttachClientPool(id, pools.back().get());
    pools.back()->Start();
  }

  // Tenant 1 gets a flash crowd: 5x traffic from t=120 for ~3 minutes.
  workload::FlashCrowdPattern crowd(/*start=*/120.0, /*ramp=*/20.0,
                                    /*hold=*/160.0, /*peak=*/5.0);
  workload::PatternDriver crowd_driver(&sim, workloads[0].get(), &crowd, 5.0);
  crowd_driver.Start();

  // The autopilot loop.
  PlacementOptions placement_options;
  placement_options.overload_threshold = 0.65;
  placement_options.consolidation_threshold = 0.12;
  PlacementAdvisor advisor(placement_options);
  std::vector<std::pair<uint64_t, uint64_t>> ops_baseline;
  CollectClusterStats(&cluster, &ops_baseline);
  int migrations_started = 0, migrations_done = 0;
  bool migration_in_flight = false;

  sim::PeriodicTimer autopilot(&sim, 15.0, [&](SimTime now) {
    if (migration_in_flight) return;  // One at a time.
    // Reset utilization windows each sample.
    const auto stats = CollectClusterStats(&cluster, &ops_baseline);
    for (size_t s = 0; s < cluster.num_servers(); ++s) {
      cluster.server(s)->disk()->ResetStats();
    }
    auto plans = advisor.PlanRelief(stats);
    const char* kind = "relief";
    if (plans.empty() && now > 360.0) {  // Quiet again: consolidate.
      plans = advisor.PlanConsolidation(stats);
      kind = "consolidation";
    }
    if (plans.empty()) return;
    const MigrationPlan& plan = plans.front();
    MigrationOptions migration;
    migration.pid.setpoint = 1200.0;
    migration.pid.output_max = 30.0;
    migration.prepare.base_seconds = 1.0;
    std::printf("[t=%5.0f] %s: %s\n", now, kind, plan.rationale.c_str());
    const Status status = cluster.StartMigration(
        plan.tenant_id, plan.target_server, migration,
        [&, kind](const MigrationReport& r) {
          migration_in_flight = false;
          ++migrations_done;
          std::printf("[t=%5.0f]   done (%s): tenant %llu in %.0f s at "
                      "%.1f MB/s, downtime %.0f ms\n",
                      sim.Now(), kind,
                      static_cast<unsigned long long>(r.tenant_id),
                      r.DurationSeconds(), r.AverageRateMbps(),
                      r.downtime_ms);
        });
    if (status.ok()) {
      migration_in_flight = true;
      ++migrations_started;
    } else {
      std::printf("[t=%5.0f]   could not start: %s\n", now,
                  status.ToString().c_str());
    }
  });
  autopilot.Start();

  sim.RunUntil(700.0);
  autopilot.Stop();
  crowd_driver.Stop();
  for (auto& pool : pools) pool->Stop();
  sim.RunUntil(720.0);

  std::printf("\n== outcome\n");
  for (uint64_t server = 0; server < 3; ++server) {
    const auto tenants = cluster.range_directory()->TenantsHomedOn(server);
    std::printf("  server %llu: %zu tenant(s)\n",
                static_cast<unsigned long long>(server), tenants.size());
  }
  uint64_t failed = 0, completed = 0;
  double worst_p99 = 0.0;
  for (auto& pool : pools) {
    failed += pool->stats().failed;
    completed += pool->stats().completed;
    worst_p99 = std::max(worst_p99, pool->latencies().Percentile(99));
  }
  std::printf("  migrations: %d started, %d completed\n", migrations_started,
              migrations_done);
  std::printf("  workload: %llu txns, 0 expected failures (got %llu), "
              "worst p99 %.0f ms\n",
              static_cast<unsigned long long>(completed),
              static_cast<unsigned long long>(failed), worst_p99);
  return failed == 0 && migrations_done > 0 ? 0 : 1;
}
