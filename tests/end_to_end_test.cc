// End-to-end property sweeps: for a grid of seeds, workloads, and
// throttle policies, a live migration under load must (a) converge with
// matching digests, (b) keep downtime under a second, (c) lose no
// acknowledged write, and (d) leave the cluster fully serviceable.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/common/units.h"
#include "src/sla/sla.h"
#include "src/slacker/cluster.h"
#include "src/workload/client_pool.h"
#include "src/workload/ycsb.h"
#include "testing/acked_write_ledger.h"

namespace slacker {
namespace {

struct E2EParams {
  uint64_t seed;
  double update_fraction;
  double insert_fraction;
  ThrottleKind throttle;
  double setpoint_or_rate;  // Setpoint ms for PID; MB/s for fixed.
  bool use_target_latency;
  std::string name;
};

class MigrationPropertyTest : public ::testing::TestWithParam<E2EParams> {};

TEST_P(MigrationPropertyTest, InvariantsHold) {
  const E2EParams p = GetParam();

  sim::Simulator sim;
  ClusterOptions cluster_options;
  cluster_options.num_servers = 2;
  Cluster cluster(&sim, cluster_options);

  engine::TenantConfig tenant;
  tenant.tenant_id = 1;
  tenant.layout.record_count = 32 * 1024;  // 32 MiB tenant.
  tenant.buffer_pool_bytes = 4 * kMiB;
  ASSERT_TRUE(cluster.AddTenant(0, tenant).ok());

  workload::YcsbConfig ycsb;
  ycsb.record_count = tenant.layout.record_count;
  ycsb.mix.read = 1.0 - p.update_fraction - p.insert_fraction;
  ycsb.mix.update = p.update_fraction;
  ycsb.mix.insert = p.insert_fraction;
  ycsb.mean_interarrival = 0.25;
  workload::YcsbWorkload workload(ycsb, 1, p.seed);
  workload::ClientPool pool(&sim, &workload, &cluster,
                            cluster.MakeLatencyObserver());
  cluster.AttachClientPool(1, &pool);
  workload::AckedWriteLedger ledger(&pool);
  pool.Start();
  sim.RunUntil(5.0);

  MigrationOptions options;
  options.throttle = p.throttle;
  if (p.throttle == ThrottleKind::kFixed) {
    options.fixed_rate_mbps = p.setpoint_or_rate;
  } else {
    options.pid.setpoint = p.setpoint_or_rate;
  }
  options.use_target_latency = p.use_target_latency;
  options.prepare.base_seconds = 0.5;

  MigrationReport report;
  bool done = false;
  ASSERT_TRUE(cluster
                  .StartMigration(1, 1, options,
                                  [&](const MigrationReport& r) {
                                    report = r;
                                    done = true;
                                  })
                  .ok());
  sim.RunUntil(600.0);
  ASSERT_TRUE(done) << "migration did not finish";
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();

  // Let the tail of the workload drain at the new home.
  sim.RunUntil(620.0);
  pool.Stop();
  sim.RunUntil(650.0);

  // (a) Convergence.
  EXPECT_TRUE(report.digest_match);
  // (b) Sub-second downtime for live migration.
  EXPECT_LT(report.downtime_ms, 1000.0);
  // (c) No acknowledged write lost.
  engine::TenantDb* moved = cluster.TenantOn(1, 1);
  ASSERT_NE(moved, nullptr);
  for (const auto& [key, acked] : ledger.writes()) {
    if (acked.deleted) continue;
    const storage::Record* row = moved->table().Get(key);
    ASSERT_NE(row, nullptr) << "lost key " << key;
    EXPECT_GE(row->lsn, acked.lsn);
    if (row->lsn == acked.lsn) {
      EXPECT_EQ(row->digest, acked.digest);
    }
  }
  // (d) Cluster serviceable: no failed transactions, source cleaned up.
  EXPECT_EQ(pool.stats().failed, 0u);
  EXPECT_EQ(cluster.TenantOn(0, 1), nullptr);
  EXPECT_EQ(*cluster.range_directory()->HomeOf(1), 1u);
  EXPECT_GT(pool.stats().completed, 100u);
}

std::vector<E2EParams> AllParams() {
  std::vector<E2EParams> params;
  // Seed sweep with the paper's default mix, PID throttle.
  for (uint64_t seed : {11ull, 22ull, 33ull}) {
    params.push_back(E2EParams{seed, 0.15, 0.0, ThrottleKind::kPid, 1000.0,
                               false,
                               "pid_seed" + std::to_string(seed)});
  }
  // Fixed throttles at several rates.
  for (double rate : {4.0, 12.0}) {
    params.push_back(E2EParams{7, 0.15, 0.0, ThrottleKind::kFixed, rate,
                               false,
                               "fixed" + std::to_string(static_cast<int>(
                                             rate))});
  }
  // Write-heavy and insert-heavy workloads.
  params.push_back(
      E2EParams{44, 0.5, 0.0, ThrottleKind::kPid, 1000.0, false, "writeheavy"});
  params.push_back(
      E2EParams{55, 0.2, 0.1, ThrottleKind::kPid, 1000.0, false, "inserts"});
  // Max(source, target) variant (§6).
  params.push_back(E2EParams{66, 0.15, 0.0, ThrottleKind::kPid, 1000.0, true,
                             "srctarget"});
  // Self-tuning controller (§6 adaptive control).
  params.push_back(E2EParams{99, 0.15, 0.0, ThrottleKind::kAdaptivePid,
                             1000.0, false, "adaptive"});
  // Aggressive and conservative setpoints.
  params.push_back(E2EParams{77, 0.15, 0.0, ThrottleKind::kPid, 300.0, false,
                             "lowsetpoint"});
  params.push_back(E2EParams{88, 0.15, 0.0, ThrottleKind::kPid, 4000.0, false,
                             "highsetpoint"});
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MigrationPropertyTest, ::testing::ValuesIn(AllParams()),
    [](const ::testing::TestParamInfo<E2EParams>& info) {
      return info.param.name;
    });

TEST(MultiTenantE2ETest, NeighborsKeepRunningDuringMigration) {
  sim::Simulator sim;
  ClusterOptions cluster_options;
  cluster_options.num_servers = 2;
  Cluster cluster(&sim, cluster_options);

  std::vector<std::unique_ptr<workload::YcsbWorkload>> workloads;
  std::vector<std::unique_ptr<workload::ClientPool>> pools;
  for (uint64_t id = 1; id <= 3; ++id) {
    engine::TenantConfig tenant;
    tenant.tenant_id = id;
    tenant.layout.record_count = 16 * 1024;
    tenant.buffer_pool_bytes = 2 * kMiB;
    ASSERT_TRUE(cluster.AddTenant(0, tenant).ok());
    workload::YcsbConfig ycsb;
    ycsb.record_count = tenant.layout.record_count;
    ycsb.mean_interarrival = 0.6;
    workloads.push_back(
        std::make_unique<workload::YcsbWorkload>(ycsb, id, id * 17));
    pools.push_back(std::make_unique<workload::ClientPool>(
        &sim, workloads.back().get(), &cluster,
        cluster.MakeLatencyObserver()));
    cluster.AttachClientPool(id, pools.back().get());
    pools.back()->Start();
  }
  sim.RunUntil(5.0);

  MigrationOptions options;
  options.pid.setpoint = 1000.0;
  options.prepare.base_seconds = 0.5;
  bool done = false;
  MigrationReport report;
  ASSERT_TRUE(cluster
                  .StartMigration(2, 1, options,
                                  [&](const MigrationReport& r) {
                                    report = r;
                                    done = true;
                                  })
                  .ok());
  sim.RunUntil(400.0);
  ASSERT_TRUE(done);
  ASSERT_TRUE(report.status.ok());
  for (auto& pool : pools) pool->Stop();
  sim.RunUntil(430.0);

  // Tenant 2 moved; neighbors 1 and 3 stayed and kept completing.
  EXPECT_EQ(*cluster.range_directory()->HomeOf(2), 1u);
  EXPECT_EQ(*cluster.range_directory()->HomeOf(1), 0u);
  EXPECT_EQ(*cluster.range_directory()->HomeOf(3), 0u);
  for (auto& pool : pools) {
    EXPECT_EQ(pool->stats().failed, 0u);
    EXPECT_GT(pool->stats().completed, 100u);
  }
}

TEST(SlaE2ETest, PidMigrationSatisfiesRelaxedSlaWhereFixedFastDoesNot) {
  // A PID throttle targeting 800 ms must keep p95 below an SLA that an
  // unthrottled-fast fixed migration violates. Uses a busier tenant on
  // a slower disk so the fixed rate genuinely overloads.
  auto run = [&](MigrationOptions options, PercentileTracker* out) {
    sim::Simulator sim;
    ClusterOptions cluster_options;
    cluster_options.num_servers = 2;
    cluster_options.disk.transfer_bytes_per_sec = 30.0 * kMiB;
    Cluster cluster(&sim, cluster_options);
    engine::TenantConfig tenant;
    tenant.tenant_id = 1;
    tenant.layout.record_count = 32 * 1024;
    tenant.buffer_pool_bytes = 4 * kMiB;
    EXPECT_TRUE(cluster.AddTenant(0, tenant).ok());
    workload::YcsbConfig ycsb;
    ycsb.record_count = tenant.layout.record_count;
    ycsb.mean_interarrival = 0.12;
    workload::YcsbWorkload workload(ycsb, 1, 5);
    workload::ClientPool pool(&sim, &workload, &cluster,
                              cluster.MakeLatencyObserver());
    cluster.AttachClientPool(1, &pool);
    pool.Start();
    sim.RunUntil(5.0);
    bool done = false;
    EXPECT_TRUE(cluster
                    .StartMigration(1, 1, options,
                                    [&](const MigrationReport&) {
                                      done = true;
                                    })
                    .ok());
    sim.RunUntil(400.0);
    EXPECT_TRUE(done);
    pool.Stop();
    sim.RunUntil(430.0);
    *out = pool.latencies();
  };

  MigrationOptions pid;
  pid.pid.setpoint = 800.0;
  pid.prepare.base_seconds = 0.5;
  PercentileTracker pid_latencies;
  run(pid, &pid_latencies);

  MigrationOptions fast;
  fast.throttle = ThrottleKind::kFixed;
  fast.fixed_rate_mbps = 26.0;  // Deliberately beyond the slack.
  fast.prepare.base_seconds = 0.5;
  PercentileTracker fixed_latencies;
  run(fast, &fixed_latencies);

  EXPECT_LT(pid_latencies.Percentile(95), fixed_latencies.Percentile(95));
}

}  // namespace
}  // namespace slacker
