// Tests for concurrent migrations: several tenants moving at once
// (off one server, onto one server, and crossing flows), sharing disks
// and the directory without interference or lost data.

#include <gtest/gtest.h>

#include <map>

#include "src/common/units.h"
#include "src/slacker/cluster.h"
#include "src/workload/client_pool.h"
#include "src/workload/ycsb.h"
#include "testing/acked_write_ledger.h"

namespace slacker {
namespace {

engine::TenantConfig SmallTenant(uint64_t id) {
  engine::TenantConfig config;
  config.tenant_id = id;
  config.layout.record_count = 24 * 1024;  // 24 MiB.
  config.buffer_pool_bytes = 4 * kMiB;
  return config;
}

MigrationOptions Fixed(double mbps) {
  MigrationOptions options;
  options.throttle = ThrottleKind::kFixed;
  options.fixed_rate_mbps = mbps;
  options.prepare.base_seconds = 0.5;
  return options;
}

struct Rig {
  sim::Simulator sim;
  Cluster cluster;
  std::map<uint64_t, MigrationReport> reports;

  Rig() : cluster(&sim, ClusterOptions{}) {}

  MigrationJob::DoneCallback Done(uint64_t tenant) {
    return [this, tenant](const MigrationReport& r) { reports[tenant] = r; };
  }
};

TEST(ConcurrentMigrationTest, FanOutFromOneSource) {
  // Two tenants leave server 0 simultaneously for different targets.
  Rig rig;
  ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant(1)).ok());
  ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant(2)).ok());
  ASSERT_TRUE(rig.cluster.StartMigration(1, 1, Fixed(8.0),
                                         rig.Done(1)).ok());
  ASSERT_TRUE(rig.cluster.StartMigration(2, 2, Fixed(8.0),
                                         rig.Done(2)).ok());
  EXPECT_EQ(rig.cluster.server(0)->controller()->active_jobs(), 2u);
  rig.sim.RunUntil(120.0);
  ASSERT_EQ(rig.reports.size(), 2u);
  for (const auto& [tenant, report] : rig.reports) {
    EXPECT_TRUE(report.status.ok()) << tenant;
    EXPECT_TRUE(report.digest_match) << tenant;
  }
  EXPECT_EQ(*rig.cluster.range_directory()->HomeOf(1), 1u);
  EXPECT_EQ(*rig.cluster.range_directory()->HomeOf(2), 2u);
  EXPECT_EQ(rig.cluster.server(0)->tenants()->tenant_count(), 0u);
}

TEST(ConcurrentMigrationTest, FanInToOneTarget) {
  Rig rig;
  ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant(1)).ok());
  ASSERT_TRUE(rig.cluster.AddTenant(1, SmallTenant(2)).ok());
  ASSERT_TRUE(rig.cluster.StartMigration(1, 2, Fixed(8.0),
                                         rig.Done(1)).ok());
  ASSERT_TRUE(rig.cluster.StartMigration(2, 2, Fixed(8.0),
                                         rig.Done(2)).ok());
  rig.sim.RunUntil(1.0);  // Let the migrate requests arrive.
  EXPECT_EQ(rig.cluster.server(2)->controller()->active_sessions(), 2u);
  rig.sim.RunUntil(120.0);
  ASSERT_EQ(rig.reports.size(), 2u);
  for (const auto& [tenant, report] : rig.reports) {
    EXPECT_TRUE(report.status.ok()) << tenant;
    EXPECT_TRUE(report.digest_match) << tenant;
  }
  EXPECT_EQ(rig.cluster.server(2)->tenants()->tenant_count(), 2u);
}

TEST(ConcurrentMigrationTest, CrossingFlowsSwapServers) {
  // Tenant 1: 0 -> 1 while tenant 2: 1 -> 0, simultaneously.
  Rig rig;
  ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant(1)).ok());
  ASSERT_TRUE(rig.cluster.AddTenant(1, SmallTenant(2)).ok());
  ASSERT_TRUE(rig.cluster.StartMigration(1, 1, Fixed(8.0),
                                         rig.Done(1)).ok());
  ASSERT_TRUE(rig.cluster.StartMigration(2, 0, Fixed(8.0),
                                         rig.Done(2)).ok());
  rig.sim.RunUntil(150.0);
  ASSERT_EQ(rig.reports.size(), 2u);
  EXPECT_TRUE(rig.reports[1].status.ok());
  EXPECT_TRUE(rig.reports[2].status.ok());
  EXPECT_EQ(*rig.cluster.range_directory()->HomeOf(1), 1u);
  EXPECT_EQ(*rig.cluster.range_directory()->HomeOf(2), 0u);
  EXPECT_TRUE(rig.reports[1].digest_match);
  EXPECT_TRUE(rig.reports[2].digest_match);
}

TEST(ConcurrentMigrationTest, UnderLoadNoAckLostAnywhere) {
  Rig rig;
  std::vector<std::unique_ptr<workload::YcsbWorkload>> workloads;
  std::vector<std::unique_ptr<workload::ClientPool>> pools;
  std::vector<std::unique_ptr<workload::AckedWriteLedger>> ledgers;
  for (uint64_t id : {1, 2}) {
    ASSERT_TRUE(rig.cluster.AddTenant(0, SmallTenant(id)).ok());
    workload::YcsbConfig ycsb;
    ycsb.record_count = 24 * 1024;
    ycsb.mean_interarrival = 0.5;
    workloads.push_back(
        std::make_unique<workload::YcsbWorkload>(ycsb, id, id * 7));
    pools.push_back(std::make_unique<workload::ClientPool>(
        &rig.sim, workloads.back().get(), &rig.cluster,
        rig.cluster.MakeLatencyObserver()));
    rig.cluster.AttachClientPool(id, pools.back().get());
    ledgers.push_back(
        std::make_unique<workload::AckedWriteLedger>(pools.back().get()));
    pools.back()->Start();
  }
  rig.sim.RunUntil(5.0);
  ASSERT_TRUE(rig.cluster.StartMigration(1, 1, Fixed(8.0),
                                         rig.Done(1)).ok());
  ASSERT_TRUE(rig.cluster.StartMigration(2, 2, Fixed(8.0),
                                         rig.Done(2)).ok());
  rig.sim.RunUntil(150.0);
  for (auto& pool : pools) pool->Stop();
  rig.sim.RunUntil(170.0);
  ASSERT_EQ(rig.reports.size(), 2u);
  for (uint64_t id : {1, 2}) {
    ASSERT_TRUE(rig.reports[id].status.ok());
    EXPECT_TRUE(rig.reports[id].digest_match);
    engine::TenantDb* moved =
        rig.cluster.TenantOn(rig.reports[id].target_server, id);
    ASSERT_NE(moved, nullptr);
    for (const auto& [key, acked] : ledgers[id - 1]->writes()) {
      if (acked.deleted) continue;
      const storage::Record* row = moved->table().Get(key);
      ASSERT_NE(row, nullptr) << "tenant " << id << " key " << key;
      EXPECT_GE(row->lsn, acked.lsn);
    }
    EXPECT_EQ(pools[id - 1]->stats().failed, 0u);
  }
}

TEST(ConcurrentMigrationTest, SharedSourceDiskSlowsBothCopies) {
  // Two concurrent 8 MB/s copies off one disk take longer per tenant
  // than one alone would (they contend), but both still complete.
  Rig solo_rig;
  ASSERT_TRUE(solo_rig.cluster.AddTenant(0, SmallTenant(1)).ok());
  ASSERT_TRUE(solo_rig.cluster.StartMigration(1, 1, Fixed(20.0),
                                              solo_rig.Done(1)).ok());
  solo_rig.sim.RunUntil(120.0);
  const double solo_duration = solo_rig.reports[1].DurationSeconds();

  Rig dual_rig;
  ASSERT_TRUE(dual_rig.cluster.AddTenant(0, SmallTenant(1)).ok());
  ASSERT_TRUE(dual_rig.cluster.AddTenant(0, SmallTenant(2)).ok());
  ASSERT_TRUE(dual_rig.cluster.StartMigration(1, 1, Fixed(20.0),
                                              dual_rig.Done(1)).ok());
  ASSERT_TRUE(dual_rig.cluster.StartMigration(2, 2, Fixed(20.0),
                                              dual_rig.Done(2)).ok());
  dual_rig.sim.RunUntil(240.0);
  ASSERT_EQ(dual_rig.reports.size(), 2u);
  // Both complete; at least as slow as the solo copy.
  EXPECT_GE(dual_rig.reports[1].DurationSeconds(), solo_duration * 0.95);
  EXPECT_GE(dual_rig.reports[2].DurationSeconds(), solo_duration * 0.95);
}

}  // namespace
}  // namespace slacker
