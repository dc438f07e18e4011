#ifndef PERFBENCH_SCENARIOS_H_
#define PERFBENCH_SCENARIOS_H_

// The three benchmark workloads, driven through the program's public
// API only (Cluster, ClientPool, YcsbWorkload, FluidMigrator,
// Simulator::RunUntil). One WorkloadRun is one repetition: Setup()
// builds, populates and warms the fleet; Timed() is the measured
// phase; Finish() quiesces the clients and checks the outputs.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.h"
#include "src/sim/simulator.h"
#include "src/slacker/cluster.h"
#include "src/slacker/fluid_migration.h"
#include "src/workload/client_pool.h"
#include "src/workload/ycsb.h"

namespace perfbench {

using slacker::SimTime;

/// One tenant relocation: a whole-tenant job or a FluidMigrator.
struct MovePlan {
  uint64_t tenant = 0;
  uint64_t target = 0;
  bool fluid = false;
};

/// Everything that defines a workload. Sizes and rates are fixed per
/// workload; only the seed varies the generated inputs.
struct WorkloadParams {
  slacker::ClusterOptions cluster;
  int tenants = 0;
  /// Tenant i lives on server (i * tenant_stride) % servers.
  uint64_t tenant_stride = 1;
  uint64_t rows_per_tenant = 0;
  uint64_t buffer_pool_bytes = 0;
  double cpu_per_op = 0.0;
  slacker::workload::YcsbConfig ycsb;
  bool route_by_key = false;
  /// Tail latency percentile reported for this workload: one where
  /// migration shows, the value is steady across seeds, and well over
  /// ten samples lie beyond it.
  double tail_percentile = 95.0;
  /// Simulated warm-up before the timed phase (part of set-up).
  SimTime warmup = 0.0;
  /// The timed phase lasts at least this long and until every move has
  /// finished; `max_timed` bounds it.
  SimTime min_timed = 0.0;
  SimTime max_timed = 0.0;
  /// RunUntil slice length of the timed phase.
  SimTime slice = 0.0;
  /// Moves start with the timed phase. Each chain runs its moves one
  /// after another (the next starts at the first slice boundary after
  /// the previous one finished); chains run concurrently.
  std::vector<std::vector<MovePlan>> chains;
  /// Options of whole-tenant jobs and the template of range jobs.
  slacker::MigrationOptions migration;
  size_t fluid_ranges = 8;
};

/// Returns false for an unknown workload name.
bool MakeParams(const std::string& name, WorkloadParams* params);

/// Per-tenant state kept by the benchmark.
struct TenantSlot {
  uint64_t id = 0;
  uint64_t home = 0;
  slacker::workload::YcsbConfig ycsb;
  uint64_t seed = 0;
  std::unique_ptr<slacker::workload::YcsbWorkload> workload;
  std::unique_ptr<slacker::workload::ClientPool> pool;
  /// Generator position at the start and end of the timed phase (the
  /// replay regenerates exactly these transactions).
  uint64_t txns_at_start = 0;
  uint64_t txns_at_end = 0;
};

/// Outcome of one move.
struct MoveState {
  MovePlan plan;
  bool started = false;
  bool done = false;
  slacker::Status status;
  SimTime start = 0.0;
  SimTime end = 0.0;
  /// One report per handover: the whole job, or every range job.
  std::vector<slacker::MigrationReport> handovers;
  std::unique_ptr<slacker::FluidMigrator> fluid;
};

/// Program counters sampled per tenant instance during a traced run
/// (instances come and go with migrations, so the sampler keeps the
/// last value per (tenant, server) and adds the increments).
class InstanceSampler {
 public:
  void Sample(slacker::Cluster* cluster, const std::vector<TenantSlot>& t);
  /// Forget the increments so far; the next Sample() sets baselines.
  void Rebase(slacker::Cluster* cluster, const std::vector<TenantSlot>& t);
  uint64_t ops() const { return ops_; }
  uint64_t bp_hits() const { return hits_; }
  uint64_t bp_misses() const { return misses_; }

 private:
  struct Last {
    const slacker::engine::TenantDb* db = nullptr;
    uint64_t ops = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
  };
  std::map<std::pair<uint64_t, uint64_t>, Last> last_;
  uint64_t ops_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

class WorkloadRun {
 public:
  /// `spans` is null in untraced (end-to-end) runs.
  WorkloadRun(WorkloadParams params, uint64_t seed, SpanRecorder* spans);
  WorkloadRun(const WorkloadRun&) = delete;
  WorkloadRun& operator=(const WorkloadRun&) = delete;

  void Setup();
  void Timed();
  /// Stops the clients, lets queued work drain, runs the correctness
  /// checks and computes the output digest.
  void Finish();

  const WorkloadParams& params() const { return params_; }
  slacker::Cluster* cluster() { return cluster_.get(); }
  const std::vector<TenantSlot>& tenants() const { return tenants_; }
  const std::vector<std::unique_ptr<MoveState>>& moves() const {
    return moves_;
  }
  const InstanceSampler& sampler() const { return sampler_; }

  // --- Host time -------------------------------------------------
  double setup_s() const { return setup_s_; }
  double timed_wall_s() const { return timed_wall_s_; }
  double timed_cpu_s() const { return timed_cpu_s_; }
  // --- Simulated outcomes ----------------------------------------
  /// Wall time of each RunUntil slice of the timed phase. Slices end
  /// at fixed simulated times, so slice i is the same work in every
  /// repetition of one workload and seed.
  const std::vector<int64_t>& slice_ns() const { return slice_ns_; }
  SimTime sim_seconds() const { return t1_ - t0_; }
  uint64_t events() const { return events_; }
  /// Latencies (ms) of transactions completed in the timed phase.
  const std::vector<double>& window_latencies() const { return window_; }
  slacker::workload::ClientPoolStats pool_totals() const;
  uint64_t auditor_checks() const { return auditor_checks_; }
  double disk_util() const { return disk_util_; }
  double disk_wait_ms_mean() const { return disk_wait_ms_; }
  double cpu_util() const { return cpu_util_; }
  /// Failed correctness checks (empty when the run is correct).
  const std::vector<std::string>& failures() const { return failures_; }
  uint64_t digest() const { return digest_; }

 private:
  void AddTenant(int index);
  size_t RunTo(SimTime until);
  void LaunchReadyMoves();
  void StartMove(MoveState* move);
  bool AllMovesDone() const;
  void Check(bool ok, const std::string& what);
  /// The server holding the tenant's authoritative instance (the one
  /// clients resolve to), or kNoOwner.
  uint64_t OwnerOf(uint64_t tenant);
  static constexpr uint64_t kNoOwner = ~0ULL;

  WorkloadParams params_;
  uint64_t seed_;
  SpanRecorder* spans_;
  slacker::sim::Simulator sim_;
  std::unique_ptr<slacker::Cluster> cluster_;
  // Declared after cluster_ so that clients and migrators, which hold
  // pointers into it, are destroyed first.
  std::vector<TenantSlot> tenants_;
  std::vector<std::unique_ptr<MoveState>> moves_;
  /// Per chain, index of the move running or next to run.
  std::vector<size_t> chain_pos_;
  /// moves_ index of each chain's moves.
  std::vector<std::vector<size_t>> chain_moves_;
  InstanceSampler sampler_;

  double setup_s_ = 0.0;
  double timed_wall_s_ = 0.0;
  double timed_cpu_s_ = 0.0;
  SimTime t0_ = 0.0;
  SimTime t1_ = 0.0;
  uint64_t events_ = 0;
  uint64_t auditor_at_start_ = 0;
  uint64_t auditor_checks_ = 0;
  double disk_util_ = 0.0;
  double disk_wait_ms_ = 0.0;
  double cpu_util_ = 0.0;
  std::vector<int64_t> slice_ns_;
  std::vector<double> window_;
  std::vector<std::string> failures_;
  uint64_t digest_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SCENARIOS_H_
