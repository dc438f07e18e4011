#include "scenarios.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/common/units.h"

namespace perfbench {

using slacker::kKiB;
using slacker::kMiB;

namespace {

/// The paper's testbed hardware (bench/harness.cc PaperClusterOptions):
/// 8 ms seek, 50 MB/s disk, quad-core CPU, gigabit links.
slacker::ClusterOptions PaperHardware(int servers) {
  slacker::ClusterOptions options;
  options.num_servers = servers;
  options.disk.seek_time = 0.008;
  options.disk.transfer_bytes_per_sec = 50.0 * static_cast<double>(kMiB);
  options.cpu.cores = 4;
  options.link.bandwidth_bytes_per_sec = 125.0 * static_cast<double>(kMiB);
  return options;
}

/// 64-bit FNV-1a over words; the benchmark's own digest, independent
/// of the program's hashing helpers.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void AddDouble(double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    Add(bits);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

void AddReport(Digest* d, const slacker::MigrationReport& r) {
  d->Add(static_cast<uint64_t>(r.status.code()));
  d->Add(r.tenant_id);
  d->Add(r.source_server);
  d->Add(r.target_server);
  d->AddDouble(r.start_time);
  d->AddDouble(r.end_time);
  d->AddDouble(r.downtime_ms);
  d->Add(r.snapshot_bytes);
  d->Add(r.delta_bytes);
  d->Add(r.snapshot_wire_bytes);
  d->Add(r.delta_wire_bytes);
  d->Add(r.chunks_raw);
  d->Add(r.chunks_lz);
  d->Add(r.chunks_delta);
  d->Add(static_cast<uint64_t>(r.delta_rounds));
  d->Add(r.digest_match ? 1 : 0);
  d->Add(r.chunks_retransmitted);
}

}  // namespace

bool MakeParams(const std::string& name, WorkloadParams* p) {
  if (name == "fleet_read_cached") {
    // 16 servers x 8 tenants of 16 Ki 1 KiB rows, every buffer pool
    // holding its whole tenant; paper 10-op 85/15 transactions, Poisson
    // 2 ms per tenant (64k txn/s fleet-wide, simulated CPUs ~half busy).
    p->cluster = PaperHardware(16);
    p->tenants = 128;
    p->rows_per_tenant = 16 * 1024;
    p->buffer_pool_bytes = p->rows_per_tenant * kKiB;
    p->cpu_per_op = 0.00005;
    p->ycsb.ops_per_txn = 10;
    p->ycsb.mix.read = 0.85;
    p->ycsb.mix.update = 0.15;
    p->ycsb.mean_interarrival = 0.002;
    p->tail_percentile = 99.0;
    p->warmup = 0.5;
    p->min_timed = 1.5;
    p->max_timed = 30.0;
    p->slice = 0.05;
    // Sixteen raw-codec whole-tenant moves, one out of and one into
    // every server, so every end-to-end migration metric is defined on
    // this workload too (sixteen handovers keep their median steady
    // across seeds); they ship 256 MiB of a 2 GiB fleet and leave the
    // codec idle.
    for (uint64_t server = 0; server < 16; server += 2) {
      // Server s hosts tenants s + 1, s + 17, ...; swap one tenant
      // each way between servers s and s + 1.
      p->chains.push_back({MovePlan{server + 1, server + 1, false}});
      p->chains.push_back({MovePlan{server + 2, server, false}});
    }
    p->migration.throttle = slacker::ThrottleKind::kFixed;
    p->migration.fixed_rate_mbps = 20.0;
    p->migration.prepare.base_seconds = 0.2;
    return true;
  }
  if (name == "fleet_write_migrate") {
    // Fig. 18's shape: single-op update transactions routed by key, in
    // the non-converging delta regime (targets apply deltas at twice a
    // tenant's write rate). Two tenants of server 0 move whole to
    // server 1, one after another, while two of server 2 move to
    // server 3 as 8-range fluid jobs; every further pair of servers
    // repeats this, so both paths give eight samples per run.
    p->cluster = PaperHardware(16);
    p->tenants = 128;
    p->rows_per_tenant = 2 * 1024;
    p->buffer_pool_bytes = p->rows_per_tenant * kKiB;
    p->cpu_per_op = 0.00005;
    p->ycsb.ops_per_txn = 1;
    p->ycsb.mix.read = 0.0;
    p->ycsb.mix.update = 1.0;
    p->ycsb.mean_interarrival = 0.002;
    // Migration disturbs well under 1% of the transactions; p99.9 is
    // where it shows (over a thousand samples lie beyond it).
    p->tail_percentile = 99.9;
    p->route_by_key = true;
    p->warmup = 0.5;
    p->min_timed = 0.0;
    p->max_timed = 120.0;
    p->slice = 0.05;
    for (uint64_t source = 0; source < 16; source += 2) {
      std::vector<MovePlan> chain;
      // Server s hosts tenants s + 1, s + 17, s + 33, ...
      for (uint64_t k = 0; k < 2; ++k) {
        chain.push_back(MovePlan{source + 1 + 16 * k, source + 1,
                                 source % 4 == 2});
      }
      p->chains.push_back(chain);
    }
    p->migration.throttle = slacker::ThrottleKind::kFixed;
    p->migration.fixed_rate_mbps = 2.0;
    p->migration.delta_apply_seconds_per_mib = 1.0;
    p->migration.max_delta_rounds = 3;
    p->migration.prepare.base_seconds = 0.2;
    // The slow delta apply is a target-side setting.
    p->cluster.incoming_migration = p->migration;
    p->fluid_ranges = 8;
    return true;
  }
  if (name == "paper_migrate_lz") {
    // The paper's Sec. 5 testbed -- a 1 GiB tenant against a 128 MiB
    // buffer pool -- split into 16 independent source/target server
    // pairs: each source holds one tenant of 64 Ki 1 KiB rows against
    // an 8 MiB pool (data 8x the modelled cache, as in the paper),
    // serves paper-rate 10-op transactions and live-migrates the tenant
    // under the PID throttle with the adaptive codec at the
    // network-bound 12 MB/s ceiling. The pairs share nothing, so each
    // simulated result aggregates 16 independent migrations.
    constexpr int kPairs = 16;
    p->cluster = PaperHardware(2 * kPairs);
    p->tenants = kPairs;
    p->tenant_stride = 2;
    p->rows_per_tenant = 64 * 1024;
    p->buffer_pool_bytes = p->rows_per_tenant * kKiB / 8;
    p->cpu_per_op = 0.0003;
    p->ycsb.ops_per_txn = 10;
    p->ycsb.mix.read = 0.85;
    p->ycsb.mix.update = 0.15;
    p->ycsb.mean_interarrival = 0.25;
    p->tail_percentile = 95.0;
    p->warmup = 30.0;
    p->min_timed = 10.0;
    p->max_timed = 600.0;
    p->slice = 0.1;
    for (uint64_t pair = 0; pair < kPairs; ++pair) {
      p->chains.push_back({MovePlan{pair + 1, 2 * pair + 1, false}});
    }
    slacker::MigrationOptions& m = p->migration;
    m.backup.chunk_bytes = 256 * kKiB;
    m.prepare.base_seconds = 0.5;
    m.controller_tick = 1.0;
    m.pid.kp = 0.025;
    m.pid.ki = 0.005;
    m.pid.kd = 0.015;
    m.pid.output_min = 0.0;
    m.pid.output_max = 12.0;
    m.pid.setpoint = 1000.0;
    m.codec.mode = slacker::codec::CodecMode::kAdaptive;
    return true;
  }
  return false;
}

// ------------------------------------------------------------------

void InstanceSampler::Sample(slacker::Cluster* cluster,
                             const std::vector<TenantSlot>& tenants) {
  for (const TenantSlot& t : tenants) {
    for (uint64_t server = 0; server < cluster->num_servers(); ++server) {
      slacker::engine::TenantDb* db = cluster->TenantOn(server, t.id);
      if (db == nullptr) continue;
      Last& last = last_[{t.id, server}];
      if (last.db != db) last = Last{db, 0, 0, 0};
      const slacker::storage::BufferPool* pool = db->buffer_pool();
      const uint64_t ops = db->ops_executed();
      const uint64_t hits = pool->hits();
      const uint64_t misses = pool->misses();
      ops_ += ops - std::min(ops, last.ops);
      hits_ += hits - std::min(hits, last.hits);
      misses_ += misses - std::min(misses, last.misses);
      last.ops = ops;
      last.hits = hits;
      last.misses = misses;
    }
  }
}

void InstanceSampler::Rebase(slacker::Cluster* cluster,
                             const std::vector<TenantSlot>& tenants) {
  Sample(cluster, tenants);
  ops_ = hits_ = misses_ = 0;
}

// ------------------------------------------------------------------

WorkloadRun::WorkloadRun(WorkloadParams params, uint64_t seed,
                         SpanRecorder* spans)
    : params_(std::move(params)), seed_(seed), spans_(spans) {}

void WorkloadRun::AddTenant(int index) {
  TenantSlot slot;
  slot.id = static_cast<uint64_t>(index) + 1;
  slot.home = static_cast<uint64_t>(index) * params_.tenant_stride %
              params_.cluster.num_servers;
  slacker::engine::TenantConfig config;
  config.tenant_id = slot.id;
  config.layout.record_count = params_.rows_per_tenant;
  config.buffer_pool_bytes = params_.buffer_pool_bytes;
  config.cpu_per_op = params_.cpu_per_op;
  config.commit_latency = 0.0005;
  slacker::engine::TenantDb* db = nullptr;
  {
    ScopedSpan span(spans_, "setup.AddTenant");
    auto added = cluster_->AddTenant(slot.home, config);
    Check(added.ok(), "AddTenant " + std::to_string(slot.id));
    if (!added.ok()) return;
    db = *added;
  }
  {
    ScopedSpan span(spans_, "setup.WarmBufferPool");
    db->WarmBufferPool();
  }
  slot.ycsb = params_.ycsb;
  slot.ycsb.record_count = params_.rows_per_tenant;
  slot.seed = seed_ * 1000003ULL + slot.id * 1000;
  slot.workload = std::make_unique<slacker::workload::YcsbWorkload>(
      slot.ycsb, slot.id, slot.seed);
  slot.pool = std::make_unique<slacker::workload::ClientPool>(
      &sim_, slot.workload.get(), cluster_.get(),
      cluster_->MakeLatencyObserver());
  slot.pool->set_route_by_key(params_.route_by_key);
  cluster_->AttachClientPool(slot.id, slot.pool.get());
  tenants_.push_back(std::move(slot));
}

void WorkloadRun::Setup() {
  const int64_t start = WallNs();
  {
    ScopedSpan span(spans_, "setup");
    cluster_ = std::make_unique<slacker::Cluster>(&sim_, params_.cluster);
    for (int i = 0; i < params_.tenants; ++i) AddTenant(i);
    {
      ScopedSpan start_span(spans_, "setup.ClientPool::Start");
      for (TenantSlot& t : tenants_) t.pool->Start();
    }
    ScopedSpan warm(spans_, "setup.warmup");
    sim_.RunUntil(params_.warmup);
  }
  setup_s_ = static_cast<double>(WallNs() - start) * 1e-9;

  for (const std::vector<MovePlan>& chain : params_.chains) {
    chain_moves_.emplace_back();
    for (const MovePlan& plan : chain) {
      auto move = std::make_unique<MoveState>();
      move->plan = plan;
      chain_moves_.back().push_back(moves_.size());
      moves_.push_back(std::move(move));
    }
    chain_pos_.push_back(0);
  }
}

size_t WorkloadRun::RunTo(SimTime until) {
  ScopedSpan span(spans_, "sim.RunUntil");
  return sim_.RunUntil(until);
}

void WorkloadRun::StartMove(MoveState* move) {
  move->started = true;
  move->start = sim_.Now();
  const MovePlan& plan = move->plan;
  slacker::Status started;
  if (plan.fluid) {
    ScopedSpan span(spans_, "slacker.FluidMigrator::Start");
    slacker::FluidMigrationOptions options;
    options.target_ranges = params_.fluid_ranges;
    options.migration = params_.migration;
    move->fluid = std::make_unique<slacker::FluidMigrator>(
        cluster_.get(), plan.tenant, plan.target, options,
        [this, move](const slacker::FluidMigrationReport& r) {
          move->done = true;
          move->status = r.status;
          move->end = sim_.Now();
          move->handovers = r.ranges;
        });
    started = move->fluid->Start();
  } else {
    ScopedSpan span(spans_, "slacker.StartMigration");
    started = cluster_->StartMigration(
        plan.tenant, plan.target, params_.migration,
        [this, move](const slacker::MigrationReport& r) {
          move->done = true;
          move->status = r.status;
          move->end = sim_.Now();
          move->handovers = {r};
        });
  }
  if (!started.ok()) {
    move->done = true;
    move->status = started;
    move->end = sim_.Now();
  }
}

void WorkloadRun::LaunchReadyMoves() {
  for (size_t c = 0; c < chain_moves_.size(); ++c) {
    while (chain_pos_[c] < chain_moves_[c].size()) {
      MoveState* move = moves_[chain_moves_[c][chain_pos_[c]]].get();
      if (!move->started) StartMove(move);
      if (!move->done) break;
      ++chain_pos_[c];
    }
  }
}

bool WorkloadRun::AllMovesDone() const {
  for (const auto& move : moves_) {
    if (!move->done) return false;
  }
  return true;
}

void WorkloadRun::Timed() {
  t0_ = sim_.Now();
  for (TenantSlot& t : tenants_) {
    t.txns_at_start = t.workload->txns_generated();
  }
  for (size_t s = 0; s < cluster_->num_servers(); ++s) {
    cluster_->server(s)->disk()->ResetStats();
    cluster_->server(s)->cpu()->ResetStats();
  }
  auditor_at_start_ = cluster_->auditor()->checks_passed();
  if (spans_ != nullptr) sampler_.Rebase(cluster_.get(), tenants_);

  const int64_t wall0 = WallNs();
  const int64_t cpu0 = CpuNs();
  {
    ScopedSpan span(spans_, "timed");
    while (true) {
      LaunchReadyMoves();
      const SimTime now = sim_.Now();
      if (AllMovesDone() && now >= t0_ + params_.min_timed) {
        break;
      }
      if (now >= t0_ + params_.max_timed) {
        Check(false, "timed phase did not finish within " +
                         std::to_string(params_.max_timed) + " s simulated");
        break;
      }
      const int64_t slice_start = WallNs();
      events_ += RunTo(now + params_.slice);
      slice_ns_.push_back(WallNs() - slice_start);
      if (spans_ != nullptr) {
        ScopedSpan sample(spans_, "bench.sample_counters");
        sampler_.Sample(cluster_.get(), tenants_);
      }
    }
  }
  timed_wall_s_ = static_cast<double>(WallNs() - wall0) * 1e-9;
  timed_cpu_s_ = static_cast<double>(CpuNs() - cpu0) * 1e-9;
  t1_ = sim_.Now();

  for (TenantSlot& t : tenants_) {
    t.txns_at_end = t.workload->txns_generated();
    for (const auto& p : t.pool->latency_series().points()) {
      if (p.t > t0_ && p.t <= t1_) window_.push_back(p.value);
    }
  }
  std::sort(window_.begin(), window_.end());
  auditor_checks_ = cluster_->auditor()->checks_passed() - auditor_at_start_;
  double disk = 0.0, wait = 0.0, cpu = 0.0;
  for (size_t s = 0; s < cluster_->num_servers(); ++s) {
    disk += cluster_->server(s)->disk()->Utilization();
    wait += cluster_->server(s)->disk()->wait_stats().mean();
    cpu += cluster_->server(s)->cpu()->Utilization();
  }
  const double n = static_cast<double>(cluster_->num_servers());
  disk_util_ = disk / n;
  disk_wait_ms_ = wait / n * 1000.0;
  cpu_util_ = cpu / n;
}

slacker::workload::ClientPoolStats WorkloadRun::pool_totals() const {
  slacker::workload::ClientPoolStats total;
  for (const TenantSlot& t : tenants_) {
    const auto& s = t.pool->stats();
    total.arrivals += s.arrivals;
    total.completed += s.completed;
    total.failed += s.failed;
    total.retries += s.retries;
    total.max_queue_depth = std::max(total.max_queue_depth, s.max_queue_depth);
  }
  return total;
}

uint64_t WorkloadRun::OwnerOf(uint64_t tenant) {
  const slacker::engine::TenantDb* db = cluster_->Resolve(tenant);
  for (uint64_t server = 0; db != nullptr && server < cluster_->num_servers();
       ++server) {
    if (cluster_->TenantOn(server, tenant) == db) return server;
  }
  return kNoOwner;
}

void WorkloadRun::Check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

void WorkloadRun::Finish() {
  for (TenantSlot& t : tenants_) t.pool->Stop();
  const SimTime drain_deadline = sim_.Now() + 120.0;
  auto quiet = [&] {
    for (const TenantSlot& t : tenants_) {
      if (t.pool->queue_depth() != 0 || t.pool->busy_clients() != 0) {
        return false;
      }
    }
    return true;
  };
  while (!quiet() && sim_.Now() < drain_deadline) {
    sim_.RunUntil(sim_.Now() + 0.5);
  }
  Check(quiet(), "clients did not drain");

  Digest d;
  slacker::range::RangeDirectory* ranges = cluster_->range_directory();
  for (const TenantSlot& t : tenants_) {
    d.Add(t.id);
    Check(ranges->ValidateCoverage(t.id).ok(),
          "range coverage invalid for tenant " + std::to_string(t.id));
    Check(!ranges->IsSharded(t.id),
          "tenant " + std::to_string(t.id) + " left sharded");
    const uint64_t owner = OwnerOf(t.id);
    Check(owner != kNoOwner,
          "tenant " + std::to_string(t.id) + " has no owner");
    d.Add(owner);
    if (owner != kNoOwner) d.Add(cluster_->Resolve(t.id)->StateDigest());
    const auto& s = t.pool->stats();
    d.Add(s.arrivals);
    d.Add(s.completed);
    d.Add(s.failed);
    d.Add(s.retries);
    d.Add(s.max_queue_depth);
  }
  for (const auto& move : moves_) {
    const MovePlan& plan = move->plan;
    const std::string who = "move of tenant " + std::to_string(plan.tenant);
    Check(move->done && move->status.ok(),
          who + " failed: " + move->status.ToString());
    Check(!move->handovers.empty(), who + " reported no handover");
    for (const slacker::MigrationReport& r : move->handovers) {
      Check(r.status.ok() && r.digest_match,
            who + ": target digest differs from source");
      AddReport(&d, r);
    }
    Check(OwnerOf(plan.tenant) == plan.target,
          who + " did not land on server " + std::to_string(plan.target));
    d.Add(plan.fluid ? 1 : 0);
    d.AddDouble(move->start);
    d.AddDouble(move->end);
  }
  if (!moves_.empty()) {
    Check(auditor_checks_ > 0, "invariant auditor checks did not advance");
  }
  Check(window_.size() >= 200,
        "only " + std::to_string(window_.size()) +
            " transactions completed in the timed phase (need 200)");
  d.Add(window_.size());
  for (double ms : window_) d.AddDouble(ms);
  digest_ = d.value();
}

}  // namespace perfbench
