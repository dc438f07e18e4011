// Simulator hot-path throughput: drives a fig14-scale synthetic event
// mix (128 servers x 10 clients, arrival/completion/timeout churn,
// 1 Hz per-server ticks, plus periodic per-server range-handover
// events mirroring the fluid-migration subsystem) directly against
// both event-queue implementations — the timer-wheel EventQueue and
// the binary-heap baseline it replaced — and reports events/sec and
// the wheel/heap speedup. The workload's timeout events are scheduled
// 30 s out and cancelled at completion, so the heap accumulates tens
// of thousands of tombstones (its known pathology) while the wheel
// recycles nodes immediately; this is the mix the wheel was built
// for, measured, not assumed.
//
// Transaction state is flat (ROADMAP item 2's remaining headroom):
// every in-flight transaction occupies one slot in a contiguous slab
// threaded through per-server free lists, and its key range comes
// from a pregenerated contiguous variate array. Event closures carry
// only two 32-bit indices — small enough for both queues' inline
// callback buffers — so the timed loop measures the queues, not
// closure allocation.
//
// Every executed event folds into an order-sensitive FNV-1a digest; the
// two implementations must produce the *same* digest (same events, same
// order, same RNG draws) or the run fails — a throughput number from a
// queue that reorders events would be meaningless.
//
// Flags:
//   --smoke          16 servers / 60 s horizon (CI-sized; no speedup gate)
//   --servers <n>    override server count
//   --horizon <s>    override simulated horizon
//   --seed <n>       workload seed (default 42)
//   --json <path>    write the measurement record (see DESIGN.md §15)
//   --digest <path>  write the 16-hex-digit trace digest (CI double-runs
//                    the bench and compares the two files byte-for-byte)
//
// Exit status: nonzero on digest mismatch, and — in full mode — when
// the wheel's speedup over the heap falls below 10x (the PR's
// acceptance floor; see BENCH_simspeed.json for the trajectory).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/sim/event_queue.h"
#include "testing/binary_heap_queue.h"

namespace slacker::sim {
namespace {

struct Config {
  bool smoke = false;
  int servers = 128;
  int clients_per_server = 10;
  double horizon = 600.0;
  uint64_t seed = 42;
  std::string json_path;
  std::string digest_path;
  double mean_interarrival = 0.25;
  double mean_service = 0.02;
  double slow_service_mean = 8.0;   // 1-in-100 txns; outlives the timeout.
  double timeout = 30.0;
  int ranges_per_server = 8;        // Fluid-migration units per server.
  double range_handover_period = 2.5;
};

// Wall clock for throughput only — simulated time never touches this.
double NowWallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now()  // NOLINT(slacker-wallclock): measuring host wall time is this bench's purpose.
                 .time_since_epoch())
      .count();
}

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

// Word-at-a-time FNV-1a variant: order-sensitive and cheap enough
// (one xor-multiply per word) that the digest does not dilute the
// queue cost being measured.
inline uint64_t FnvFold(uint64_t h, uint64_t v) {
  return (h ^ v) * kFnvPrime;
}

inline uint64_t DoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));  // NOLINT(slacker-wire-decode): digest folding, no wire data involved.
  return bits;
}

enum EventKind : uint64_t {
  kArrival = 1,
  kCompletion = 2,
  kTimeout = 3,
  kTick = 4,
  kRangeHandover = 5,
};

/// Pre-drawn workload variates, generated once *outside* the timed
/// region and consumed in event order (wrapping) by both drivers. The
/// exponential draws cost a log() each; leaving them inside the timed
/// loop adds an identical constant to both queues' per-event cost and
/// compresses the measured ratio — this bench measures the queue, not
/// the RNG.
struct VariateTable {
  VariateTable(const Config& cfg, size_t entries) : interarrival(entries) {
    Rng rng(cfg.seed);
    service.resize(entries);
    range.resize(entries);
    for (size_t i = 0; i < entries; ++i) {
      interarrival[i] = rng.Exponential(cfg.mean_interarrival);
      const bool slow = rng.NextBelow(100) == 0;
      service[i] = rng.Exponential(slow ? cfg.slow_service_mean
                                        : cfg.mean_service);
      // Per-range key variate: which migration unit the transaction's
      // key falls in (and which unit a handover event freezes).
      range[i] = static_cast<uint32_t>(
          rng.NextBelow(static_cast<uint64_t>(cfg.ranges_per_server)));
    }
  }
  std::vector<double> interarrival;
  std::vector<double> service;
  std::vector<uint32_t> range;
};

constexpr uint32_t kNoSlot = UINT32_MAX;

/// One in-flight transaction. Slots live in a single contiguous slab
/// (flat per-server state) and are recycled through per-server free
/// lists; closures reference them by index, never by pointer — the
/// slab may grow.
struct TxnSlot {
  uint64_t timeout_id = 0;
  uint32_t range = 0;
  uint32_t next_free = kNoSlot;
};

/// Drives the synthetic workload against one queue implementation.
/// Templated so the exact same code path (and variate sequence) runs
/// over both queues; only Schedule/Cancel/RunNext dispatch differs.
template <typename Queue>
struct Driver {
  Driver(const Config& cfg, const VariateTable& variates)
      : cfg_(cfg), variates_(variates) {}

  void Seed() {
    const int n = cfg_.servers * cfg_.clients_per_server;
    free_heads_.assign(static_cast<size_t>(cfg_.servers), kNoSlot);
    slots_.reserve(static_cast<size_t>(n));
    for (int c = 0; c < n; ++c) {
      ScheduleArrival(c, NextInterarrival());
    }
    for (int s = 0; s < cfg_.servers; ++s) {
      ScheduleTick(s, 1.0);
      ScheduleRangeHandover(s, cfg_.range_handover_period);
    }
  }

  double NextInterarrival() {
    return variates_.interarrival[ia_cursor_++ %
                                  variates_.interarrival.size()];
  }

  double NextService() {
    return variates_.service[svc_cursor_++ % variates_.service.size()];
  }

  uint32_t NextRange() {
    return variates_.range[range_cursor_++ % variates_.range.size()];
  }

  /// Pops a slot off the client's server free list, growing the shared
  /// slab when the list is dry. Event order is identical across queue
  /// implementations, so the alloc/free sequence — and therefore every
  /// slot's contents at fold time — is too.
  uint32_t AllocSlot(int server) {
    uint32_t& head = free_heads_[static_cast<size_t>(server)];
    if (head != kNoSlot) {
      const uint32_t slot = head;
      head = slots_[slot].next_free;
      return slot;
    }
    slots_.emplace_back();
    return static_cast<uint32_t>(slots_.size() - 1);
  }

  void FreeSlot(int server, uint32_t slot) {
    uint32_t& head = free_heads_[static_cast<size_t>(server)];
    slots_[slot].next_free = head;
    head = slot;
  }

  int ServerOf(int client) const { return client / cfg_.clients_per_server; }

  void Run() {
    while (!queue_.empty()) {
      const double t = queue_.NextTime();
      if (t > cfg_.horizon) break;
      now_ = t;
      queue_.RunNext();
      ++executed_;
    }
  }

  void ScheduleArrival(int client, double delay) {
    queue_.Schedule(now_ + delay, [this, client] { OnArrival(client); });
  }

  void ScheduleTick(int server, double delay) {
    queue_.Schedule(now_ + delay, [this, server] { OnTick(server); });
  }

  void ScheduleRangeHandover(int server, double delay) {
    queue_.Schedule(now_ + delay, [this, server] { OnRangeHandover(server); });
  }

  void OnArrival(int client) {
    const uint32_t range = NextRange();
    digest_ = FnvFold(digest_, kArrival);
    digest_ = FnvFold(digest_, static_cast<uint64_t>(client));
    digest_ = FnvFold(digest_, range);
    digest_ = FnvFold(digest_, DoubleBits(now_));
    // The variate table makes ~1% of transactions pathologically slow,
    // outliving their timeout — so some timeouts actually fire and some
    // completion-time cancels miss, exercising both sides of Cancel in
    // both queues.
    const double service = NextService();
    const uint32_t slot = AllocSlot(ServerOf(client));
    slots_[slot].range = range;
    slots_[slot].timeout_id = queue_.Schedule(
        now_ + cfg_.timeout, [this, client, slot] { OnTimeout(client, slot); });
    queue_.Schedule(now_ + service, [this, client, slot] {
      OnCompletion(client, slot);
    });
    ScheduleArrival(client, NextInterarrival());
  }

  void OnCompletion(int client, uint32_t slot) {
    const bool cancelled = queue_.Cancel(slots_[slot].timeout_id);
    digest_ = FnvFold(digest_, kCompletion);
    digest_ = FnvFold(digest_, static_cast<uint64_t>(client));
    digest_ = FnvFold(digest_, cancelled ? 1 : 0);
    digest_ = FnvFold(digest_, slots_[slot].range);
    digest_ = FnvFold(digest_, DoubleBits(now_));
    FreeSlot(ServerOf(client), slot);
  }

  // The slot is still live here: only completion frees it, and the
  // completion event is never cancelled — a fired timeout just means
  // the transaction outlived its deadline.
  void OnTimeout(int client, uint32_t slot) {
    digest_ = FnvFold(digest_, kTimeout);
    digest_ = FnvFold(digest_, static_cast<uint64_t>(client));
    digest_ = FnvFold(digest_, slots_[slot].range);
    digest_ = FnvFold(digest_, DoubleBits(now_));
  }

  void OnTick(int server) {
    digest_ = FnvFold(digest_, kTick);
    digest_ = FnvFold(digest_, static_cast<uint64_t>(server));
    digest_ = FnvFold(digest_, DoubleBits(now_));
    ScheduleTick(server, 1.0);
  }

  /// Periodic fluid-migration traffic: each server "hands over" one of
  /// its ranges, drawn from the same pregenerated variate stream the
  /// arrivals consume — exercising the digest cross-check with range
  /// events interleaved into the transaction mix.
  void OnRangeHandover(int server) {
    const uint32_t range = NextRange();
    digest_ = FnvFold(digest_, kRangeHandover);
    digest_ = FnvFold(digest_, static_cast<uint64_t>(server));
    digest_ = FnvFold(digest_, range);
    digest_ = FnvFold(digest_, DoubleBits(now_));
    ScheduleRangeHandover(server, cfg_.range_handover_period);
  }

  Config cfg_;
  const VariateTable& variates_;
  Queue queue_;
  double now_ = 0.0;
  size_t ia_cursor_ = 0;
  size_t svc_cursor_ = 0;
  size_t range_cursor_ = 0;
  std::vector<TxnSlot> slots_;
  std::vector<uint32_t> free_heads_;
  uint64_t digest_ = kFnvOffset;
  uint64_t executed_ = 0;
};

struct Measurement {
  uint64_t events = 0;
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;
  double sim_wall_ratio = 0.0;
  uint64_t digest = 0;
};

template <typename Queue>
Measurement MeasureOnce(const Config& cfg, const VariateTable& variates) {
  Driver<Queue> driver(cfg, variates);
  driver.Seed();
  const double t0 = NowWallSeconds();
  driver.Run();
  const double wall = NowWallSeconds() - t0;
  Measurement m;
  m.events = driver.executed_;
  m.wall_seconds = wall;
  m.events_per_sec =
      wall > 0.0 ? static_cast<double>(driver.executed_) / wall : 0.0;
  m.sim_wall_ratio = wall > 0.0 ? cfg.horizon / wall : 0.0;
  m.digest = driver.digest_;
  return m;
}

/// Best of two runs: the workload is deterministic, so the runs differ
/// only by host noise (scheduling, cache pollution) and the faster one
/// is the better estimate of the queue's cost.
template <typename Queue>
Measurement Measure(const Config& cfg, const VariateTable& variates) {
  const Measurement a = MeasureOnce<Queue>(cfg, variates);
  const Measurement b = MeasureOnce<Queue>(cfg, variates);
  if (a.digest != b.digest) {
    std::fprintf(stderr,
                 "FAIL: nondeterministic rep: %016llx vs %016llx\n",
                 static_cast<unsigned long long>(a.digest),
                 static_cast<unsigned long long>(b.digest));
    std::exit(1);
  }
  return a.events_per_sec >= b.events_per_sec ? a : b;
}

void WriteJson(const Config& cfg, const Measurement& wheel,
               const Measurement& heap, double speedup) {
  FILE* f = std::fopen(cfg.json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", cfg.json_path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", cfg.smoke ? "smoke" : "full");
  std::fprintf(f, "  \"servers\": %d,\n", cfg.servers);
  std::fprintf(f, "  \"clients_per_server\": %d,\n", cfg.clients_per_server);
  std::fprintf(f, "  \"horizon_s\": %.1f,\n", cfg.horizon);
  std::fprintf(f, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(cfg.seed));
  std::fprintf(f, "  \"events\": %llu,\n",
               static_cast<unsigned long long>(wheel.events));
  std::fprintf(f, "  \"digest\": \"%016llx\",\n",
               static_cast<unsigned long long>(wheel.digest));
  std::fprintf(f,
               "  \"wheel\": {\"wall_s\": %.4f, \"events_per_sec\": %.0f, "
               "\"sim_wall_ratio\": %.1f},\n",
               wheel.wall_seconds, wheel.events_per_sec,
               wheel.sim_wall_ratio);
  std::fprintf(f,
               "  \"heap\": {\"wall_s\": %.4f, \"events_per_sec\": %.0f, "
               "\"sim_wall_ratio\": %.1f},\n",
               heap.wall_seconds, heap.events_per_sec, heap.sim_wall_ratio);
  std::fprintf(f, "  \"speedup\": %.2f\n", speedup);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", cfg.json_path.c_str());
}

int Main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--smoke") {
      cfg.smoke = true;
      cfg.servers = 16;
      cfg.horizon = 60.0;
    } else if (arg == "--servers") {
      cfg.servers = std::atoi(next());
    } else if (arg == "--horizon") {
      cfg.horizon = std::atof(next());
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--json") {
      cfg.json_path = next();
    } else if (arg == "--digest") {
      cfg.digest_path = next();
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }

  std::printf("perf_simspeed: %d servers x %d clients, horizon %.0f s, "
              "seed %llu (%s)\n",
              cfg.servers, cfg.clients_per_server, cfg.horizon,
              static_cast<unsigned long long>(cfg.seed),
              cfg.smoke ? "smoke" : "full");

  // Enough variates for the expected arrival count with headroom; the
  // drivers wrap around deterministically if they run past the end.
  const double expected_arrivals = cfg.horizon * cfg.servers *
                                   cfg.clients_per_server /
                                   cfg.mean_interarrival;
  const VariateTable variates(
      cfg, static_cast<size_t>(expected_arrivals * 1.3) + 1024);

  const Measurement wheel = Measure<EventQueue>(cfg, variates);
  const Measurement heap = Measure<BinaryHeapEventQueue>(cfg, variates);

  std::printf("  wheel: %10llu events in %7.3f s  -> %12.0f events/s  "
              "(sim/wall %.0fx)\n",
              static_cast<unsigned long long>(wheel.events),
              wheel.wall_seconds, wheel.events_per_sec,
              wheel.sim_wall_ratio);
  std::printf("  heap:  %10llu events in %7.3f s  -> %12.0f events/s  "
              "(sim/wall %.0fx)\n",
              static_cast<unsigned long long>(heap.events),
              heap.wall_seconds, heap.events_per_sec, heap.sim_wall_ratio);

  if (wheel.digest != heap.digest || wheel.events != heap.events) {
    std::fprintf(stderr,
                 "FAIL: trace divergence: wheel %016llx (%llu events) vs "
                 "heap %016llx (%llu events)\n",
                 static_cast<unsigned long long>(wheel.digest),
                 static_cast<unsigned long long>(wheel.events),
                 static_cast<unsigned long long>(heap.digest),
                 static_cast<unsigned long long>(heap.events));
    return 1;
  }
  std::printf("  digest: %016llx (wheel == heap)\n",
              static_cast<unsigned long long>(wheel.digest));

  const double speedup =
      heap.events_per_sec > 0.0 ? wheel.events_per_sec / heap.events_per_sec
                                : 0.0;
  std::printf("  speedup: %.2fx\n", speedup);

  if (!cfg.digest_path.empty()) {
    FILE* f = std::fopen(cfg.digest_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", cfg.digest_path.c_str());
      return 1;
    }
    std::fprintf(f, "%016llx\n",
                 static_cast<unsigned long long>(wheel.digest));
    std::fclose(f);
  }
  if (!cfg.json_path.empty()) WriteJson(cfg, wheel, heap, speedup);

  if (!cfg.smoke && speedup < 10.0) {
    std::fprintf(stderr,
                 "FAIL: wheel speedup %.2fx is below the 10x floor\n",
                 speedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace slacker::sim

int main(int argc, char** argv) { return slacker::sim::Main(argc, argv); }
