#ifndef SLACKER_RANGE_RANGE_DIRECTORY_H_
#define SLACKER_RANGE_RANGE_DIRECTORY_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/common/status.h"
#include "src/range/key_range.h"

namespace slacker::range {

/// A range with its owning server — one row of the router's table.
struct OwnedRange {
  KeyRange range;
  uint64_t server = 0;

  bool operator==(const OwnedRange& other) const = default;
};

/// Where one key of a tenant is served: the owning server, and whether
/// the tenant is sharded (its ranges live on more than one server).
struct KeyRoute {
  uint64_t server = 0;
  bool sharded = false;
};

/// The frontend router (§2.2, DESIGN.md §16): for each tenant, an
/// ordered map from range start key to (end, owning server), plus the
/// tenant's *home* server. The ranges of a tenant always partition
/// [0, kNoUpperBound), so OwnerOf is a total function over registered
/// tenants — a tenant may span several servers both mid-migration and
/// at rest (a split tenant).
///
/// The home is the per-tenant answer for consumers that think in whole
/// tenants (Resolve, monitors, the fleet sampler, crash salvage). It is
/// always one of the tenant's owners: RegisterTenant sets it, and
/// MoveRange hands it to the moved range's new owner when the old home
/// is left owning nothing. For an unsharded tenant the home owns every
/// key.
class RangeDirectory {
 public:
  /// Registers `tenant_id` with a single full-keyspace range owned by
  /// `server_id` (every tenant starts whole). AlreadyExists if present.
  Status RegisterTenant(uint64_t tenant_id, uint64_t server_id);
  /// Drops the tenant's whole range table (tenant deletion).
  Status RemoveTenant(uint64_t tenant_id);
  bool HasTenant(uint64_t tenant_id) const;

  /// The tenant's home server, or NotFound for unknown tenants.
  Result<uint64_t> HomeOf(uint64_t tenant_id) const;
  /// Tenants whose home is `server_id`, in ascending id order.
  std::vector<uint64_t> TenantsHomedOn(uint64_t server_id) const;

  /// The server owning `key`, or NotFound for unknown tenants.
  Result<uint64_t> OwnerOf(uint64_t tenant_id, uint64_t key) const;
  /// The range containing `key`, or NotFound for unknown tenants.
  Result<OwnedRange> RangeContaining(uint64_t tenant_id, uint64_t key) const;
  /// Per-key routing in one tenant lookup: the owner of `key` and
  /// whether the tenant is sharded (an unsharded tenant's owner is its
  /// home), or NotFound for unknown tenants.
  Result<KeyRoute> RouteKey(uint64_t tenant_id, uint64_t key) const;

  /// Splits the range containing `split_key` into [lo, split_key) and
  /// [split_key, hi), both keeping the owner. InvalidArgument when
  /// split_key is 0, kNoUpperBound, or already a range boundary.
  Status Split(uint64_t tenant_id, uint64_t split_key);

  /// Reassigns an *exact* existing range to `server_id` (the range
  /// handover's directory flip). NotFound unless `exact` matches a
  /// current range boundary-for-boundary — callers split first, then
  /// move; a sloppy move could silently orphan a sliver of keyspace.
  /// When the old home owns no range afterwards, `server_id` becomes
  /// the home.
  Status MoveRange(uint64_t tenant_id, const KeyRange& exact,
                   uint64_t server_id);

  /// Merges the range containing `key` with its successor when both
  /// have the same owner (post-migration tidying keeps the table
  /// small). FailedPrecondition when owners differ or no successor.
  Status MergeAt(uint64_t tenant_id, uint64_t key);

  /// The tenant's ranges in key order (empty for unknown tenants).
  std::vector<OwnedRange> RangesOf(uint64_t tenant_id) const;
  /// Distinct owning servers, ascending (empty for unknown tenants).
  std::vector<uint64_t> ServersOf(uint64_t tenant_id) const;
  /// True when the tenant's ranges live on more than one server.
  bool IsSharded(uint64_t tenant_id) const;
  size_t RangeCount(uint64_t tenant_id) const;

  /// Structural invariant: the tenant's ranges are contiguous,
  /// non-overlapping, and cover [0, kNoUpperBound) exactly, and the
  /// home owns one of them. Internal when violated (a routing table
  /// with a hole loses queries).
  Status ValidateCoverage(uint64_t tenant_id) const;

  /// Monotone counter bumped by every mutation (tests assert churn).
  uint64_t version() const { return version_; }

 private:
  struct Entry {
    uint64_t hi = kNoUpperBound;
    uint64_t server = 0;
  };
  struct Tenant {
    uint64_t home = 0;
    /// range lo -> entry.
    std::map<uint64_t, Entry> ranges;
  };
  static bool OwnsAny(const Tenant& tenant, uint64_t server_id);
  /// True when a range is owned off the home.
  static bool Sharded(const Tenant& tenant);
  /// std::map iteration order is the key order, which keeps every
  /// listing deterministic.
  std::map<uint64_t, Tenant> tenants_;
  uint64_t version_ = 0;
};

}  // namespace slacker::range

#endif  // SLACKER_RANGE_RANGE_DIRECTORY_H_
