#include "src/range/range_directory.h"

#include <algorithm>
#include <string>

namespace slacker::range {
namespace {

std::string TenantTag(uint64_t tenant_id) {
  return "tenant " + std::to_string(tenant_id);
}

}  // namespace

Status RangeDirectory::RegisterTenant(uint64_t tenant_id, uint64_t server_id) {
  auto [it, inserted] = tenants_.try_emplace(tenant_id);
  if (!inserted) {
    return Status::AlreadyExists(TenantTag(tenant_id) +
                                 " already range-registered");
  }
  it->second.home = server_id;
  it->second.ranges[0] = Entry{kNoUpperBound, server_id};
  ++version_;
  return Status::Ok();
}

Status RangeDirectory::RemoveTenant(uint64_t tenant_id) {
  if (tenants_.erase(tenant_id) == 0) {
    return Status::NotFound(TenantTag(tenant_id) + " not range-registered");
  }
  ++version_;
  return Status::Ok();
}

bool RangeDirectory::HasTenant(uint64_t tenant_id) const {
  return tenants_.count(tenant_id) != 0;
}

Result<uint64_t> RangeDirectory::HomeOf(uint64_t tenant_id) const {
  const auto tenant_it = tenants_.find(tenant_id);
  if (tenant_it == tenants_.end()) {
    return Status::NotFound(TenantTag(tenant_id) + " not range-registered");
  }
  return tenant_it->second.home;
}

std::vector<uint64_t> RangeDirectory::TenantsHomedOn(uint64_t server_id) const {
  std::vector<uint64_t> out;
  for (const auto& [tenant_id, tenant] : tenants_) {
    if (tenant.home == server_id) out.push_back(tenant_id);
  }
  return out;
}

Result<uint64_t> RangeDirectory::OwnerOf(uint64_t tenant_id,
                                         uint64_t key) const {
  Result<OwnedRange> owned = RangeContaining(tenant_id, key);
  if (!owned.ok()) return owned.status();
  return owned->server;
}

Result<OwnedRange> RangeDirectory::RangeContaining(uint64_t tenant_id,
                                                   uint64_t key) const {
  const auto tenant_it = tenants_.find(tenant_id);
  if (tenant_it == tenants_.end()) {
    return Status::NotFound(TenantTag(tenant_id) + " not range-registered");
  }
  const auto& ranges = tenant_it->second.ranges;
  // The greatest lo <= key; coverage guarantees it exists and contains
  // the key.
  auto it = ranges.upper_bound(key);
  --it;
  OwnedRange owned;
  owned.range = KeyRange{it->first, it->second.hi};
  owned.server = it->second.server;
  return owned;
}

Result<KeyRoute> RangeDirectory::RouteKey(uint64_t tenant_id,
                                          uint64_t key) const {
  const auto tenant_it = tenants_.find(tenant_id);
  if (tenant_it == tenants_.end()) {
    return Status::NotFound(TenantTag(tenant_id) + " not range-registered");
  }
  const Tenant& tenant = tenant_it->second;
  KeyRoute route;
  route.server = tenant.home;
  route.sharded = Sharded(tenant);
  if (route.sharded) {
    auto it = tenant.ranges.upper_bound(key);
    --it;
    route.server = it->second.server;
  }
  return route;
}

Status RangeDirectory::Split(uint64_t tenant_id, uint64_t split_key) {
  const auto tenant_it = tenants_.find(tenant_id);
  if (tenant_it == tenants_.end()) {
    return Status::NotFound(TenantTag(tenant_id) + " not range-registered");
  }
  if (split_key == 0 || split_key == kNoUpperBound) {
    return Status::InvalidArgument("split key must be interior");
  }
  auto& ranges = tenant_it->second.ranges;
  if (ranges.count(split_key) != 0) {
    return Status::InvalidArgument("split key " + std::to_string(split_key) +
                                   " is already a range boundary");
  }
  auto it = ranges.upper_bound(split_key);
  --it;
  const uint64_t old_hi = it->second.hi;
  const uint64_t server = it->second.server;
  it->second.hi = split_key;
  ranges[split_key] = Entry{old_hi, server};
  ++version_;
  return Status::Ok();
}

Status RangeDirectory::MoveRange(uint64_t tenant_id, const KeyRange& exact,
                                 uint64_t server_id) {
  const auto tenant_it = tenants_.find(tenant_id);
  if (tenant_it == tenants_.end()) {
    return Status::NotFound(TenantTag(tenant_id) + " not range-registered");
  }
  Tenant& tenant = tenant_it->second;
  const auto it = tenant.ranges.find(exact.lo);
  if (it == tenant.ranges.end() || it->second.hi != exact.hi) {
    return Status::NotFound(TenantTag(tenant_id) + " has no range " +
                            exact.ToString());
  }
  it->second.server = server_id;
  if (!OwnsAny(tenant, tenant.home)) tenant.home = server_id;
  ++version_;
  return Status::Ok();
}

Status RangeDirectory::MergeAt(uint64_t tenant_id, uint64_t key) {
  const auto tenant_it = tenants_.find(tenant_id);
  if (tenant_it == tenants_.end()) {
    return Status::NotFound(TenantTag(tenant_id) + " not range-registered");
  }
  auto& ranges = tenant_it->second.ranges;
  auto it = ranges.upper_bound(key);
  --it;
  if (it->second.hi == kNoUpperBound) {
    return Status::FailedPrecondition("topmost range has no successor");
  }
  const auto next = ranges.find(it->second.hi);
  if (next == ranges.end()) {
    return Status::Internal("range table hole after " +
                            std::to_string(it->second.hi));
  }
  if (next->second.server != it->second.server) {
    return Status::FailedPrecondition(
        "adjacent ranges owned by different servers");
  }
  it->second.hi = next->second.hi;
  ranges.erase(next);
  ++version_;
  return Status::Ok();
}

std::vector<OwnedRange> RangeDirectory::RangesOf(uint64_t tenant_id) const {
  std::vector<OwnedRange> out;
  const auto tenant_it = tenants_.find(tenant_id);
  if (tenant_it == tenants_.end()) return out;
  out.reserve(tenant_it->second.ranges.size());
  for (const auto& [lo, entry] : tenant_it->second.ranges) {
    OwnedRange owned;
    owned.range = KeyRange{lo, entry.hi};
    owned.server = entry.server;
    out.push_back(owned);
  }
  return out;
}

std::vector<uint64_t> RangeDirectory::ServersOf(uint64_t tenant_id) const {
  std::vector<uint64_t> out;
  const auto tenant_it = tenants_.find(tenant_id);
  if (tenant_it == tenants_.end()) return out;
  for (const auto& [lo, entry] : tenant_it->second.ranges) {
    out.push_back(entry.server);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool RangeDirectory::IsSharded(uint64_t tenant_id) const {
  const auto tenant_it = tenants_.find(tenant_id);
  return tenant_it != tenants_.end() && Sharded(tenant_it->second);
}

size_t RangeDirectory::RangeCount(uint64_t tenant_id) const {
  const auto tenant_it = tenants_.find(tenant_id);
  return tenant_it == tenants_.end() ? 0 : tenant_it->second.ranges.size();
}

Status RangeDirectory::ValidateCoverage(uint64_t tenant_id) const {
  const auto tenant_it = tenants_.find(tenant_id);
  if (tenant_it == tenants_.end()) {
    return Status::NotFound(TenantTag(tenant_id) + " not range-registered");
  }
  const Tenant& tenant = tenant_it->second;
  const auto& ranges = tenant.ranges;
  if (ranges.empty() || ranges.begin()->first != 0) {
    return Status::Internal(TenantTag(tenant_id) +
                            " range table does not start at 0");
  }
  uint64_t expected_lo = 0;
  for (const auto& [lo, entry] : ranges) {
    if (lo != expected_lo) {
      return Status::Internal(TenantTag(tenant_id) + " range table hole at " +
                              std::to_string(expected_lo));
    }
    if (entry.hi <= lo) {
      return Status::Internal(TenantTag(tenant_id) + " empty range at " +
                              std::to_string(lo));
    }
    expected_lo = entry.hi;
  }
  if (expected_lo != kNoUpperBound) {
    return Status::Internal(TenantTag(tenant_id) +
                            " range table truncated at " +
                            std::to_string(expected_lo));
  }
  if (!OwnsAny(tenant, tenant.home)) {
    return Status::Internal(TenantTag(tenant_id) + " home server " +
                            std::to_string(tenant.home) + " owns no range");
  }
  return Status::Ok();
}

bool RangeDirectory::OwnsAny(const Tenant& tenant, uint64_t server_id) {
  for (const auto& [lo, entry] : tenant.ranges) {
    if (entry.server == server_id) return true;
  }
  return false;
}

bool RangeDirectory::Sharded(const Tenant& tenant) {
  // The home owns a range, so a range owned elsewhere means two servers.
  for (const auto& [lo, entry] : tenant.ranges) {
    if (entry.server != tenant.home) return true;
  }
  return false;
}

}  // namespace slacker::range
