#ifndef SLACKER_TESTING_ACKED_WRITE_LEDGER_H_
#define SLACKER_TESTING_ACKED_WRITE_LEDGER_H_

#include <cstdint>
#include <unordered_map>

#include "src/engine/transaction.h"
#include "src/storage/record.h"
#include "src/workload/client_pool.h"

namespace slacker::workload {

/// The most recent acknowledged write per key, as a client saw it: the
/// oracle durability checks compare a tenant's final state against.
/// Lives outside the library so the transaction path keeps no
/// per-write bookkeeping that only tests read.
class AckedWriteLedger {
 public:
  struct AckedWrite {
    storage::Lsn lsn = 0;
    uint64_t digest = 0;
    bool deleted = false;
  };

  /// An empty ledger fed through Record.
  AckedWriteLedger() = default;
  /// Subscribes to `pool`'s completion hook; the ledger must outlive
  /// the pool's remaining transactions.
  explicit AckedWriteLedger(ClientPool* pool);

  AckedWriteLedger(const AckedWriteLedger&) = delete;
  AckedWriteLedger& operator=(const AckedWriteLedger&) = delete;

  /// Records a committed transaction's writes: per key the highest LSN
  /// wins, and a delete is kept as a write with `deleted` set.
  void Record(const engine::TxnResult& result);

  /// key -> newest acknowledged (lsn, digest, deleted).
  const std::unordered_map<uint64_t, AckedWrite>& writes() const {
    return writes_;
  }

 private:
  std::unordered_map<uint64_t, AckedWrite> writes_;
};

}  // namespace slacker::workload

#endif  // SLACKER_TESTING_ACKED_WRITE_LEDGER_H_
