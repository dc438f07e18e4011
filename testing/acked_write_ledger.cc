#include "testing/acked_write_ledger.h"

namespace slacker::workload {

AckedWriteLedger::AckedWriteLedger(ClientPool* pool) {
  pool->set_completion_hook(
      [this](const engine::TxnResult& result) { Record(result); });
}

void AckedWriteLedger::Record(const engine::TxnResult& result) {
  for (const engine::WrittenRow& w : result.writes) {
    AckedWrite& slot = writes_[w.key];
    if (w.lsn > slot.lsn) {
      slot = AckedWrite{w.lsn, w.digest, w.deleted};
    }
  }
}

}  // namespace slacker::workload
