#include "src/engine/transaction.h"

#include <memory>
#include <utility>

namespace slacker::engine {
namespace {

struct TxnState {
  sim::Simulator* sim;
  TenantDb* db;
  TxnSpec spec;
  TxnResult result;
  size_t next_op = 0;
  bool collect_writes = false;
  TxnCallback done;
};

void RunNextOp(std::shared_ptr<TxnState> state) {
  if (state->next_op >= state->spec.ops.size()) {
    TxnState* raw = state.get();
    raw->db->Commit(raw->spec.txn_id, [state = std::move(state)] {
      state->result.status = Status::Ok();
      state->result.end = state->sim->Now();
      if (state->done) state->done(state->result);
    });
    return;
  }
  const Operation& op = state->spec.ops[state->next_op++];
  TxnState* raw = state.get();
  raw->db->ExecuteOp(op, [state = std::move(state)](
                             Status status, const WrittenRow& row) {
    if (!status.ok()) {
      state->result.status = status;
      state->result.end = state->sim->Now();
      if (state->done) state->done(state->result);
      return;
    }
    if (state->collect_writes && row.lsn != 0) {
      state->result.writes.push_back(row);
    }
    RunNextOp(state);
  });
}

}  // namespace

void ExecuteTransaction(sim::Simulator* sim, TenantDb* db, TxnSpec spec,
                        SimTime start_time, TxnCallback done,
                        bool collect_writes) {
  auto state = std::make_shared<TxnState>();
  state->sim = sim;
  state->db = db;
  state->spec = std::move(spec);
  state->result.txn_id = state->spec.txn_id;
  state->result.start = start_time;
  state->collect_writes = collect_writes;
  state->done = std::move(done);
  RunNextOp(std::move(state));
}

}  // namespace slacker::engine
