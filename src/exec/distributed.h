// Distributed query runtime: executes an extended plan with one engine per
// subject, selective key distribution (Def 6.1), and byte-level transfer
// accounting on every assignee-crossing edge.
//
// Everything runs in one process, but each subject's engine only holds the
// keys distributed to it — an operation assigned to a subject without the
// required key fails, which is the enforcement property the paper's key
// distribution provides.
//
// With a ThreadPool attached, per-assignee fragments are scheduled as async
// tasks along the plan's dependency edges: nodes whose subtrees don't feed
// each other run concurrently, modelling subjects computing in parallel.
// Stats are mutex-guarded and every node derives its nonce base from the
// node id, so results and transfer bytes are identical at any thread count.
//
// Fragment results move through per-node Channels (net/channel.h): each task
// Sends its table to its parent's mailbox and a task only runs once every
// operand arrived. With a SimNet attached (SetNetwork), every assignee-
// crossing send is first cleared by the simulated network — which may delay,
// drop (with bounded retries under SetNetPolicy), or refuse it because a
// provider crashed. A send that cannot be completed aborts the run with
// kUnavailable; the failover layer (exec/failover.h) then re-plans around
// the subjects the net recorded as down.
//
// The runtime holds no table data: each Run reads the tables its caller
// passes. Once configured (keys distributed, crypto plan set), Run may be
// called concurrently from many threads: each call draws a fresh nonce seed
// from an atomic counter and touches only call-local state, which is what
// lets the serving layer execute one cached plan under many sessions, each
// over the snapshot it pinned.

#ifndef MPQ_EXEC_DISTRIBUTED_H_
#define MPQ_EXEC_DISTRIBUTED_H_

#include <atomic>
#include <map>
#include <memory>

#include "assign/schemes.h"
#include "common/thread_pool.h"
#include "extend/extend.h"
#include "extend/keys.h"
#include "exec/executor.h"
#include "net/simnet.h"

namespace mpq {

/// Per-subject execution accounting.
struct SubjectStats {
  size_t ops_executed = 0;
  uint64_t rows_produced = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
};

/// Network-side accounting of one run (all zeros on an ideal network).
struct NetReport {
  uint64_t send_attempts = 0;  ///< Delivery attempts incl. dropped ones.
  uint64_t drops = 0;          ///< Attempts the fault plan dropped.
  uint64_t wasted_bytes = 0;   ///< Bytes of dropped attempts (retransmitted).
  double virtual_s = 0;        ///< Simulated network seconds, summed.
};

/// Output of a distributed run.
struct DistributedResult {
  Table result;
  std::map<SubjectId, SubjectStats> stats;
  uint64_t total_transfer_bytes = 0;
  size_t num_messages = 0;
  NetReport net;
};

/// The runtime. Configure with keys and crypto plan, then Run over tables.
class DistributedRuntime {
 public:
  /// `nonce_seed` starts the per-Run seed sequence. A caller that rebuilds a
  /// runtime over the same keys must pass a seed no earlier runtime used, or
  /// the rebuilt runtime's first Run reuses the earlier one's nonces.
  DistributedRuntime(const Catalog* catalog, const SubjectRegistry* subjects,
                     uint64_t nonce_seed = 0x243f6a8885a308d3ull)
      : catalog_(catalog), subjects_(subjects), nonce_seed_(nonce_seed) {}

  /// Distributes key material per the plan-key holders; the dispatcher
  /// (`user`) receives every key so it can formulate encrypted constants in
  /// dispatched sub-queries.
  void DistributeKeys(const PlanKeys& keys, SubjectId user, uint64_t seed);

  void SetCryptoPlan(CryptoPlan crypto) { crypto_ = std::move(crypto); }

  void RegisterUdf(const std::string& name, UdfImpl impl) {
    udfs_[name] = std::move(impl);
  }

  /// Attaches a pool: independent fragments then run as concurrent async
  /// tasks, and each engine evaluates operators batch-parallel on the
  /// pool's morsel queue. Null (the default) runs everything sequentially.
  /// The pool is borrowed, not owned.
  void SetThreadPool(ThreadPool* pool) { pool_ = pool; }

  /// Rows per operator batch (see ExecContext::batch_size).
  void SetBatchSize(size_t batch_size) { batch_size_ = batch_size; }

  /// Attaches a simulated network (borrowed): every assignee-crossing
  /// fragment edge is then delivered through `net` under `SetNetPolicy`'s
  /// retry/deadline budget, subject to its link timing and fault plan. A
  /// failed delivery or a crashed assignee aborts the run with kUnavailable;
  /// the dead subjects are recorded in `net` (SimNet::DownSubjects) for the
  /// failover machinery. Null (the default) is an ideal network.
  void SetNetwork(SimNet* net) { net_ = net; }

  /// Retry and deadline budget applied per fragment edge when a network is
  /// attached.
  void SetNetPolicy(NetPolicy policy) { net_policy_ = policy; }

  /// Attaches per-operator execution counters (borrowed; typically shared
  /// by every runtime of a serving process). Null (the default) disables
  /// recording.
  void SetOpProfile(OpProfile* profile) { op_profile_ = profile; }

  /// Executes the extended plan over `tables` (borrowed for the call; each
  /// base relation held by its owning authority); the result is delivered
  /// to `user`.
  ///
  /// With a `trace` attached, the run records one "frag" span per dispatch
  /// step (assignee, rows, arena bytes, Paillier fold counts), one "net"
  /// span per assignee-crossing edge (bytes-on-wire, retries, drops,
  /// virtual seconds, crash annotations) and a "merge" span for the final
  /// delivery, all under `trace_parent`. Tracing is observation-only:
  /// execution never reads the trace, so traced runs are bit-identical to
  /// untraced ones at any thread count.
  Result<DistributedResult> Run(const ExtendedPlan& ext, SubjectId user,
                                const BaseTables& tables,
                                QueryTrace* trace = nullptr,
                                uint64_t trace_parent = 0);

  /// The keyring held by `subject` (for inspection in tests).
  const KeyRing& keyring(SubjectId subject) const {
    static const KeyRing kEmpty;
    auto it = keyrings_.find(subject);
    return it == keyrings_.end() ? kEmpty : it->second;
  }

 private:
  const Catalog* catalog_;
  const SubjectRegistry* subjects_;
  std::map<SubjectId, KeyRing> keyrings_;
  KeyRing dispatcher_keyring_;
  /// Public Paillier moduli, shared into every per-node ExecContext by
  /// pointer (the directory is append-only after DistributeKeys).
  std::shared_ptr<HomKeyDirectory> public_modulus_ =
      std::make_shared<HomKeyDirectory>();
  CryptoPlan crypto_;
  std::unordered_map<std::string, UdfImpl> udfs_;
  /// Seed for per-node nonce bases (each node n encrypts with nonces derived
  /// from SplitMix64(seed, n->id), independent of scheduling order). Atomic:
  /// concurrent Run calls each advance it once, so no two runs of this runtime
  /// — parallel or sequential — share a (key, nonce) pair.
  std::atomic<uint64_t> nonce_seed_;
  ThreadPool* pool_ = nullptr;
  size_t batch_size_ = Table::kDefaultBatchSize;
  SimNet* net_ = nullptr;
  NetPolicy net_policy_;
  OpProfile* op_profile_ = nullptr;
};

}  // namespace mpq

#endif  // MPQ_EXEC_DISTRIBUTED_H_
