#include "exec/distributed.h"

#include <chrono>
#include <climits>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/str_util.h"
#include "net/channel.h"
#include "obs/trace.h"
#include "storage/segment.h"

namespace mpq {

namespace {

/// Scheduling state of one plan node (one fragment step): where its inputs
/// come from, how many are still missing, and the mailbox they arrive in.
struct NodeState {
  const PlanNode* node = nullptr;
  int parent = -1;              ///< Index into the node vector, -1 for root.
  int slot = 0;                 ///< Operand position at the parent.
  std::vector<int> children;    ///< Indices, in operand order.
  std::atomic<size_t> missing{0};
  Channel inbox;                ///< One slot per child, filled by their tasks.
};

}  // namespace

void DistributedRuntime::DistributeKeys(const PlanKeys& keys, SubjectId user,
                                        uint64_t seed) {
  for (const KeyGroup& g : keys.groups) {
    KeyMaterial km = MakeKeyMaterial(seed, g.key_id);
    (*public_modulus_)[g.key_id] = km.paillier.n;
    g.holders.ForEach([&](AttrId s) {
      keyrings_[static_cast<SubjectId>(s)].Add(km);
    });
    dispatcher_keyring_.Add(km);
    keyrings_[user].Add(km);
  }
}

Result<DistributedResult> DistributedRuntime::Run(const ExtendedPlan& ext,
                                                  SubjectId user,
                                                  const BaseTables& tables,
                                                  QueryTrace* trace,
                                                  uint64_t trace_parent) {
  DistributedResult out;

  // The umbrella span of this run's distributed phase; fragment and
  // transfer spans nest under it.
  Span dispatch;
  if (trace != nullptr) {
    dispatch = trace->StartSpan("dispatch", "exec", trace_parent);
  }
  const uint64_t dispatch_span = dispatch.id();

  // Each Run draws a fresh seed so re-running over changed data never
  // reuses a (key, nonce) pair; within one run, nonces are a deterministic
  // function of (seed, node, attribute) only. The CAS loop preserves the
  // SplitMix64 seed sequence while letting concurrent runs each claim a
  // distinct seed.
  uint64_t run_seed = nonce_seed_.load(std::memory_order_relaxed);
  while (!nonce_seed_.compare_exchange_weak(run_seed, SplitMix64(run_seed),
                                            std::memory_order_acq_rel,
                                            std::memory_order_relaxed)) {
  }

  // Flatten the tree into dependency-edge scheduling state.
  std::vector<std::unique_ptr<NodeState>> nodes;
  std::function<int(const PlanNode*, int)> flatten =
      [&](const PlanNode* n, int parent) {
        int idx = static_cast<int>(nodes.size());
        nodes.push_back(std::make_unique<NodeState>());
        nodes[static_cast<size_t>(idx)]->node = n;
        nodes[static_cast<size_t>(idx)]->parent = parent;
        for (size_t i = 0; i < n->num_children(); ++i) {
          int c = flatten(n->child(i), idx);
          nodes[static_cast<size_t>(idx)]->children.push_back(c);
          nodes[static_cast<size_t>(c)]->slot = static_cast<int>(i);
        }
        nodes[static_cast<size_t>(idx)]->missing = n->num_children();
        return idx;
      };
  flatten(ext.plan.get(), -1);
  // The user's mailbox: the root fragment delivers the final result here.
  Channel user_inbox(1);

  // Shared run state. `mu` guards the stats sink (exact byte accounting),
  // the error slot, and pairs with `cv` for completion. Heap-allocated and
  // captured by value in every task: the final task touches `mu`/`cv` after
  // its `active` decrement, which can race with Run returning — shared
  // ownership keeps them alive for that tail.
  struct SyncState {
    std::mutex mu;
    std::condition_variable cv;
    std::atomic<size_t> active{0};
  };
  auto sync = std::make_shared<SyncState>();
  int error_node = INT_MAX;  // guarded by sync->mu; lowest node id wins
  Status error;              // guarded by sync->mu
  auto shared_udf_mu = std::make_shared<std::mutex>();

  static const KeyRing kEmptyKeyring;
  std::function<void(int)> run_node;
  // The task wrapper owns its copy of `sync`: the post-decrement notify is
  // the only code that may still run while Run() is returning, and it only
  // touches the shared SyncState — never the stack-owned closures, which are
  // guaranteed alive through run_node's body (active > 0 until after it).
  std::function<void(int)> schedule = [&run_node, sync, this](int idx) {
    auto task = [&run_node, sync, idx] {
      run_node(idx);
      if (sync->active.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(sync->mu);
        sync->cv.notify_all();
      }
    };
    if (pool_ == nullptr || pool_->size() == 0 || !pool_->Submit(task)) {
      // No pool, or Submit rejected (pool shutting down): run inline.
      task();
    }
  };

  // Records the run's first error (lowest plan-node id wins, so the error a
  // caller sees is scheduling-order independent).
  auto record_error = [&](int node_id, const Status& st) {
    std::lock_guard<std::mutex> lock(sync->mu);
    if (node_id < error_node) {
      error_node = node_id;
      error = st;
    }
  };

  run_node = [&](int idx) {
    NodeState& ns = *nodes[static_cast<size_t>(idx)];
    const PlanNode* n = ns.node;
    SubjectId s = ext.assignment.at(n->id);

    // One span per dispatch step, on the assignee's track. Ids derive from
    // the plan node, never from scheduling order.
    Span frag;
    if (trace != nullptr) {
      frag = trace->StartSpan(StrFormat("frag:%s", OpKindName(n->kind)),
                              "frag", dispatch_span, n->id,
                              static_cast<int>(s));
      frag.AnnStr("subject", subjects_->Name(s));
    }

    // The assignee comes on line for this dispatch step; a scheduled crash
    // in the fault plan fires exactly here, independent of thread timing.
    if (net_ != nullptr) {
      Status up = net_->BeginStep(s, n->id);
      if (!up.ok()) {
        frag.AnnInt("crashed", 1);
        frag.AnnStr("error", up.ToString());
        record_error(n->id, up);
        return;
      }
    }

    // Collect operand tables from the inbox; the sending tasks accounted
    // (and, under a SimNet, cleared) each assignee-crossing edge already.
    std::vector<Table> inputs;
    inputs.reserve(ns.children.size());
    for (size_t i = 0; i < ns.children.size(); ++i) {
      std::optional<Envelope> e = ns.inbox.TryRecv(static_cast<int>(i));
      if (!e.has_value()) {
        record_error(n->id, Status::Internal(
                                "operand missing from fragment mailbox"));
        return;
      }
      inputs.push_back(std::move(e->payload));
    }

    // Execute under the assignee's engine: its keyring only. The nonce base
    // is a PRF of the node id, so concurrent scheduling cannot change which
    // nonces a node uses — ciphertexts are bit-identical at any thread count.
    ExecContext ctx;
    ctx.catalog = catalog_;
    ctx.base_tables = tables;
    auto kr = keyrings_.find(s);
    ctx.keyring = kr == keyrings_.end() ? &kEmptyKeyring : &kr->second;
    ctx.dispatcher_keyring = &dispatcher_keyring_;
    ctx.public_modulus = public_modulus_;
    ctx.crypto = &crypto_;
    ctx.udfs = udfs_;
    ctx.udf_mu = shared_udf_mu;
    ctx.nonce = SplitMix64(run_seed ^ (static_cast<uint64_t>(n->id) + 1) *
                                          0x9e3779b97f4a7c15ull);
    ctx.nonce_seed = run_seed ^
                     (static_cast<uint64_t>(n->id) + 1) * 0x94d049bb133111ebull;
    ctx.pool = pool_;
    ctx.batch_size = batch_size_ == 0 ? 1 : batch_size_;
    ctx.op_profile = op_profile_;

    // Traced runs record into a fragment-local profile first: its snapshot
    // annotates the span with *this* step's arena bytes and fold counts
    // exactly, then folds into the shared profile so aggregate totals match
    // the untraced path.
    OpProfile local_profile;
    if (trace != nullptr) {
      ctx.op_profile = &local_profile;
      ctx.trace = trace;
      ctx.trace_parent = frag.id();
      ctx.trace_track = static_cast<int>(s);
    }

    Result<Table> result = ExecuteNodeOnInputs(n, std::move(inputs), &ctx);
    if (trace != nullptr) {
      OpProfileSnapshot snap = local_profile.Snapshot();
      const OpCounterSnapshot& c = snap.of(n->kind);
      frag.AnnInt("rows_in", static_cast<int64_t>(c.rows_in));
      frag.AnnInt("rows_out", static_cast<int64_t>(c.rows_out));
      if (c.arena_bytes > 0) {
        frag.AnnInt("arena_bytes", static_cast<int64_t>(c.arena_bytes));
      }
      if (c.hom_folds > 0) {
        frag.AnnInt("hom_folds", static_cast<int64_t>(c.hom_folds));
      }
      if (c.morsels > 0) {
        frag.AnnInt("morsels", static_cast<int64_t>(c.morsels));
      }
      if (op_profile_ != nullptr) op_profile_->Merge(snap);
    }
    if (!result.ok()) {
      frag.AnnStr("error", result.status().ToString());
      record_error(n->id, result.status());
      return;
    }
    {
      std::lock_guard<std::mutex> lock(sync->mu);
      SubjectStats& st = out.stats[s];
      st.ops_executed++;
      st.rows_produced += result->num_rows();
    }

    // Ship the result towards its consumer: the parent fragment, or the
    // user for the root. An assignee-crossing edge is one message — cleared
    // by the simulated network first (which may drop, delay, retry, or
    // refuse it), then accounted exactly under the stats mutex.
    Table t = std::move(result).value();
    SubjectId dst =
        ns.parent >= 0
            ? ext.assignment.at(
                  nodes[static_cast<size_t>(ns.parent)]->node->id)
            : user;
    double delivery_virtual_s = 0;
    if (dst != s) {
      // One span per assignee-crossing edge: the observable the cost
      // model's byte predictions are calibrated against.
      Span xfer;
      if (trace != nullptr) {
        xfer = trace->StartSpan("xfer", "net", frag.id(), n->id,
                                static_cast<int>(s));
        xfer.AnnStr("from", subjects_->Name(s));
        xfer.AnnStr("to", subjects_->Name(dst));
      }
      uint64_t bytes = t.ByteSize();
      if (net_ != nullptr) {
        // The fragment crosses the simulated wire as a compressed column
        // segment: the sender encodes whole columns, the network is charged
        // the encoded size, and the receiver decodes — so the encode/decode
        // round-trip is exercised on every assignee-crossing edge. (SimNet
        // drops or delays whole messages, never flips bytes; decode of
        // corrupt frames is covered by the segment fuzz tests.)
        Result<std::string> wire = EncodeSegment(t);
        if (!wire.ok()) {
          xfer.AnnInt("bytes", static_cast<int64_t>(bytes));
          xfer.AnnStr("error", wire.status().ToString());
          record_error(n->id, wire.status());
          return;
        }
        bytes = wire->size();
        Result<DeliveryReport> d =
            net_->Deliver(s, dst, bytes, n->id, net_policy_);
        if (!d.ok()) {
          xfer.AnnInt("bytes", static_cast<int64_t>(bytes));
          xfer.AnnStr("error", d.status().ToString());
          record_error(n->id, d.status());
          return;
        }
        Result<SegmentReader> seg = SegmentReader::Open(std::move(*wire));
        Result<Table> decoded = seg.ok() ? seg->Decode() : seg.status();
        if (!decoded.ok()) {
          xfer.AnnInt("bytes", static_cast<int64_t>(bytes));
          xfer.AnnStr("error", decoded.status().ToString());
          record_error(n->id, decoded.status());
          return;
        }
        t = std::move(*decoded);
        delivery_virtual_s = d->virtual_s;
        xfer.AnnInt("attempts", d->attempts);
        xfer.AnnInt("drops", d->attempts - 1);
        xfer.AnnInt("wasted_bytes", static_cast<int64_t>(d->wasted_bytes));
        xfer.AnnDouble("virtual_s", d->virtual_s);
        std::lock_guard<std::mutex> lock(sync->mu);
        out.net.send_attempts += static_cast<uint64_t>(d->attempts);
        out.net.drops += static_cast<uint64_t>(d->attempts - 1);
        out.net.wasted_bytes += d->wasted_bytes;
        out.net.virtual_s += d->virtual_s;
      }
      xfer.AnnInt("bytes", static_cast<int64_t>(bytes));
      std::lock_guard<std::mutex> lock(sync->mu);
      out.stats[s].bytes_out += bytes;
      out.stats[dst].bytes_in += bytes;
      out.total_transfer_bytes += bytes;
      out.num_messages++;
    }
    Envelope env;
    env.slot = ns.slot;
    env.from_node = n->id;
    env.from = s;
    env.payload = std::move(t);
    env.virtual_s = delivery_virtual_s;
    if (ns.parent >= 0) {
      NodeState& ps = *nodes[static_cast<size_t>(ns.parent)];
      // Send before the decrement: the parent's task must observe every
      // operand in its mailbox (acq_rel pairs the two).
      ps.inbox.Send(std::move(env));
      if (ps.missing.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        sync->active.fetch_add(1, std::memory_order_relaxed);
        schedule(ns.parent);
      }
    } else {
      env.slot = 0;
      user_inbox.Send(std::move(env));
    }
  };

  // Seed the run with every dependency-free node (base relations), in plan
  // order. Fragments of subjects that don't feed each other now overlap.
  std::vector<int> ready;
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i]->children.empty()) ready.push_back(static_cast<int>(i));
  }
  sync->active.store(ready.size(), std::memory_order_relaxed);
  for (int idx : ready) schedule(idx);

  // Wait for the DAG to drain, helping with queued work instead of idling.
  for (;;) {
    if (sync->active.load(std::memory_order_acquire) == 0) break;
    if (pool_ != nullptr && pool_->TryRunOneTask()) continue;
    std::unique_lock<std::mutex> lock(sync->mu);
    sync->cv.wait_for(lock, std::chrono::milliseconds(1), [&] {
      return sync->active.load(std::memory_order_acquire) == 0;
    });
  }

  {
    std::lock_guard<std::mutex> lock(sync->mu);
    if (error_node != INT_MAX) return error;
  }
  Span merge;
  if (trace != nullptr) {
    merge = trace->StartSpan("merge", "exec", dispatch_span, ext.plan->id,
                             static_cast<int>(user));
  }
  std::optional<Envelope> final_msg = user_inbox.TryRecv(0);
  if (!final_msg.has_value()) {
    return Status::Internal("root fragment did not deliver a result");
  }
  out.result = std::move(final_msg->payload);
  if (trace != nullptr) {
    merge.AnnInt("rows", static_cast<int64_t>(out.result.num_rows()));
    merge.End();
    dispatch.AnnInt("transfer_bytes",
                    static_cast<int64_t>(out.total_transfer_bytes));
    dispatch.AnnInt("messages", static_cast<int64_t>(out.num_messages));
    dispatch.AnnDouble("net_virtual_s", out.net.virtual_s);
  }
  return out;
}

}  // namespace mpq
