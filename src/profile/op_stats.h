// Per-operator execution counters: wall time and row volumes of every
// relational operator kind, aggregated across all engine invocations that
// share one OpProfile. Recording is four relaxed atomic adds per operator
// call (operators process whole tables, so the overhead is noise); the
// serving layer surfaces a snapshot in its JSON metrics and reads every
// counter into its Prometheus exposition, so a hot-path regression in, say,
// the join probe is visible per operator instead of buried in end-to-end
// latency.

#ifndef MPQ_PROFILE_OP_STATS_H_
#define MPQ_PROFILE_OP_STATS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>

#include "algebra/plan.h"

namespace mpq {

class JsonWriter;

/// Plain-value counters of one operator kind.
struct OpCounterSnapshot {
  uint64_t calls = 0;
  uint64_t ns = 0;        ///< Wall nanoseconds inside the operator.
  uint64_t rows_in = 0;   ///< Operand rows consumed.
  uint64_t rows_out = 0;  ///< Result rows produced.
  /// Bytes of operator-private scratch arenas (group-by aggregate states and
  /// key arenas); 0 for operators without one.
  uint64_t arena_bytes = 0;
  /// Paillier ciphertexts folded by lazy homomorphic aggregation.
  uint64_t hom_folds = 0;
  /// Morsels this operator kind ran through ParallelFor.
  uint64_t morsels = 0;
};

/// One OpCounterSnapshot field: its key in the JSON `ops` object, and its
/// Prometheus family `mpq_op_<key>_total`, which has one series per
/// operator kind (`op` label). OpProfile keeps its counters in this order.
struct OpStatField {
  uint64_t OpCounterSnapshot::*member;
  const char* key;
  const char* help;

  /// The Prometheus family name.
  std::string Name() const { return std::string("mpq_op_") + key + "_total"; }
};

#define MPQ_OP_STAT(field, help) {&OpCounterSnapshot::field, #field, help}
/// The per-operator counters, each named once.
inline constexpr OpStatField kOpStatFields[] = {
    MPQ_OP_STAT(calls, "Operator executions"),
    MPQ_OP_STAT(ns, "Wall nanoseconds inside operators"),
    MPQ_OP_STAT(rows_in, "Operand rows consumed"),
    MPQ_OP_STAT(rows_out, "Result rows produced"),
    MPQ_OP_STAT(arena_bytes, "Operator scratch arena bytes"),
    MPQ_OP_STAT(hom_folds, "Paillier ciphertexts folded"),
    MPQ_OP_STAT(morsels, "Morsel tasks enqueued per operator"),
};
#undef MPQ_OP_STAT
inline constexpr size_t kNumOpStats = std::size(kOpStatFields);

/// A copyable point-in-time snapshot over every operator kind.
struct OpProfileSnapshot {
  std::array<OpCounterSnapshot, kNumOpKinds> ops;

  const OpCounterSnapshot& of(OpKind k) const {
    return ops[static_cast<size_t>(k)];
  }

  /// Writes {"base":{"calls":...,"ns":...,...},...} (every kOpStatFields
  /// key) as the next value of `w`; kinds with zero calls are omitted.
  void WriteJson(JsonWriter* w) const;
};

/// The live counters. Thread-safe: Record may be called from any number of
/// engine threads concurrently with Snapshot.
class OpProfile {
 public:
  void Record(OpKind kind, uint64_t ns, uint64_t rows_in, uint64_t rows_out);
  /// Adds operator-detail counters (arena footprint, homomorphic fold
  /// volume) to `kind` — called by operators that have them, on top of the
  /// Record every execution gets.
  void RecordDetail(OpKind kind, uint64_t arena_bytes, uint64_t hom_folds);
  /// Adds `n` morsels to `kind` — called once per parallel operator loop
  /// with the loop's morsel count.
  void RecordMorsels(OpKind kind, uint64_t n);
  /// Adds every counter of `snap` — used to fold a fragment-local profile
  /// into a shared one after the fragment's span was annotated from it.
  void Merge(const OpProfileSnapshot& snap);
  OpProfileSnapshot Snapshot() const;
  /// Counter `stat` (an index into kOpStatFields) of `kind`.
  uint64_t Value(OpKind kind, size_t stat) const {
    return ops_[static_cast<size_t>(kind)][stat].load(
        std::memory_order_relaxed);
  }

 private:
  std::array<std::array<std::atomic<uint64_t>, kNumOpStats>, kNumOpKinds>
      ops_{};
};

}  // namespace mpq

#endif  // MPQ_PROFILE_OP_STATS_H_
