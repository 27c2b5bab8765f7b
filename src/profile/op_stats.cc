#include "profile/op_stats.h"

#include "common/json_util.h"

namespace mpq {

namespace {

/// Index of `member` in kOpStatFields. For a field without a row the search
/// reads past the list's end, which does not compile.
constexpr size_t StatIndex(uint64_t OpCounterSnapshot::*member) {
  size_t i = 0;
  while (kOpStatFields[i].member != member) ++i;
  return i;
}

constexpr size_t kCalls = StatIndex(&OpCounterSnapshot::calls);
constexpr size_t kNs = StatIndex(&OpCounterSnapshot::ns);
constexpr size_t kRowsIn = StatIndex(&OpCounterSnapshot::rows_in);
constexpr size_t kRowsOut = StatIndex(&OpCounterSnapshot::rows_out);
constexpr size_t kArenaBytes = StatIndex(&OpCounterSnapshot::arena_bytes);
constexpr size_t kHomFolds = StatIndex(&OpCounterSnapshot::hom_folds);
constexpr size_t kMorsels = StatIndex(&OpCounterSnapshot::morsels);

}  // namespace

void OpProfile::Record(OpKind kind, uint64_t ns, uint64_t rows_in,
                       uint64_t rows_out) {
  auto& c = ops_[static_cast<size_t>(kind)];
  c[kCalls].fetch_add(1, std::memory_order_relaxed);
  c[kNs].fetch_add(ns, std::memory_order_relaxed);
  c[kRowsIn].fetch_add(rows_in, std::memory_order_relaxed);
  c[kRowsOut].fetch_add(rows_out, std::memory_order_relaxed);
}

void OpProfile::RecordDetail(OpKind kind, uint64_t arena_bytes,
                             uint64_t hom_folds) {
  auto& c = ops_[static_cast<size_t>(kind)];
  c[kArenaBytes].fetch_add(arena_bytes, std::memory_order_relaxed);
  c[kHomFolds].fetch_add(hom_folds, std::memory_order_relaxed);
}

void OpProfile::RecordMorsels(OpKind kind, uint64_t n) {
  ops_[static_cast<size_t>(kind)][kMorsels].fetch_add(
      n, std::memory_order_relaxed);
}

void OpProfile::Merge(const OpProfileSnapshot& snap) {
  for (size_t k = 0; k < kNumOpKinds; ++k) {
    for (size_t f = 0; f < kNumOpStats; ++f) {
      uint64_t v = snap.ops[k].*kOpStatFields[f].member;
      if (v != 0) ops_[k][f].fetch_add(v, std::memory_order_relaxed);
    }
  }
}

OpProfileSnapshot OpProfile::Snapshot() const {
  OpProfileSnapshot snap;
  for (size_t k = 0; k < kNumOpKinds; ++k) {
    for (size_t f = 0; f < kNumOpStats; ++f) {
      snap.ops[k].*kOpStatFields[f].member =
          ops_[k][f].load(std::memory_order_relaxed);
    }
  }
  return snap;
}

void OpProfileSnapshot::WriteJson(JsonWriter* w) const {
  w->BeginObject();
  for (size_t k = 0; k < kNumOpKinds; ++k) {
    const OpCounterSnapshot& c = ops[k];
    if (c.calls == 0) continue;
    w->Key(OpKindName(static_cast<OpKind>(k))).BeginObject();
    for (const OpStatField& f : kOpStatFields) w->Key(f.key).UInt(c.*f.member);
    w->EndObject();
  }
  w->EndObject();
}

}  // namespace mpq
