#include "exec/column.h"

#include <algorithm>
#include <cstring>

namespace mpq {

const char* ColumnRepName(ColumnRep r) {
  switch (r) {
    case ColumnRep::kInt64:
      return "int64";
    case ColumnRep::kDouble:
      return "double";
    case ColumnRep::kString:
      return "string";
    case ColumnRep::kEnc:
      return "enc";
    case ColumnRep::kCell:
      return "cell";
  }
  return "unknown";
}

ColumnRep RepForType(DataType type) {
  switch (type) {
    case DataType::kInt64:
      return ColumnRep::kInt64;
    case DataType::kDouble:
      return ColumnRep::kDouble;
    case DataType::kString:
      return ColumnRep::kString;
  }
  return ColumnRep::kCell;
}

void ColumnData::Reserve(size_t n) {
  switch (rep_) {
    case ColumnRep::kInt64:
      i64_.reserve(n);
      break;
    case ColumnRep::kDouble:
      f64_.reserve(n);
      break;
    case ColumnRep::kString:
      str_.reserve(n);
      break;
    case ColumnRep::kEnc:
      ends_.reserve(n);
      break;
    case ColumnRep::kCell:
      cells_.reserve(n);
      break;
  }
}

void ColumnData::Clear() {
  i64_.clear();
  f64_.clear();
  str_.clear();
  cells_.clear();
  arena_.clear();
  ends_.clear();
  aux_.clear();
  enc_keyed_ = false;
  nulls_.clear();
  size_ = 0;
}

void ColumnData::EnsureNulls() {
  if (nulls_.empty()) nulls_.assign(size_, 0);
}

void ColumnData::GrowNulls(size_t n) {
  if (!nulls_.empty()) nulls_.insert(nulls_.end(), n, 0);
}

void ColumnData::AppendNullRange(const ColumnData& src, size_t begin,
                                 size_t n) {
  if (src.has_nulls()) {
    EnsureNulls();
    nulls_.insert(nulls_.end(), src.nulls_.begin() + static_cast<long>(begin),
                  src.nulls_.begin() + static_cast<long>(begin + n));
  } else {
    GrowNulls(n);
  }
}

void ColumnData::EnsureAux() {
  if (aux_.empty()) aux_.assign(size_, 1);
}

bool ColumnData::AdoptKeyOf(const ColumnData& src) {
  if (!src.enc_keyed_) return true;
  if (!enc_keyed_) {
    enc_scheme_ = src.enc_scheme_;
    enc_key_ = src.enc_key_;
    enc_keyed_ = true;
    return true;
  }
  return enc_scheme_ == src.enc_scheme_ && enc_key_ == src.enc_key_;
}

void ColumnData::AppendEncRange(const ColumnData& src, size_t begin,
                                size_t n) {
  if (n == 0) return;
  uint32_t from = begin == 0 ? 0 : src.ends_[begin - 1];
  uint32_t to = src.ends_[begin + n - 1];
  auto base = static_cast<uint32_t>(arena_.size());
  arena_.append(src.arena_.data() + from, to - from);
  size_t row0 = ends_.size();
  ends_.resize(row0 + n);
  for (size_t k = 0; k < n; ++k) {
    ends_[row0 + k] = src.ends_[begin + k] - from + base;
  }
  if (!src.aux_.empty()) {
    EnsureAux();
    aux_.insert(aux_.end(), src.aux_.begin() + static_cast<long>(begin),
                src.aux_.begin() + static_cast<long>(begin + n));
  } else if (!aux_.empty()) {
    aux_.insert(aux_.end(), n, 1);
  }
}

void ColumnData::AppendEnc(const EncView& ev) {
  if (rep_ == ColumnRep::kEnc) {
    if (!enc_keyed_) {
      enc_scheme_ = ev.scheme;
      enc_key_ = ev.key_id;
      enc_keyed_ = true;
    }
    if (ev.scheme == enc_scheme_ && ev.key_id == enc_key_) {
      arena_.append(ev.blob);
      ends_.push_back(static_cast<uint32_t>(arena_.size()));
      if (ev.aux != 1 || !aux_.empty()) {
        EnsureAux();
        aux_.push_back(ev.aux);
      }
      GrowNulls(1);
      size_++;
      return;
    }
  }
  if (rep_ != ColumnRep::kCell) DemoteToCells();
  cells_.push_back(Cell(ev.ToValue()));
  size_++;
}

char* ColumnData::AppendEncBlobs(EncScheme scheme, uint64_t key_id,
                                 const uint32_t* lens, const uint8_t* nulls,
                                 size_t n) {
  assert(rep_ == ColumnRep::kEnc);
  size_t at = arena_.size();
  size_t row0 = ends_.size();
  ends_.resize(row0 + n);
  size_t total = at;
  for (size_t k = 0; k < n; ++k) {
    total += lens[k];
    ends_[row0 + k] = static_cast<uint32_t>(total);
  }
  size_t nulled =
      nulls == nullptr ? 0 : n - static_cast<size_t>(std::count(
                                     nulls, nulls + n, uint8_t{0}));
  if (nulled > 0) {
    EnsureNulls();
    nulls_.insert(nulls_.end(), nulls, nulls + n);
  } else {
    GrowNulls(n);
  }
  if (nulled < n) {  // a NULL-only span leaves the column unkeyed
    assert(!enc_keyed_ || (scheme == enc_scheme_ && key_id == enc_key_));
    enc_scheme_ = scheme;
    enc_key_ = key_id;
    enc_keyed_ = true;
  }
  if (!aux_.empty()) aux_.insert(aux_.end(), n, 1);
  arena_.resize(total);
  size_ += n;
  return arena_.data() + at;
}

void ColumnData::DemoteToCells() {
  if (rep_ == ColumnRep::kCell) return;
  std::vector<Cell> cells;
  cells.reserve(size_);
  for (size_t i = 0; i < size_; ++i) cells.push_back(GetCell(i));
  Clear();
  rep_ = ColumnRep::kCell;
  cells_ = std::move(cells);
  size_ = cells_.size();
}

void ColumnData::AppendNull() {
  // kCell holds NULLs as actual null cells; the mask exists only for typed
  // reps (kCell appends never grow it, so the two must not mix).
  if (rep_ == ColumnRep::kCell) {
    cells_.push_back(Cell(Value::Null()));
    size_++;
    return;
  }
  EnsureNulls();
  switch (rep_) {
    case ColumnRep::kInt64:
      i64_.push_back(0);
      break;
    case ColumnRep::kDouble:
      f64_.push_back(0);
      break;
    case ColumnRep::kString:
      str_.emplace_back();
      break;
    case ColumnRep::kEnc:
      ends_.push_back(static_cast<uint32_t>(arena_.size()));
      if (!aux_.empty()) aux_.push_back(1);
      break;
    case ColumnRep::kCell:
      break;  // handled above
  }
  nulls_.push_back(1);
  size_++;
}

void ColumnData::AppendValue(Value v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  switch (rep_) {
    case ColumnRep::kInt64:
      if (v.is_int()) {
        i64_.push_back(v.AsInt());
        GrowNulls(1);
        size_++;
        return;
      }
      break;
    case ColumnRep::kDouble:
      if (v.is_double()) {
        f64_.push_back(v.AsDouble());
        GrowNulls(1);
        size_++;
        return;
      }
      break;
    case ColumnRep::kString:
      if (v.is_string()) {
        str_.push_back(v.AsString());
        GrowNulls(1);
        size_++;
        return;
      }
      break;
    case ColumnRep::kEnc:
      break;
    case ColumnRep::kCell:
      cells_.push_back(Cell(std::move(v)));
      size_++;
      return;
  }
  DemoteToCells();
  cells_.push_back(Cell(std::move(v)));
  size_++;
}

void ColumnData::Append(Cell c) {
  if (c.is_encrypted()) {
    if (rep_ == ColumnRep::kEnc) {
      AppendEnc(c.enc());
      return;
    }
    if (rep_ != ColumnRep::kCell) DemoteToCells();
    cells_.push_back(std::move(c));
    size_++;
    return;
  }
  if (rep_ == ColumnRep::kCell) {
    cells_.push_back(std::move(c));
    size_++;
    return;
  }
  AppendValue(std::move(c.plain_mut()));
}

Cell ColumnData::GetCell(size_t i) const {
  assert(i < size_);
  if (IsNull(i)) return Cell(Value::Null());
  switch (rep_) {
    case ColumnRep::kInt64:
      return Cell(Value(i64_[i]));
    case ColumnRep::kDouble:
      return Cell(Value(f64_[i]));
    case ColumnRep::kString:
      return Cell(Value(str_[i]));
    case ColumnRep::kEnc:
      return Cell(EncAt(i).ToValue());
    case ColumnRep::kCell:
      return cells_[i];
  }
  return Cell();
}

Value ColumnData::GetValue(size_t i) const {
  assert(i < size_);
  if (IsNull(i)) return Value::Null();
  switch (rep_) {
    case ColumnRep::kInt64:
      return Value(i64_[i]);
    case ColumnRep::kDouble:
      return Value(f64_[i]);
    case ColumnRep::kString:
      return Value(str_[i]);
    case ColumnRep::kEnc:
      assert(false && "GetValue on an encrypted column");
      return Value::Null();
    case ColumnRep::kCell:
      return cells_[i].plain();
  }
  return Value::Null();
}

void ColumnData::AppendFrom(const ColumnData& src, size_t i) {
  if (src.rep_ == rep_ && !src.IsNull(i)) {
    switch (rep_) {
      case ColumnRep::kInt64:
        i64_.push_back(src.i64_[i]);
        break;
      case ColumnRep::kDouble:
        f64_.push_back(src.f64_[i]);
        break;
      case ColumnRep::kString:
        str_.push_back(src.str_[i]);
        break;
      case ColumnRep::kEnc:
        AppendEnc(src.EncAt(i));
        return;
      case ColumnRep::kCell:
        cells_.push_back(src.cells_[i]);
        size_++;
        return;
    }
    GrowNulls(1);
    size_++;
    return;
  }
  Append(src.GetCell(i));
}

void ColumnData::AppendRange(const ColumnData& src, size_t begin, size_t end) {
  if (src.rep_ == rep_ && (rep_ != ColumnRep::kEnc || AdoptKeyOf(src))) {
    size_t n = end - begin;
    switch (rep_) {
      case ColumnRep::kInt64:
        i64_.insert(i64_.end(), src.i64_.begin() + static_cast<long>(begin),
                    src.i64_.begin() + static_cast<long>(end));
        break;
      case ColumnRep::kDouble:
        f64_.insert(f64_.end(), src.f64_.begin() + static_cast<long>(begin),
                    src.f64_.begin() + static_cast<long>(end));
        break;
      case ColumnRep::kString:
        str_.insert(str_.end(), src.str_.begin() + static_cast<long>(begin),
                    src.str_.begin() + static_cast<long>(end));
        break;
      case ColumnRep::kEnc:
        AppendEncRange(src, begin, n);
        break;
      case ColumnRep::kCell:
        cells_.insert(cells_.end(),
                      src.cells_.begin() + static_cast<long>(begin),
                      src.cells_.begin() + static_cast<long>(end));
        break;
    }
    AppendNullRange(src, begin, n);  // a no-op for kCell, which has no mask
    size_ += n;
    return;
  }
  for (size_t i = begin; i < end; ++i) Append(src.GetCell(i));
}

void ColumnData::AppendSelected(const ColumnData& src, const uint32_t* sel,
                                size_t n) {
  if (src.rep_ == rep_ && (rep_ != ColumnRep::kEnc || AdoptKeyOf(src))) {
    switch (rep_) {
      case ColumnRep::kInt64: {
        // Gather by direct indexed writes — no per-element capacity check.
        size_t base = i64_.size();
        i64_.resize(base + n);
        int64_t* dst = i64_.data() + base;
        const int64_t* sv = src.i64_.data();
        for (size_t k = 0; k < n; ++k) dst[k] = sv[sel[k]];
        break;
      }
      case ColumnRep::kDouble: {
        size_t base = f64_.size();
        f64_.resize(base + n);
        double* dst = f64_.data() + base;
        const double* sv = src.f64_.data();
        for (size_t k = 0; k < n; ++k) dst[k] = sv[sel[k]];
        break;
      }
      case ColumnRep::kString:
        for (size_t k = 0; k < n; ++k) str_.push_back(src.str_[sel[k]]);
        break;
      case ColumnRep::kEnc: {
        size_t bytes = 0;
        for (size_t k = 0; k < n; ++k) bytes += src.EncBlob(sel[k]).size();
        arena_.reserve(arena_.size() + bytes);
        for (size_t k = 0; k < n; ++k) {
          arena_.append(src.EncBlob(sel[k]));
          ends_.push_back(static_cast<uint32_t>(arena_.size()));
        }
        if (!src.aux_.empty()) {
          EnsureAux();
          for (size_t k = 0; k < n; ++k) aux_.push_back(src.aux_[sel[k]]);
        } else if (!aux_.empty()) {
          aux_.insert(aux_.end(), n, 1);
        }
        break;
      }
      case ColumnRep::kCell:
        for (size_t k = 0; k < n; ++k) cells_.push_back(src.cells_[sel[k]]);
        break;
    }
    if (src.has_nulls()) {  // never for kCell, which has no mask
      EnsureNulls();
      for (size_t k = 0; k < n; ++k) nulls_.push_back(src.nulls_[sel[k]]);
    } else {
      GrowNulls(n);
    }
    size_ += n;
    return;
  }
  for (size_t k = 0; k < n; ++k) Append(src.GetCell(sel[k]));
}

void ColumnData::AppendRepeated(const ColumnData& src, size_t i, size_t times) {
  for (size_t k = 0; k < times; ++k) AppendFrom(src, i);
}

void ColumnData::MoveAppend(ColumnData&& src) {
  if (src.size_ == 0) return;
  if (size_ == 0 && rep_ == src.rep_) {
    *this = std::move(src);
  } else if (rep_ == src.rep_ && rep_ == ColumnRep::kString) {
    // AppendRange, stealing the strings instead of copying them.
    str_.insert(str_.end(), std::make_move_iterator(src.str_.begin()),
                std::make_move_iterator(src.str_.end()));
    AppendNullRange(src, 0, src.size_);
    size_ += src.size_;
  } else {
    AppendRange(src, 0, src.size_);
  }
  src.Clear();
}

void ColumnData::MoveAppendAll(std::vector<ColumnData> spans) {
  size_t rows = size_;
  size_t bytes = arena_.size();
  for (const ColumnData& s : spans) {
    rows += s.size_;
    bytes += s.arena_.size();
  }
  for (ColumnData& s : spans) {
    MoveAppend(std::move(s));
    // After the first span, whose buffers MoveAppend may steal.
    Reserve(rows);
    if (rep_ == ColumnRep::kEnc) arena_.reserve(bytes);
  }
}

uint64_t ColumnData::ByteSize() const {
  uint64_t nulls =
      nulls_.empty() ? 0 : size_ - std::count(nulls_.begin(), nulls_.end(), 0);
  uint64_t total = nulls;  // a NULL row costs one byte (kCell has no mask)
  switch (rep_) {
    case ColumnRep::kInt64:
    case ColumnRep::kDouble:
      return total + 8 * (size_ - nulls);
    case ColumnRep::kString:
      for (size_t i = 0; i < size_; ++i) {
        if (!IsNull(i)) total += str_[i].size() + 4;
      }
      return total;
    case ColumnRep::kEnc:
      // NULL rows hold empty blobs, so the arena is the non-NULL blobs.
      return total + arena_.size() + 8 * (size_ - nulls);
    case ColumnRep::kCell:
      for (const Cell& c : cells_) total += c.ByteSize();
      return total;
  }
  return total;
}

ColumnData ColumnFromCells(std::vector<Cell> cells) {
  ColumnRep rep = ColumnRep::kCell;
  for (const Cell& c : cells) {
    if (c.is_encrypted()) {
      rep = ColumnRep::kEnc;
      break;
    }
    const Value& v = c.plain();
    if (v.is_null()) continue;
    if (v.is_int()) {
      rep = ColumnRep::kInt64;
    } else if (v.is_double()) {
      rep = ColumnRep::kDouble;
    } else {
      rep = ColumnRep::kString;
    }
    break;
  }
  ColumnData out(rep);
  out.Reserve(cells.size());
  for (Cell& c : cells) out.Append(std::move(c));
  return out;
}

namespace {

bool HasNonNullRow(const ColumnData& c) {
  if (c.rep() == ColumnRep::kCell) {
    return std::any_of(c.cells().begin(), c.cells().end(), [](const Cell& x) {
      return x.is_encrypted() || !x.plain().is_null();
    });
  }
  return !c.has_nulls() ? !c.empty()
                        : std::find(c.null_mask().begin(), c.null_mask().end(),
                                    uint8_t{0}) != c.null_mask().end();
}

}  // namespace

ColumnData ConcatSpans(std::vector<ColumnData> spans) {
  ColumnRep rep = ColumnRep::kCell;
  for (const ColumnData& s : spans) {
    if (HasNonNullRow(s)) {
      rep = s.rep();
      break;
    }
  }
  ColumnData out(rep);
  out.MoveAppendAll(std::move(spans));
  return out;
}

ColumnData ColumnData::FromEnc(EncScheme scheme, uint64_t key_id,
                               std::string arena, std::vector<uint32_t> ends,
                               std::vector<int64_t> aux,
                               std::vector<uint8_t> nulls) {
  ColumnData out(ColumnRep::kEnc);
  out.size_ = ends.size();
  out.enc_keyed_ =
      nulls.empty() ? out.size_ > 0
                    : std::find(nulls.begin(), nulls.end(), uint8_t{0}) !=
                          nulls.end();
  if (out.enc_keyed_) {
    out.enc_scheme_ = scheme;
    out.enc_key_ = key_id;
  }
  out.arena_ = std::move(arena);
  out.ends_ = std::move(ends);
  out.aux_ = std::move(aux);
  out.nulls_ = std::move(nulls);
  return out;
}

namespace {

Status KeyUnsupported() {
  return Status::Unsupported(
      "RND/HOM ciphertexts cannot serve as grouping or join keys");
}

bool KeyableScheme(EncScheme s) {
  return s == EncScheme::kDeterministic || s == EncScheme::kOpe;
}

/// The bytes a dictionary keys row `r` by: a string's content, or a
/// ciphertext's blob.
std::string_view DictBytes(const ColumnData& c, size_t r) {
  return c.rep() == ColumnRep::kString ? std::string_view(c.str()[r])
                                       : c.EncBlob(r);
}

/// Whether rows [begin, end) of `c` can take dictionary codes: strings and
/// DET/OPE ciphertexts can; an RND/HOM ciphertext row cannot (NULL rows
/// never need a code).
Status DictRowsKeyable(const ColumnData& c, size_t begin, size_t end) {
  if (c.rep() == ColumnRep::kString) return Status::OK();
  if (c.rep() != ColumnRep::kEnc) {
    return Status::Internal("dictionary over a non-string/ciphertext column");
  }
  if (KeyableScheme(c.enc_scheme())) return Status::OK();
  for (size_t r = begin; r < end; ++r) {
    if (!c.IsNull(r)) return KeyUnsupported();
  }
  return Status::OK();
}

}  // namespace

Status ColumnDict::EncodeRange(size_t begin, size_t end, uint32_t* codes) {
  const ColumnData& c = *col_;
  MPQ_RETURN_NOT_OK(DictRowsKeyable(c, begin, end));
  for (size_t r = begin; r < end; ++r) {
    if (c.IsNull(r)) {
      codes[r - begin] = 0;
      continue;
    }
    std::string_view v = DictBytes(c, r);
    codes[r - begin] = index_.FindOrInsert(
        HashBytes(v.data(), v.size()),
        [&](uint32_t id) { return DictBytes(c, rep_rows_[id]) == v; },
        [&] {
          rep_rows_.push_back(static_cast<uint32_t>(r));
          return static_cast<uint32_t>(rep_rows_.size() - 1);
        });
  }
  return Status::OK();
}

Status ColumnDict::ProbeRange(const ColumnData& probe, size_t begin,
                              size_t end, uint32_t* codes) const {
  if (probe.rep() != col_->rep()) {
    return Status::Internal("dictionary probe over a mismatched column rep");
  }
  MPQ_RETURN_NOT_OK(DictRowsKeyable(probe, begin, end));
  for (size_t r = begin; r < end; ++r) {
    if (probe.IsNull(r)) {
      codes[r - begin] = 0;
      continue;
    }
    std::string_view v = DictBytes(probe, r);
    codes[r - begin] = index_.Find(
        HashBytes(v.data(), v.size()),
        [&](uint32_t id) { return DictBytes(*col_, rep_rows_[id]) == v; });
  }
  return Status::OK();
}

Status AppendKeyBytes(const ColumnData& col, size_t r, std::string* out) {
  if (col.IsNull(r)) {
    out->push_back('N');
    return Status::OK();
  }
  switch (col.rep()) {
    case ColumnRep::kInt64: {
      out->push_back('I');
      int64_t v = col.i64()[r];
      out->append(reinterpret_cast<const char*>(&v), sizeof(v));
      return Status::OK();
    }
    case ColumnRep::kDouble: {
      out->push_back('D');
      double v = col.f64()[r];
      out->append(reinterpret_cast<const char*>(&v), sizeof(v));
      return Status::OK();
    }
    case ColumnRep::kString:
      out->push_back('S');
      out->append(col.str()[r]);
      return Status::OK();
    case ColumnRep::kEnc:
      if (!KeyableScheme(col.enc_scheme())) return KeyUnsupported();
      out->append(col.EncBlob(r));
      return Status::OK();
    case ColumnRep::kCell: {
      MPQ_ASSIGN_OR_RETURN(std::string k, CellGroupKey(col.cells()[r]));
      out->append(k);
      return Status::OK();
    }
  }
  return Status::Internal("unreachable column rep");
}

}  // namespace mpq
