#include "storage/segment.h"

#include <algorithm>
#include <cstring>

#include "common/flat_hash.h"
#include "exec/column.h"

namespace mpq {

namespace {

constexpr char kMagic[4] = {'M', 'P', 'Q', 'S'};
constexpr uint8_t kVersion = 1;
/// Header: magic + version + u64 rows + u32 cols.
constexpr size_t kHeaderSize = 4 + 1 + 8 + 4;
/// Trailer: u64 footer offset + u64 checksum.
constexpr size_t kTrailerSize = 16;
/// Row-count sanity cap: a claimed count past this is corrupt, rejected
/// before any row-count-sized allocation (compressed pages legitimately
/// cost far less than a byte per row, so the wire format's
/// rows-vs-buffer-size bound does not apply here).
constexpr uint64_t kMaxSegmentRows = 1ull << 31;

// Int64 page kinds.
constexpr uint8_t kPageRaw = 0;
constexpr uint8_t kPageRle = 1;
constexpr uint8_t kPageFor = 2;  // frame-of-reference bit-packing

// String page encodings.
constexpr uint8_t kStringPlain = 0;
constexpr uint8_t kStringDict = 1;

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void PutBytes(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

void PutEnc(std::string* out, const EncValue& ev) {
  PutU8(out, static_cast<uint8_t>(ev.scheme));
  PutU64(out, ev.key_id);
  PutU64(out, static_cast<uint64_t>(ev.aux));
  PutBytes(out, ev.blob);
}

/// Bounds-checked reader over a byte range of the frame.
struct Reader {
  const char* data;
  size_t size;
  size_t pos = 0;

  bool Take(void* dst, size_t n) {
    if (n > size - pos) return false;  // pos <= size always holds
    if (n == 0) return true;  // dst may be an empty vector's null data()
    std::memcpy(dst, data + pos, n);
    pos += n;
    return true;
  }
  bool U8(uint8_t* v) { return Take(v, 1); }
  bool U32(uint32_t* v) { return Take(v, sizeof(*v)); }
  bool U64(uint64_t* v) { return Take(v, sizeof(*v)); }
  bool Bytes(std::string* s) {
    uint32_t n;
    if (!U32(&n) || n > size - pos) return false;
    s->assign(data + pos, n);
    pos += n;
    return true;
  }
  bool Enc(EncValue* ev) {
    uint8_t scheme;
    uint64_t aux;
    if (!U8(&scheme) || scheme > static_cast<uint8_t>(EncScheme::kPaillier) ||
        !U64(&ev->key_id) || !U64(&aux) || !Bytes(&ev->blob)) {
      return false;
    }
    ev->scheme = static_cast<EncScheme>(scheme);
    ev->aux = static_cast<int64_t>(aux);
    return true;
  }
};

Status Corrupt() {
  return Status::InvalidArgument("corrupt segment");
}

/// LSB-first bit packing: value i occupies stream bits
/// [i*width, (i+1)*width); stream bit b lives in byte b/8, bit b%8.
void PackBits(const uint64_t* vals, size_t n, uint8_t width,
              std::string* out) {
  if (width == 0) return;
  size_t nbytes = (n * width + 7) / 8;
  size_t start = out->size();
  out->append(nbytes, '\0');
  auto* bytes = reinterpret_cast<uint8_t*>(&(*out)[start]);
  size_t bit = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t v = width == 64 ? vals[i] : (vals[i] & ((1ull << width) - 1));
    size_t b = bit;
    while (v != 0 || b < bit + width) {
      if (b >= bit + width) break;
      bytes[b / 8] |= static_cast<uint8_t>((v & 1u) << (b % 8));
      v >>= 1;
      ++b;
    }
    bit += width;
  }
}

/// Inverse of PackBits over `n` values; the caller has bounds-checked that
/// `nbytes` bytes are available.
void UnpackBits(const uint8_t* bytes, size_t n, uint8_t width,
                uint64_t* out) {
  if (width == 0) {
    std::fill(out, out + n, 0);
    return;
  }
  size_t bit = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t v = 0;
    for (uint8_t k = 0; k < width; ++k, ++bit) {
      v |= static_cast<uint64_t>((bytes[bit / 8] >> (bit % 8)) & 1u) << k;
    }
    out[i] = v;
  }
}

uint8_t BitsFor(uint64_t v) {
  uint8_t bits = 0;
  while (v != 0) {
    ++bits;
    v >>= 1;
  }
  return bits;
}

/// Int64 page: the cheapest of raw, run-length, and frame-of-reference
/// bit-packing — a deterministic function of the values alone (ties prefer
/// the lower page kind).
void EncodeInt64Page(const std::vector<int64_t>& v, std::string* out) {
  size_t n = v.size();
  uint64_t raw_cost = 1 + 8 * static_cast<uint64_t>(n);

  size_t runs = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i == 0 || v[i] != v[i - 1]) ++runs;
  }
  uint64_t rle_cost = 1 + 4 + 12 * static_cast<uint64_t>(runs);

  int64_t mn = 0, mx = 0;
  if (n > 0) {
    mn = *std::min_element(v.begin(), v.end());
    mx = *std::max_element(v.begin(), v.end());
  }
  uint64_t max_delta =
      static_cast<uint64_t>(mx) - static_cast<uint64_t>(mn);
  uint8_t bw = BitsFor(max_delta);
  uint64_t for_cost =
      1 + 8 + 1 + (static_cast<uint64_t>(n) * bw + 7) / 8;

  if (n > 0 && rle_cost < raw_cost && rle_cost <= for_cost) {
    PutU8(out, kPageRle);
    PutU32(out, static_cast<uint32_t>(runs));
    for (size_t i = 0; i < n;) {
      size_t j = i + 1;
      while (j < n && v[j] == v[i]) ++j;
      PutU64(out, static_cast<uint64_t>(v[i]));
      PutU32(out, static_cast<uint32_t>(j - i));
      i = j;
    }
    return;
  }
  if (n > 0 && for_cost < raw_cost) {
    PutU8(out, kPageFor);
    PutU64(out, static_cast<uint64_t>(mn));
    PutU8(out, bw);
    std::vector<uint64_t> deltas(n);
    for (size_t i = 0; i < n; ++i) {
      deltas[i] = static_cast<uint64_t>(v[i]) - static_cast<uint64_t>(mn);
    }
    PackBits(deltas.data(), n, bw, out);
    return;
  }
  PutU8(out, kPageRaw);
  out->append(reinterpret_cast<const char*>(v.data()), 8 * n);
}

Status DecodeInt64Page(Reader* r, uint64_t num_rows,
                       std::vector<int64_t>* out) {
  uint8_t kind;
  if (!r->U8(&kind)) return Corrupt();
  out->resize(num_rows);
  switch (kind) {
    case kPageRaw:
      if (!r->Take(out->data(), 8 * num_rows)) return Corrupt();
      return Status::OK();
    case kPageRle: {
      uint32_t runs;
      if (!r->U32(&runs)) return Corrupt();
      uint64_t i = 0;
      for (uint32_t k = 0; k < runs; ++k) {
        uint64_t value;
        uint32_t count;
        if (!r->U64(&value) || !r->U32(&count) || count == 0 ||
            count > num_rows - i) {
          return Corrupt();
        }
        std::fill(out->begin() + static_cast<long>(i),
                  out->begin() + static_cast<long>(i + count),
                  static_cast<int64_t>(value));
        i += count;
      }
      if (i != num_rows) return Corrupt();
      return Status::OK();
    }
    case kPageFor: {
      uint64_t base;
      uint8_t bw;
      if (!r->U64(&base) || !r->U8(&bw) || bw > 64) return Corrupt();
      size_t nbytes = (num_rows * bw + 7) / 8;
      if (nbytes > r->size - r->pos) return Corrupt();
      std::vector<uint64_t> deltas(num_rows);
      UnpackBits(reinterpret_cast<const uint8_t*>(r->data + r->pos),
                 num_rows, bw, deltas.data());
      r->pos += nbytes;
      for (uint64_t i = 0; i < num_rows; ++i) {
        (*out)[i] = static_cast<int64_t>(base + deltas[i]);
      }
      return Status::OK();
    }
    default:
      return Corrupt();
  }
}

/// String page: dictionary + bit-packed codes when strictly smaller than
/// the plain length-prefixed payload (deterministic, like the wire format's
/// dictionary decision).
Status EncodeStringPage(const ColumnData& d, std::string* out) {
  size_t n = d.size();
  ColumnDict dict(&d);
  std::vector<uint32_t> codes(n);
  MPQ_RETURN_NOT_OK(dict.EncodeRange(0, n, codes.data()));

  uint64_t plain_cost = 0;
  for (const std::string& s : d.str()) plain_cost += 4 + s.size();
  uint8_t code_bits =
      dict.size() == 0 ? 0 : BitsFor(static_cast<uint64_t>(dict.size() - 1));
  uint64_t dict_cost = 4 + 1 + (static_cast<uint64_t>(n) * code_bits + 7) / 8;
  for (uint32_t k = 0; k < dict.size(); ++k) {
    dict_cost += 4 + d.str()[dict.RepRow(k)].size();
  }

  if (dict_cost < plain_cost) {
    PutU8(out, kStringDict);
    PutU32(out, static_cast<uint32_t>(dict.size()));
    for (uint32_t k = 0; k < dict.size(); ++k) {
      PutBytes(out, d.str()[dict.RepRow(k)]);
    }
    PutU8(out, code_bits);
    std::vector<uint64_t> wide(codes.begin(), codes.end());
    PackBits(wide.data(), n, code_bits, out);
  } else {
    PutU8(out, kStringPlain);
    for (const std::string& s : d.str()) PutBytes(out, s);
  }
  return Status::OK();
}

/// Null mask bit-packing (1 = NULL), (rows + 7) / 8 bytes.
void EncodeNullMask(const ColumnData& d, std::string* out) {
  size_t n = d.size();
  size_t start = out->size();
  out->append((n + 7) / 8, '\0');
  auto* bytes = reinterpret_cast<uint8_t*>(&(*out)[start]);
  for (size_t i = 0; i < n; ++i) {
    if (d.IsNull(i)) bytes[i / 8] |= static_cast<uint8_t>(1u << (i % 8));
  }
}

bool CellIsNull(const Cell& c) {
  return c.is_plain() && c.plain().is_null();
}

/// Footer statistics for one column: null count always; min/max only over
/// plaintext typed reps with no NaN (zone maps must be a total-order bound
/// under Value::Compare, and NaN breaks that order).
SegmentZone ComputeZone(const ExecColumn& col, const ColumnData& d) {
  SegmentZone z;
  z.num_rows = d.size();
  if (d.rep() == ColumnRep::kCell) {
    for (const Cell& c : d.cells()) {
      if (CellIsNull(c)) ++z.null_count;
    }
    return z;
  }
  for (size_t i = 0; i < d.size(); ++i) {
    if (d.IsNull(i)) ++z.null_count;
  }
  if (col.encrypted || z.null_count == d.size()) return z;
  switch (d.rep()) {
    case ColumnRep::kInt64: {
      int64_t mn = 0, mx = 0;
      bool first = true;
      for (size_t i = 0; i < d.size(); ++i) {
        if (d.IsNull(i)) continue;
        int64_t v = d.i64()[i];
        if (first || v < mn) mn = v;
        if (first || v > mx) mx = v;
        first = false;
      }
      z.min = Value(mn);
      z.max = Value(mx);
      z.has_range = true;
      return z;
    }
    case ColumnRep::kDouble: {
      double mn = 0, mx = 0;
      bool first = true;
      for (size_t i = 0; i < d.size(); ++i) {
        if (d.IsNull(i)) continue;
        double v = d.f64()[i];
        if (v != v) return z;  // NaN: no usable range
        if (first || v < mn) mn = v;
        if (first || v > mx) mx = v;
        first = false;
      }
      z.min = Value(mn);
      z.max = Value(mx);
      z.has_range = true;
      return z;
    }
    case ColumnRep::kString: {
      const std::string* mn = nullptr;
      const std::string* mx = nullptr;
      for (size_t i = 0; i < d.size(); ++i) {
        if (d.IsNull(i)) continue;
        const std::string& v = d.str()[i];
        if (mn == nullptr || v < *mn) mn = &v;
        if (mx == nullptr || v > *mx) mx = &v;
      }
      z.min = Value(*mn);
      z.max = Value(*mx);
      z.has_range = true;
      return z;
    }
    default:
      return z;
  }
}

}  // namespace

Result<std::string> EncodeSegment(const Table& t) {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  PutU8(&out, kVersion);
  PutU64(&out, t.num_rows());
  PutU32(&out, static_cast<uint32_t>(t.num_columns()));

  struct Entry {
    uint64_t page_offset;
    uint64_t page_len;
    SegmentZone zone;
  };
  std::vector<Entry> entries;
  entries.reserve(t.num_columns());

  for (size_t c = 0; c < t.num_columns(); ++c) {
    const ColumnData& d = t.col(c);
    Entry e;
    e.page_offset = out.size();
    e.zone = ComputeZone(t.columns()[c], d);
    if (d.has_nulls()) EncodeNullMask(d, &out);
    switch (d.rep()) {
      case ColumnRep::kInt64:
        EncodeInt64Page(d.i64(), &out);
        break;
      case ColumnRep::kDouble:
        out.append(reinterpret_cast<const char*>(d.f64().data()),
                   8 * d.size());
        break;
      case ColumnRep::kString:
        MPQ_RETURN_NOT_OK(EncodeStringPage(d, &out));
        break;
      case ColumnRep::kEnc:
        for (const EncValue& ev : d.enc()) PutEnc(&out, ev);
        break;
      case ColumnRep::kCell:
        for (const Cell& cell : d.cells()) {
          PutU8(&out, cell.is_encrypted() ? 1 : 0);
          if (cell.is_encrypted()) {
            PutEnc(&out, cell.enc());
          } else {
            PutBytes(&out, cell.plain().Serialize());
          }
        }
        break;
    }
    e.page_len = out.size() - e.page_offset;
    entries.push_back(std::move(e));
  }

  uint64_t footer_offset = out.size();
  for (size_t c = 0; c < t.num_columns(); ++c) {
    const ExecColumn& col = t.columns()[c];
    const ColumnData& d = t.col(c);
    const Entry& e = entries[c];
    PutU32(&out, col.attr);
    PutBytes(&out, col.name);
    PutU8(&out, static_cast<uint8_t>(col.type));
    PutU8(&out, col.encrypted ? 1 : 0);
    PutU8(&out, static_cast<uint8_t>(col.scheme));
    PutU64(&out, col.key_id);
    PutU8(&out, col.hom_avg ? 1 : 0);
    PutU8(&out, static_cast<uint8_t>(d.rep()));
    PutU8(&out, d.has_nulls() ? 1 : 0);
    PutU64(&out, e.page_offset);
    PutU64(&out, e.page_len);
    PutU64(&out, e.zone.null_count);
    PutU8(&out, e.zone.has_range ? 1 : 0);
    if (e.zone.has_range) {
      PutBytes(&out, e.zone.min.Serialize());
      PutBytes(&out, e.zone.max.Serialize());
    }
  }
  PutU64(&out, footer_offset);
  PutU64(&out, HashBytes(out.data(), out.size()));
  return out;
}

bool ZoneMayMatch(const SegmentZone& z, CmpOp op, const Value& v) {
  // NULL rows satisfy exactly the predicates EvalCmp(op, NULL, v) does
  // (NULLs sort before every non-null value in the engine's total order).
  if (z.null_count > 0 && EvalCmp(op, Value::Null(), v)) return true;
  if (z.null_count >= z.num_rows) return false;  // no non-null rows left
  if (!z.has_range) return true;                 // no stats: assume a match
  switch (op) {
    case CmpOp::kEq:
      return EvalCmp(CmpOp::kLe, z.min, v) && EvalCmp(CmpOp::kGe, z.max, v);
    case CmpOp::kNe:
      // Only an all-equal segment whose single value is v has no kNe row.
      return !(EvalCmp(CmpOp::kEq, z.min, v) &&
               EvalCmp(CmpOp::kEq, z.max, v));
    case CmpOp::kLt:
      return EvalCmp(CmpOp::kLt, z.min, v);
    case CmpOp::kLe:
      return EvalCmp(CmpOp::kLe, z.min, v);
    case CmpOp::kGt:
      return EvalCmp(CmpOp::kGt, z.max, v);
    case CmpOp::kGe:
      return EvalCmp(CmpOp::kGe, z.max, v);
  }
  return true;
}

Result<SegmentReader> SegmentReader::Open(std::string bytes) {
  SegmentReader sr;
  sr.bytes_ = std::move(bytes);
  const std::string& b = sr.bytes_;
  if (b.size() < kHeaderSize + kTrailerSize) return Corrupt();

  uint64_t stored_sum;
  std::memcpy(&stored_sum, b.data() + b.size() - 8, 8);
  if (HashBytes(b.data(), b.size() - 8) != stored_sum) return Corrupt();

  Reader r{b.data(), b.size() - kTrailerSize};
  char magic[4];
  uint8_t version;
  uint32_t num_cols;
  if (!r.Take(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0 || !r.U8(&version) ||
      version != kVersion || !r.U64(&sr.num_rows_) || !r.U32(&num_cols)) {
    return Corrupt();
  }
  if (sr.num_rows_ > kMaxSegmentRows) return Corrupt();

  uint64_t footer_offset;
  std::memcpy(&footer_offset, b.data() + b.size() - 16, 8);
  if (footer_offset < kHeaderSize ||
      footer_offset > b.size() - kTrailerSize) {
    return Corrupt();
  }

  Reader f{b.data(), b.size() - kTrailerSize, footer_offset};
  for (uint32_t c = 0; c < num_cols; ++c) {
    ColumnEntry e;
    uint8_t type, encrypted, scheme, hom_avg, has_nulls, has_range;
    uint64_t null_count;
    if (!f.U32(&e.meta.attr) || !f.Bytes(&e.meta.name) || !f.U8(&type) ||
        type > static_cast<uint8_t>(DataType::kString) || !f.U8(&encrypted) ||
        !f.U8(&scheme) ||
        scheme > static_cast<uint8_t>(EncScheme::kPaillier) ||
        !f.U64(&e.meta.key_id) || !f.U8(&hom_avg) || !f.U8(&e.rep) ||
        e.rep > static_cast<uint8_t>(ColumnRep::kCell) || !f.U8(&has_nulls) ||
        !f.U64(&e.page_offset) || !f.U64(&e.page_len) ||
        !f.U64(&null_count) || !f.U8(&has_range)) {
      return Corrupt();
    }
    e.meta.type = static_cast<DataType>(type);
    e.meta.encrypted = encrypted != 0;
    e.meta.scheme = static_cast<EncScheme>(scheme);
    e.meta.hom_avg = hom_avg != 0;
    e.has_nulls = has_nulls != 0;
    if (e.page_offset < kHeaderSize || e.page_len > footer_offset ||
        e.page_offset > footer_offset - e.page_len) {
      return Corrupt();
    }
    if (null_count > sr.num_rows_) return Corrupt();
    SegmentZone z;
    z.null_count = null_count;
    z.num_rows = sr.num_rows_;
    if (has_range != 0) {
      std::string mn, mx;
      if (!f.Bytes(&mn) || !f.Bytes(&mx)) return Corrupt();
      Result<Value> vmin = Value::Deserialize(mn);
      Result<Value> vmax = Value::Deserialize(mx);
      if (!vmin.ok() || !vmax.ok()) return Corrupt();
      z.min = std::move(*vmin);
      z.max = std::move(*vmax);
      z.has_range = true;
    }
    sr.columns_.push_back(e.meta);
    sr.entries_.push_back(std::move(e));
    sr.zones_.push_back(std::move(z));
  }
  if (f.pos != b.size() - kTrailerSize) return Corrupt();
  return sr;
}

Result<Table> SegmentReader::Decode() const {
  Table t;
  uint64_t num_rows = num_rows_;
  for (size_t c = 0; c < entries_.size(); ++c) {
    const ColumnEntry& e = entries_[c];
    Reader r{bytes_.data() + e.page_offset, static_cast<size_t>(e.page_len)};
    std::vector<uint8_t> nulls;
    if (e.has_nulls) {
      size_t nbytes = (num_rows + 7) / 8;
      if (nbytes > r.size - r.pos) return Corrupt();
      nulls.resize(num_rows);
      const auto* mb = reinterpret_cast<const uint8_t*>(r.data + r.pos);
      for (uint64_t i = 0; i < num_rows; ++i) {
        nulls[i] = (mb[i / 8] >> (i % 8)) & 1u;
      }
      r.pos += nbytes;
    }
    auto row_null = [&](uint64_t i) { return e.has_nulls && nulls[i] != 0; };
    ColumnData d(static_cast<ColumnRep>(e.rep));
    d.Reserve(num_rows);
    switch (static_cast<ColumnRep>(e.rep)) {
      case ColumnRep::kInt64: {
        std::vector<int64_t> vals;
        MPQ_RETURN_NOT_OK(DecodeInt64Page(&r, num_rows, &vals));
        for (uint64_t i = 0; i < num_rows; ++i) {
          if (row_null(i)) {
            d.AppendNull();
          } else {
            d.AppendValue(Value(vals[i]));
          }
        }
        break;
      }
      case ColumnRep::kDouble:
        for (uint64_t i = 0; i < num_rows; ++i) {
          double v;
          if (!r.Take(&v, sizeof(v))) return Corrupt();
          if (row_null(i)) {
            d.AppendNull();
          } else {
            d.AppendValue(Value(v));
          }
        }
        break;
      case ColumnRep::kString: {
        uint8_t encoding;
        if (!r.U8(&encoding)) return Corrupt();
        if (encoding == kStringDict) {
          uint32_t num_values;
          if (!r.U32(&num_values) || num_values > e.page_len) return Corrupt();
          std::vector<std::string> values(num_values);
          for (uint32_t k = 0; k < num_values; ++k) {
            if (!r.Bytes(&values[k])) return Corrupt();
          }
          uint8_t code_bits;
          if (!r.U8(&code_bits) || code_bits > 32) return Corrupt();
          size_t nbytes = (num_rows * code_bits + 7) / 8;
          if (nbytes > r.size - r.pos) return Corrupt();
          std::vector<uint64_t> codes(num_rows);
          UnpackBits(reinterpret_cast<const uint8_t*>(r.data + r.pos),
                     num_rows, code_bits, codes.data());
          r.pos += nbytes;
          for (uint64_t i = 0; i < num_rows; ++i) {
            if (row_null(i)) {
              d.AppendNull();  // a null row's code is padding
            } else if (codes[i] >= num_values) {
              return Corrupt();
            } else {
              d.AppendValue(Value(values[codes[i]]));
            }
          }
        } else if (encoding == kStringPlain) {
          for (uint64_t i = 0; i < num_rows; ++i) {
            std::string s;
            if (!r.Bytes(&s)) return Corrupt();
            if (row_null(i)) {
              d.AppendNull();
            } else {
              d.AppendValue(Value(std::move(s)));
            }
          }
        } else {
          return Corrupt();
        }
        break;
      }
      case ColumnRep::kEnc:
        for (uint64_t i = 0; i < num_rows; ++i) {
          EncValue ev;
          if (!r.Enc(&ev)) return Corrupt();
          if (row_null(i)) {
            d.AppendNull();
          } else {
            d.Append(Cell(std::move(ev)));
          }
        }
        break;
      case ColumnRep::kCell:
        for (uint64_t i = 0; i < num_rows; ++i) {
          uint8_t is_enc;
          if (!r.U8(&is_enc)) return Corrupt();
          if (is_enc) {
            EncValue ev;
            if (!r.Enc(&ev)) return Corrupt();
            d.Append(Cell(std::move(ev)));
          } else {
            std::string s;
            if (!r.Bytes(&s)) return Corrupt();
            MPQ_ASSIGN_OR_RETURN(Value v, Value::Deserialize(s));
            d.Append(Cell(std::move(v)));
          }
        }
        break;
      default:
        return Corrupt();
    }
    if (r.pos != r.size || d.size() != num_rows) return Corrupt();
    t.AddColumn(columns_[c], std::move(d));
  }
  if (entries_.empty()) t.num_rows_ = num_rows;
  return t;
}

Result<SegmentedTable> SegmentedTable::FromTable(const Table& t,
                                                 size_t rows_per_segment) {
  if (rows_per_segment == 0) rows_per_segment = std::max<size_t>(t.num_rows(), 1);
  SegmentedTable st;
  st.columns_ = t.columns();
  st.total_rows_ = t.num_rows();
  size_t num_segments =
      std::max<size_t>(1, (t.num_rows() + rows_per_segment - 1) /
                              rows_per_segment);
  for (size_t s = 0; s < num_segments; ++s) {
    size_t begin = s * rows_per_segment;
    size_t end = std::min(begin + rows_per_segment, t.num_rows());
    Table slice;
    for (size_t c = 0; c < t.num_columns(); ++c) {
      ColumnData part(t.col(c).rep());
      part.AppendRange(t.col(c), begin, end);
      slice.AddColumn(t.columns()[c], std::move(part));
    }
    if (t.num_columns() == 0) slice.num_rows_ = end - begin;
    MPQ_ASSIGN_OR_RETURN(std::string bytes, EncodeSegment(slice));
    MPQ_ASSIGN_OR_RETURN(SegmentReader sr, SegmentReader::Open(std::move(bytes)));
    st.segments_.push_back(std::move(sr));
  }
  return st;
}

uint64_t SegmentedTable::encoded_bytes() const {
  uint64_t total = 0;
  for (const SegmentReader& s : segments_) total += s.encoded_size();
  return total;
}

Result<Table> SegmentedTable::Decode() const {
  Table out;
  bool first = true;
  for (const SegmentReader& s : segments_) {
    MPQ_ASSIGN_OR_RETURN(Table part, s.Decode());
    if (first) {
      out = std::move(part);
      first = false;
      continue;
    }
    for (size_t c = 0; c < out.num_columns(); ++c) {
      out.col_mut(c).MoveAppend(std::move(part.col_mut(c)));
    }
    out.num_rows_ += part.num_rows();
  }
  return out;
}

Result<const Table*> SegmentedTable::Materialize() const {
  std::lock_guard<std::mutex> lock(memo_->mu);
  if (memo_->table == nullptr) {
    MPQ_ASSIGN_OR_RETURN(Table t, Decode());
    memo_->table = std::make_unique<Table>(std::move(t));
  }
  return memo_->table.get();
}

}  // namespace mpq
