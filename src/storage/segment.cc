#include "storage/segment.h"

#include <algorithm>
#include <cstring>
#include <string_view>
#include <type_traits>

#include "common/flat_hash.h"
#include "exec/column.h"

namespace mpq {

namespace {

constexpr char kMagic[4] = {'M', 'P', 'Q', 'S'};
// v2: bulk pages (word-at-a-time bit packing and checksum) and ciphertext
// pages without per-cell metadata.
constexpr uint8_t kVersion = 2;
/// Header: magic + version + u64 rows + u32 cols.
constexpr size_t kHeaderSize = 4 + 1 + 8 + 4;
/// Trailer: u64 footer offset + u64 checksum.
constexpr size_t kTrailerSize = 16;
/// Row-count sanity cap: a claimed count past this is corrupt, rejected
/// before any row-count-sized allocation. (Compressed pages can cost far
/// less than a byte per row, so the frame size does not bound the count;
/// each page checks its own row-proportional bytes before allocating.)
constexpr uint64_t kMaxSegmentRows = 1ull << 31;

// Int64 page kinds.
constexpr uint8_t kPageRaw = 0;
constexpr uint8_t kPageRle = 1;
constexpr uint8_t kPageFor = 2;  // frame-of-reference bit-packing

// String page encodings.
constexpr uint8_t kStringPlain = 0;
constexpr uint8_t kStringDict = 1;

/// Ciphertext page width marker: blob lengths differ, a length per row
/// follows.
constexpr uint32_t kVarWidth = 0xffffffffu;

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void PutBytes(std::string* out, std::string_view s) {
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

  size_t left() const { return size - pos; }  // pos <= size always holds
  /// Claims `n` bytes in place; null when fewer remain.
  const char* Skip(uint64_t n) {
    if (n > left()) return nullptr;
    pos += n;
    return data + pos - n;
  }
  bool Take(void* dst, size_t n) {
    const char* at = Skip(n);
    if (at != nullptr && n > 0) std::memcpy(dst, at, n);
    return at != nullptr;
  }
  bool U8(uint8_t* v) { return Take(v, 1); }
  bool U32(uint32_t* v) { return Take(v, sizeof(*v)); }
  bool U64(uint64_t* v) { return Take(v, sizeof(*v)); }
  bool View(std::string_view* s) {
    uint32_t n;
    if (!U32(&n)) return false;
    const char* at = Skip(n);
    if (at == nullptr) return false;
    *s = std::string_view(at, n);
    return true;
  }
  bool Bytes(std::string* s) {
    std::string_view v;
    if (!View(&v)) return false;
    s->assign(v);
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

}  // namespace

/// Frame checksum, a 64-bit word at a time over four interleaved lanes:
/// word k (the 0-7 byte tail zero-padded into one last word) is xored into
/// lane k % 4 and mixed by an odd multiply and a xorshift, then the lanes
/// fold together with the length. Every step is a bijection of its lane
/// given the others, so frames differing in one word always differ in
/// checksum.
uint64_t SegmentChecksum(const char* p, size_t n) {
  uint64_t lane[4] = {0x9e3779b97f4a7c15ull, 0xbf58476d1ce4e5b9ull,
                      0x94d049bb133111ebull, 0xff51afd7ed558ccdull};
  auto step = [](uint64_t h, uint64_t w) {
    h = (h ^ w) * 0xff51afd7ed558ccdull;
    return h ^ (h >> 32);
  };
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    for (int l = 0; l < 4; ++l) {
      uint64_t w;
      std::memcpy(&w, p + i + 8 * l, 8);
      lane[l] = step(lane[l], w);
    }
  }
  int l = 0;
  for (; i + 8 <= n; i += 8, ++l) {
    uint64_t w;
    std::memcpy(&w, p + i, 8);
    lane[l] = step(lane[l], w);
  }
  if (i < n) {
    uint64_t w = 0;
    std::memcpy(&w, p + i, n - i);
    lane[l] = step(lane[l], w);
  }
  uint64_t h = n;
  for (uint64_t l : lane) h = step(h, l);
  return HashMix64(h);
}

namespace {

size_t PackedBytes(uint64_t n, uint8_t width) { return (n * width + 7) / 8; }

/// LSB-first bit packing of `vals[i] - base`: value i occupies stream bits
/// [i*width, (i+1)*width); stream bit b lives in byte b/8, bit b%8. Whole
/// little-endian words are flushed as they fill.
template <typename T>
void PackBits(const T* vals, size_t n, uint8_t width, uint64_t base,
              std::string* out) {
  if (width == 0) return;
  size_t start = out->size();
  out->resize(start + PackedBytes(n, width));
  char* dst = &(*out)[start];
  uint64_t mask = width == 64 ? ~0ull : (1ull << width) - 1;
  uint64_t acc = 0;
  unsigned filled = 0;  // bits of acc in use, < 64
  for (size_t i = 0; i < n; ++i) {
    uint64_t v = (static_cast<uint64_t>(vals[i]) - base) & mask;
    acc |= v << filled;
    if (filled + width >= 64) {
      std::memcpy(dst, &acc, 8);
      dst += 8;
      acc = filled == 0 ? 0 : v >> (64 - filled);
      filled = filled + width - 64;
    } else {
      filled += width;
    }
  }
  std::memcpy(dst, &acc, (filled + 7) / 8);
}

/// Inverse of PackBits: out[i] = base + value i, for `n` values of the
/// PackedBytes(n, width) bytes at `bytes` (bounds-checked by the caller).
/// Each value is one unaligned word load, shifted and masked; only values
/// straddling the stream's last word take the byte-wise tail load.
void UnpackBits(const char* bytes, size_t n, uint8_t width, uint64_t base,
                uint64_t* out) {
  if (width == 0) {
    std::fill(out, out + n, base);
    return;
  }
  size_t nbytes = PackedBytes(n, width);
  uint64_t mask = width == 64 ? ~0ull : (1ull << width) - 1;
  auto load = [&](size_t at) {
    uint64_t w = 0;
    std::memcpy(&w, bytes + at, std::min<size_t>(8, nbytes - at));
    return w;
  };
  for (size_t i = 0; i < n; ++i) {
    uint64_t bit = static_cast<uint64_t>(i) * width;
    size_t at = bit / 8;
    unsigned shift = bit % 8;
    uint64_t w;
    if (at + 8 <= nbytes) {
      std::memcpy(&w, bytes + at, 8);
    } else {
      w = load(at);
    }
    w >>= shift;
    if (shift + width > 64) w |= load(at + 8) << (64 - shift);
    out[i] = base + (w & mask);
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

  size_t runs = n > 0 ? 1 : 0;
  int64_t mn = n > 0 ? v[0] : 0, mx = mn;
  for (size_t i = 1; i < n; ++i) {
    runs += v[i] != v[i - 1] ? 1 : 0;
    mn = std::min(mn, v[i]);
    mx = std::max(mx, v[i]);
  }
  uint64_t rle_cost = 1 + 4 + 12 * static_cast<uint64_t>(runs);

  uint64_t max_delta =
      static_cast<uint64_t>(mx) - static_cast<uint64_t>(mn);
  uint8_t bw = BitsFor(max_delta);
  uint64_t for_cost = 1 + 8 + 1 + PackedBytes(n, bw);

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
    PackBits(v.data(), n, bw, static_cast<uint64_t>(mn), out);
    return;
  }
  PutU8(out, kPageRaw);
  out->append(reinterpret_cast<const char*>(v.data()), 8 * n);
}

Status DecodeInt64Page(Reader* r, uint64_t num_rows,
                       std::vector<int64_t>* out) {
  uint8_t kind;
  if (!r->U8(&kind)) return Corrupt();
  switch (kind) {
    case kPageRaw: {
      const char* raw = r->Skip(8 * num_rows);
      if (raw == nullptr) return Corrupt();
      out->resize(num_rows);
      if (num_rows > 0) std::memcpy(out->data(), raw, 8 * num_rows);
      return Status::OK();
    }
    case kPageRle: {
      // Grows with the runs actually present, never with the claimed count.
      uint32_t runs;
      if (!r->U32(&runs) || runs > num_rows) return Corrupt();
      for (uint32_t k = 0; k < runs; ++k) {
        uint64_t value;
        uint32_t count;
        if (!r->U64(&value) || !r->U32(&count) || count == 0 ||
            count > num_rows - out->size()) {
          return Corrupt();
        }
        out->insert(out->end(), count, static_cast<int64_t>(value));
      }
      return out->size() == num_rows ? Status::OK() : Corrupt();
    }
    case kPageFor: {
      uint64_t base;
      uint8_t bw;
      if (!r->U64(&base) || !r->U8(&bw) || bw > 64) return Corrupt();
      const char* packed = r->Skip(PackedBytes(num_rows, bw));
      if (packed == nullptr) return Corrupt();
      out->resize(num_rows);
      // int64_t and uint64_t may alias: unpack straight into the vector.
      UnpackBits(packed, num_rows, bw, base,
                 reinterpret_cast<uint64_t*>(out->data()));
      return Status::OK();
    }
    default:
      return Corrupt();
  }
}

/// String page: dictionary + bit-packed codes when strictly smaller than
/// the plain length-prefixed payload (a deterministic function of the
/// column content).
Status EncodeStringPage(const ColumnData& d, std::string* out) {
  size_t n = d.size();
  ColumnDict dict(&d);
  std::vector<uint32_t> codes(n);
  MPQ_RETURN_NOT_OK(dict.EncodeRange(0, n, codes.data()));

  uint64_t plain_cost = 0;
  for (const std::string& s : d.str()) plain_cost += 4 + s.size();
  uint8_t code_bits =
      dict.size() == 0 ? 0 : BitsFor(static_cast<uint64_t>(dict.size() - 1));
  uint64_t dict_cost = 4 + 1 + PackedBytes(n, code_bits);
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
    PackBits(codes.data(), n, code_bits, 0, out);
  } else {
    PutU8(out, kStringPlain);
    for (const std::string& s : d.str()) PutBytes(out, s);
  }
  return Status::OK();
}

Status DecodeStringPage(Reader* r, uint64_t num_rows,
                        const std::vector<uint8_t>& nulls,
                        std::vector<std::string>* out) {
  uint8_t encoding;
  if (!r->U8(&encoding)) return Corrupt();
  if (encoding == kStringPlain) {
    if (num_rows > r->left() / 4) return Corrupt();  // >= 4 bytes per row
    out->reserve(num_rows);
    for (uint64_t i = 0; i < num_rows; ++i) {
      std::string_view v;
      if (!r->View(&v)) return Corrupt();
      out->emplace_back(v);
    }
    return Status::OK();
  }
  if (encoding != kStringDict) return Corrupt();
  uint32_t num_values;
  if (!r->U32(&num_values) || num_values > r->left() / 4) return Corrupt();
  std::vector<std::string_view> values(num_values);
  for (uint32_t k = 0; k < num_values; ++k) {
    if (!r->View(&values[k])) return Corrupt();
  }
  uint8_t code_bits;
  if (!r->U8(&code_bits) || code_bits > 32) return Corrupt();
  const char* packed = r->Skip(PackedBytes(num_rows, code_bits));
  if (packed == nullptr) return Corrupt();
  std::vector<uint64_t> codes(num_rows);
  UnpackBits(packed, num_rows, code_bits, 0, codes.data());
  out->reserve(num_rows);
  for (uint64_t i = 0; i < num_rows; ++i) {
    bool null = !nulls.empty() && nulls[i] != 0;  // its code is padding
    if (!null && codes[i] >= num_values) return Corrupt();
    out->emplace_back(null ? std::string_view() : values[codes[i]]);
  }
  return Status::OK();
}

/// Ciphertext page: the column's scheme and key once, then its blobs back
/// to back — preceded by one length per row only when the non-NULL blobs
/// differ in length — then the aux counters when some non-NULL row's is
/// not 1. NULL rows contribute no blob bytes.
void EncodeEncPage(const ColumnData& d, std::string* out) {
  size_t n = d.size();
  const std::vector<uint32_t>& ends = d.enc_ends();
  bool any_row = false;
  bool fixed = true;
  bool aux = false;
  uint32_t width = 0;
  for (size_t i = 0; i < n; ++i) {
    if (d.IsNull(i)) continue;
    auto len = static_cast<uint32_t>(d.EncBlob(i).size());
    if (!any_row) width = len;
    fixed = fixed && len == width;
    aux = aux || (!d.enc_aux().empty() && d.enc_aux()[i] != 1);
    any_row = true;
  }
  // A column with no ciphertext row has no meaningful (scheme, key).
  PutU8(out, any_row ? static_cast<uint8_t>(d.enc_scheme()) : 0);
  PutU64(out, any_row ? d.enc_key_id() : 0);
  PutU32(out, fixed ? width : kVarWidth);
  if (!fixed) {
    for (size_t i = 0; i < n; ++i) {
      PutU32(out, ends[i] - (i == 0 ? 0 : ends[i - 1]));
    }
  }
  out->append(d.enc_arena());
  PutU8(out, aux ? 1 : 0);
  if (aux) {
    for (size_t i = 0; i < n; ++i) {
      PutU64(out, static_cast<uint64_t>(d.IsNull(i) ? 1 : d.enc_aux()[i]));
    }
  }
}

Result<ColumnData> DecodeEncPage(Reader* r, uint64_t num_rows,
                                 std::vector<uint8_t> nulls) {
  uint8_t scheme;
  uint64_t key_id;
  uint32_t width;
  if (!r->U8(&scheme) || scheme > static_cast<uint8_t>(EncScheme::kPaillier) ||
      !r->U64(&key_id) || !r->U32(&width)) {
    return Corrupt();
  }
  auto is_null = [&](uint64_t i) { return !nulls.empty() && nulls[i] != 0; };
  std::vector<uint32_t> ends;
  uint64_t total = 0;
  if (width == kVarWidth) {
    const char* lens = r->Skip(4 * num_rows);
    if (lens == nullptr) return Corrupt();
    ends.resize(num_rows);
    for (uint64_t i = 0; i < num_rows; ++i) {
      uint32_t len;
      std::memcpy(&len, lens + 4 * i, 4);
      if (is_null(i) && len != 0) return Corrupt();
      total += len;
      if (total > r->left()) return Corrupt();
      ends[i] = static_cast<uint32_t>(total);
    }
  } else {
    uint64_t rows_with_blobs = num_rows;
    for (uint8_t b : nulls) rows_with_blobs -= b != 0 ? 1 : 0;
    if (width != 0 && rows_with_blobs > r->left() / width) return Corrupt();
    ends.resize(num_rows);
    for (uint64_t i = 0; i < num_rows; ++i) {
      if (!is_null(i)) total += width;
      ends[i] = static_cast<uint32_t>(total);
    }
  }
  const char* blobs = r->Skip(total);
  if (blobs == nullptr || total > 0xffffffffull) return Corrupt();
  uint8_t has_aux;
  if (!r->U8(&has_aux) || has_aux > 1) return Corrupt();
  std::vector<int64_t> aux;
  if (has_aux != 0) {
    const char* at = r->Skip(8 * num_rows);
    if (at == nullptr) return Corrupt();
    aux.resize(num_rows);
    if (num_rows > 0) std::memcpy(aux.data(), at, 8 * num_rows);
  }
  return ColumnData::FromEnc(static_cast<EncScheme>(scheme), key_id,
                             std::string(blobs, total), std::move(ends),
                             std::move(aux), std::move(nulls));
}

/// Null mask bit-packing (1 = NULL), (rows + 7) / 8 bytes.
void EncodeNullMask(const ColumnData& d, std::string* out) {
  size_t n = d.size();
  size_t start = out->size();
  out->append((n + 7) / 8, '\0');
  auto* bytes = reinterpret_cast<uint8_t*>(&(*out)[start]);
  for (size_t i = 0; i < n; ++i) {
    bytes[i / 8] |= static_cast<uint8_t>((d.IsNull(i) ? 1u : 0u) << (i % 8));
  }
}

bool CellIsNull(const Cell& c) {
  return c.is_plain() && c.plain().is_null();
}

/// Sets `z`'s range to the first-occurrence min and max over the non-null
/// rows of `vals` (some row is non-null): numbers tracked by value, strings
/// by row.
template <typename T>
void SetRange(const ColumnData& d, const std::vector<T>& vals,
              SegmentZone* z) {
  size_t lo = 0;
  while (d.IsNull(lo)) ++lo;
  size_t hi = lo;
  if constexpr (std::is_arithmetic_v<T>) {
    T mn = vals[lo], mx = vals[lo];
    for (size_t i = lo + 1; i < vals.size(); ++i) {
      if (d.IsNull(i)) continue;
      mn = vals[i] < mn ? vals[i] : mn;
      mx = mx < vals[i] ? vals[i] : mx;
    }
    z->min = Value(mn);
    z->max = Value(mx);
  } else {
    for (size_t i = lo + 1; i < vals.size(); ++i) {
      if (d.IsNull(i)) continue;
      lo = vals[i] < vals[lo] ? i : lo;
      hi = vals[hi] < vals[i] ? i : hi;
    }
    z->min = Value(vals[lo]);
    z->max = Value(vals[hi]);
  }
  z->has_range = true;
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
  const std::vector<uint8_t>& mask = d.null_mask();
  z.null_count = mask.empty() ? 0
                              : d.size() - static_cast<uint64_t>(std::count(
                                               mask.begin(), mask.end(), 0));
  if (col.encrypted || z.null_count == d.size()) return z;
  switch (d.rep()) {
    case ColumnRep::kInt64:
      SetRange(d, d.i64(), &z);
      break;
    case ColumnRep::kDouble:
      for (size_t i = 0; i < d.size(); ++i) {
        double v = d.f64()[i];
        if (!d.IsNull(i) && v != v) return z;  // NaN: no usable range
      }
      SetRange(d, d.f64(), &z);
      break;
    case ColumnRep::kString:
      SetRange(d, d.str(), &z);
      break;
    default:
      break;
  }
  return z;
}

}  // namespace

Result<std::string> EncodeSegment(const Table& t) {
  std::string out;
  // Pages rarely outgrow the payload accounting; reserving it up front
  // spares the frame its growth copies.
  out.reserve(t.ByteSize() + 128 * (t.num_columns() + 1));
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
        EncodeEncPage(d, &out);
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
  PutU64(&out, SegmentChecksum(out.data(), out.size()));
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
  if (SegmentChecksum(b.data(), b.size() - 8) != stored_sum) return Corrupt();

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
      const char* mask = r.Skip((num_rows + 7) / 8);
      if (mask == nullptr) return Corrupt();
      const auto* mb = reinterpret_cast<const uint8_t*>(mask);
      nulls.resize(num_rows);
      for (uint64_t i = 0; i < num_rows; ++i) {
        nulls[i] = (mb[i / 8] >> (i % 8)) & 1u;
      }
    }
    ColumnData d;
    switch (static_cast<ColumnRep>(e.rep)) {
      case ColumnRep::kInt64: {
        std::vector<int64_t> vals;
        MPQ_RETURN_NOT_OK(DecodeInt64Page(&r, num_rows, &vals));
        d = ColumnData::FromVector(std::move(vals), std::move(nulls));
        break;
      }
      case ColumnRep::kDouble: {
        const char* raw = r.Skip(8 * num_rows);
        if (raw == nullptr) return Corrupt();
        std::vector<double> vals(num_rows);
        if (num_rows > 0) std::memcpy(vals.data(), raw, 8 * num_rows);
        d = ColumnData::FromVector(std::move(vals), std::move(nulls));
        break;
      }
      case ColumnRep::kString: {
        std::vector<std::string> vals;
        MPQ_RETURN_NOT_OK(DecodeStringPage(&r, num_rows, nulls, &vals));
        d = ColumnData::FromVector(std::move(vals), std::move(nulls));
        break;
      }
      case ColumnRep::kEnc: {
        MPQ_ASSIGN_OR_RETURN(d, DecodeEncPage(&r, num_rows, std::move(nulls)));
        break;
      }
      case ColumnRep::kCell:
        // At least 5 bytes per cell (a tag and a length).
        if (num_rows > r.left() / 5) return Corrupt();
        d = ColumnData(ColumnRep::kCell);
        d.Reserve(num_rows);
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
