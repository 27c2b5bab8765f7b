#include "crypto/column_codec.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "crypto/cipher.h"
#include "crypto/ope.h"

namespace mpq {

namespace {

Status NoMaterial(uint64_t key_id, const char* op) {
  return Status::NotFound("column codec for key " + std::to_string(key_id) +
                          " holds only the public modulus: cannot " + op);
}

Status OpeNotNumeric() {
  return Status::Unsupported("OPE supports numeric values only");
}

/// The status EncryptValue returns for a string under OPE or Paillier.
Status NotNumeric(EncScheme scheme) {
  return scheme == EncScheme::kOpe
             ? OpeNotNumeric()
             : Status::Unsupported("Paillier supports numeric values only");
}

bool TypedRep(ColumnRep rep) {
  return rep == ColumnRep::kInt64 || rep == ColumnRep::kDouble ||
         rep == ColumnRep::kString;
}

/// Length of typed row `r` as Value::Serialize lays it out: a tag byte,
/// then 8 bytes of int64/double or the string's bytes ('N' alone for
/// NULL).
uint32_t SerializedLen(const ColumnData& src, size_t r) {
  if (src.IsNull(r)) return 1;
  if (src.rep() == ColumnRep::kString) {
    return 1 + static_cast<uint32_t>(src.str()[r].size());
  }
  return 9;
}

/// Writes typed row `r` as Value::Serialize does into `out`.
void SerializeTo(const ColumnData& src, size_t r, char* out) {
  if (src.IsNull(r)) {
    out[0] = 'N';
  } else if (src.rep() == ColumnRep::kString) {
    out[0] = 'S';
    std::memcpy(out + 1, src.str()[r].data(), src.str()[r].size());
  } else if (src.rep() == ColumnRep::kInt64) {
    out[0] = 'I';
    std::memcpy(out + 1, &src.i64()[r], 8);
  } else {
    out[0] = 'D';
    std::memcpy(out + 1, &src.f64()[r], 8);
  }
}

/// The fixed-point integer typed numeric row `r` encrypts as under OPE and
/// Paillier.
int64_t NumericAt(const ColumnData& src, size_t r) {
  return src.rep() == ColumnRep::kInt64 ? src.i64()[r]
                                        : ToFixedPoint(src.f64()[r]);
}

/// One span's decrypted rows, collected into the typed rep ColumnFromCells
/// picks: that of the first non-NULL row. Rows start NULL; a put of
/// another type than the rep's fails, so the caller can fall back to
/// cells.
class SpanBuilder {
 public:
  explicit SpanBuilder(size_t n) : n_(n), nulls_(n, 1) {}

  bool Int(size_t k, int64_t v) {
    if (!Claim(k, ColumnRep::kInt64)) return false;
    i64_[k] = v;
    return true;
  }
  bool Double(size_t k, double v) {
    if (!Claim(k, ColumnRep::kDouble)) return false;
    f64_[k] = v;
    return true;
  }
  bool String(size_t k, const char* p, size_t len) {
    if (!Claim(k, ColumnRep::kString)) return false;
    str_[k].assign(p, len);
    return true;
  }
  bool Put(size_t k, const Value& v) {
    if (v.is_null()) return true;
    if (v.is_int()) return Int(k, v.AsInt());
    if (v.is_double()) return Double(k, v.AsDouble());
    return String(k, v.AsString().data(), v.AsString().size());
  }

  ColumnData Finish() {
    if (values_ == 0) {  // ColumnFromCells keeps an all-NULL span as cells
      ColumnData out(ColumnRep::kCell);
      for (size_t k = 0; k < n_; ++k) out.AppendNull();
      return out;
    }
    if (values_ == n_) nulls_.clear();
    switch (rep_) {
      case ColumnRep::kInt64:
        return ColumnData::FromVector(std::move(i64_), std::move(nulls_));
      case ColumnRep::kDouble:
        return ColumnData::FromVector(std::move(f64_), std::move(nulls_));
      default:
        return ColumnData::FromVector(std::move(str_), std::move(nulls_));
    }
  }

 private:
  bool Claim(size_t k, ColumnRep rep) {
    if (values_ == 0) {
      rep_ = rep;
      if (rep == ColumnRep::kInt64) i64_.resize(n_);
      if (rep == ColumnRep::kDouble) f64_.resize(n_);
      if (rep == ColumnRep::kString) str_.resize(n_);
    } else if (rep != rep_) {
      return false;
    }
    nulls_[k] = 0;
    ++values_;
    return true;
  }

  size_t n_;
  size_t values_ = 0;
  ColumnRep rep_ = ColumnRep::kCell;
  std::vector<uint8_t> nulls_;
  std::vector<int64_t> i64_;
  std::vector<double> f64_;
  std::vector<std::string> str_;
};

/// Outcome of a typed decrypt kernel: done, or the span's plaintexts have
/// different types and must go through cells.
enum class Typed { kDone, kMixed };

/// RND/DET rows of kEnc `src` [begin, end) into `out`, with
/// Value::Deserialize's checks and statuses, first failing row first.
Result<Typed> DecryptSymSpan(uint64_t key, const ColumnData& src,
                             size_t begin, size_t end, SpanBuilder* out) {
  // Unmask every well-formed body into one scratch buffer, kCryptoBlock
  // rows at a time; the second pass reads the plaintexts in row order.
  size_t total = 0;
  for (size_t r = begin; r < end; ++r) {
    size_t len = src.EncBlob(r).size();
    if (!src.IsNull(r) && len >= 8) total += len - 8;
  }
  std::string plain(total, '\0');
  uint64_t nonces[kCryptoBlock];
  const char* in[kCryptoBlock];
  size_t lens[kCryptoBlock];
  char* dst[kCryptoBlock];
  size_t lanes = 0;
  char* at = plain.data();
  for (size_t r = begin; r < end; ++r) {
    std::string_view blob = src.EncBlob(r);
    if (src.IsNull(r) || blob.size() < 8) continue;
    std::memcpy(&nonces[lanes], blob.data(), 8);
    in[lanes] = blob.data() + 8;
    lens[lanes] = blob.size() - 8;
    dst[lanes] = at;
    at += lens[lanes];
    if (++lanes == kCryptoBlock) {
      XorKeystreamBlock(key, nonces, in, lens, lanes, dst);
      lanes = 0;
    }
  }
  if (lanes > 0) XorKeystreamBlock(key, nonces, in, lens, lanes, dst);

  const char* p = plain.data();
  for (size_t r = begin; r < end; ++r) {
    if (src.IsNull(r)) continue;
    size_t blob = src.EncBlob(r).size();
    if (blob < 8) return Status::InvalidArgument("ciphertext too short");
    size_t len = blob - 8;
    const char* v = p;
    p += len;
    if (len == 0) return Status::InvalidArgument("empty value bytes");
    size_t k = r - begin;
    bool fits = true;
    switch (v[0]) {
      case 'N':
        break;
      case 'I': {
        if (len != 9) return Status::InvalidArgument("bad int64 value bytes");
        int64_t x;
        std::memcpy(&x, v + 1, 8);
        fits = out->Int(k, x);
        break;
      }
      case 'D': {
        if (len != 9) return Status::InvalidArgument("bad double value bytes");
        double x;
        std::memcpy(&x, v + 1, 8);
        fits = out->Double(k, x);
        break;
      }
      case 'S':
        fits = out->String(k, v + 1, len - 1);
        break;
      default:
        return Status::InvalidArgument("unknown value tag");
    }
    if (!fits) return Typed::kMixed;
  }
  return Typed::kDone;
}

/// OPE rows of kEnc `src` [begin, end) into `out`, as OpeDecryptValue.
Status DecryptOpeSpan(uint64_t key, const ColumnData& src, size_t begin,
                      size_t end, DataType type, SpanBuilder* out) {
  for (size_t r = begin; r < end; ++r) {
    if (src.IsNull(r)) continue;
    MPQ_ASSIGN_OR_RETURN(int64_t x, OpeDecryptInt(key, src.EncBlob(r)));
    switch (type) {
      case DataType::kInt64:
        out->Int(r - begin, x);
        break;
      case DataType::kDouble:
        out->Double(r - begin, static_cast<double>(x) /
                                   static_cast<double>(kFixedPointScale));
        break;
      case DataType::kString:
        return OpeNotNumeric();
    }
  }
  return Status::OK();
}

}  // namespace

ColumnCodec::ColumnCodec(const KeyMaterial& km)
    : has_material_(true), key_id_(km.key_id), km_(km), sum_(km.paillier.n) {}

ColumnCodec::ColumnCodec(uint64_t key_id, uint64_t public_modulus)
    : key_id_(key_id), sum_(public_modulus) {
  km_.key_id = key_id;
  km_.paillier.n = public_modulus;
}

Status ColumnCodec::EncryptSpan(const ColumnData& src, size_t begin,
                                size_t end, EncScheme scheme,
                                uint64_t nonce_base, ColumnData* out) const {
  if (!has_material_) return NoMaterial(key_id_, "encrypt");
  const size_t n = end - begin;
  const bool typed = TypedRep(src.rep());
  const bool numeric = typed && src.rep() != ColumnRep::kString;
  std::vector<uint32_t> lens(n);

  // RND/DET: each row's serialized plaintext is laid into its slot behind
  // the nonce, then the slots are encrypted in place kCryptoBlock rows at a
  // time (the last block partly filled).
  if (typed && (scheme == EncScheme::kRandom ||
                scheme == EncScheme::kDeterministic)) {
    for (size_t k = 0; k < n; ++k) lens[k] = 8 + SerializedLen(src, begin + k);
    char* slot = out->AppendEncBlobs(scheme, key_id_, lens.data(), nullptr, n);
    uint64_t nonces[kCryptoBlock];
    char* body[kCryptoBlock];
    size_t len[kCryptoBlock];
    for (size_t k0 = 0; k0 < n; k0 += kCryptoBlock) {
      size_t lanes = std::min(kCryptoBlock, n - k0);
      for (size_t j = 0; j < lanes; ++j) {
        size_t r = begin + k0 + j;
        body[j] = slot + 8;
        len[j] = lens[k0 + j] - 8;
        slot += lens[k0 + j];
        SerializeTo(src, r, body[j]);
        nonces[j] = nonce_base + r;
      }
      if (scheme == EncScheme::kDeterministic) {
        DetNonceBlock(km_.sym, body, len, lanes, nonces);
      }
      for (size_t j = 0; j < lanes; ++j) {
        std::memcpy(body[j] - 8, &nonces[j], 8);
      }
      XorKeystreamBlock(km_.sym, nonces, body, len, lanes, body);
    }
    return Status::OK();
  }

  // OPE and Paillier: one fixed-width slot per non-NULL numeric row; NULL
  // rows take none. Paillier encodes and exponentiates straight from the
  // typed span.
  if (typed && (scheme == EncScheme::kOpe || scheme == EncScheme::kPaillier)) {
    const bool ope = scheme == EncScheme::kOpe;
    const uint32_t width = ope ? kOpeCipherBytes : sizeof(uint128);
    const uint8_t* nulls =
        src.has_nulls() ? src.null_mask().data() + begin : nullptr;
    for (size_t k = 0; k < n; ++k) {
      bool null = nulls != nullptr && nulls[k] != 0;
      if (!null && !numeric) return NotNumeric(scheme);
      lens[k] = null ? 0 : width;
    }
    char* slot = out->AppendEncBlobs(scheme, key_id_, lens.data(), nulls, n);
    const PaillierPrecomp* pre =
        km_.hom_precomp != nullptr && km_.hom_precomp->valid()
            ? km_.hom_precomp.get()
            : nullptr;
    for (size_t r = begin; r < end; ++r) {
      if (src.IsNull(r)) continue;
      if (ope) {
        OpeEncryptIntTo(km_.ope, NumericAt(src, r), slot);
      } else {
        uint64_t m = PaillierEncodeSigned(km_.paillier, NumericAt(src, r));
        uint64_t nonce = (nonce_base + r) | 1;  // same blinding as EncryptValue
        uint128 c = pre != nullptr ? pre->Encrypt(m, nonce)
                                   : PaillierEncrypt(km_.paillier, m, nonce);
        std::memcpy(slot, &c, sizeof(c));
      }
      slot += width;
    }
    return Status::OK();
  }

  // kCell inputs: per cell. A NULL under OPE or Paillier is a NULL row.
  for (size_t r = begin; r < end; ++r) {
    Cell cell = src.GetCell(r);
    if ((scheme == EncScheme::kOpe || scheme == EncScheme::kPaillier) &&
        cell.plain().is_null()) {
      out->AppendNull();
      continue;
    }
    MPQ_ASSIGN_OR_RETURN(
        EncValue ev,
        EncryptValue(cell.plain(), scheme, key_id_, km_, nonce_base + r));
    out->AppendEnc(ev);
  }
  return Status::OK();
}

Result<ColumnData> ColumnCodec::DecryptSpan(const ColumnData& src,
                                            size_t begin, size_t end,
                                            DataType type,
                                            bool hom_avg) const {
  if (!has_material_) return NoMaterial(key_id_, "decrypt");
  if (src.rep() == ColumnRep::kEnc) {
    SpanBuilder out(end - begin);
    Typed typed = Typed::kDone;
    EncScheme scheme = src.enc_scheme();
    if (!hom_avg && (scheme == EncScheme::kRandom ||
                     scheme == EncScheme::kDeterministic)) {
      MPQ_ASSIGN_OR_RETURN(typed,
                           DecryptSymSpan(km_.sym, src, begin, end, &out));
    } else if (!hom_avg && scheme == EncScheme::kOpe) {
      MPQ_RETURN_NOT_OK(DecryptOpeSpan(km_.ope, src, begin, end, type, &out));
    } else {
      for (size_t r = begin; r < end && typed == Typed::kDone; ++r) {
        if (src.IsNull(r)) continue;
        EncView ev = src.EncAt(r);
        MPQ_ASSIGN_OR_RETURN(Value v, DecryptValue(ev, km_, type));
        bool fits =
            hom_avg
                ? out.Double(r - begin,
                             v.AsDouble() / static_cast<double>(
                                                std::max<int64_t>(ev.aux, 1)))
                : out.Put(r - begin, v);
        if (!fits) typed = Typed::kMixed;
      }
    }
    if (typed == Typed::kDone) return out.Finish();
  }
  std::vector<Cell> cells(end - begin);
  MPQ_RETURN_NOT_OK(DecryptCells(src, begin, end, type, hom_avg, cells.data()));
  return ColumnFromCells(std::move(cells));
}

Status ColumnCodec::DecryptSpan(const ColumnData& src, size_t begin,
                                size_t end, DataType type, bool hom_avg,
                                Cell* out) const {
  MPQ_ASSIGN_OR_RETURN(ColumnData col,
                       DecryptSpan(src, begin, end, type, hom_avg));
  for (size_t i = 0; i < col.size(); ++i) out[i] = col.GetCell(i);
  return Status::OK();
}

Status ColumnCodec::DecryptCells(const ColumnData& src, size_t begin,
                                 size_t end, DataType type, bool hom_avg,
                                 Cell* out) const {
  for (size_t r = begin; r < end; ++r) {
    Cell& slot = out[r - begin];
    if (src.IsNull(r)) {
      slot = Cell(Value::Null());
      continue;
    }
    if (src.rep() != ColumnRep::kEnc) {
      Cell cell = src.GetCell(r);
      if (cell.is_plain()) {  // plaintext inside a ciphertext column
        slot = std::move(cell);
        continue;
      }
    }
    EncView ev = src.EncAt(r);
    MPQ_ASSIGN_OR_RETURN(Value v, DecryptValue(ev, km_, type));
    if (hom_avg) {
      slot = Cell(Value(v.AsDouble() /
                        static_cast<double>(std::max<int64_t>(ev.aux, 1))));
    } else {
      slot = Cell(std::move(v));
    }
  }
  return Status::OK();
}

Result<uint128> ColumnCodec::FoldRows(const ColumnData& col,
                                      const uint32_t* rows, size_t n) {
  // Stage the ciphertexts contiguously, then fold with one batch
  // accumulation: domain entry, n reductions, domain exit.
  scratch_.clear();
  scratch_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    MPQ_ASSIGN_OR_RETURN(uint128 c,
                         PaillierCipherFromBytes(col.EncAt(rows[i]).blob));
    scratch_.push_back(c);
  }
  sum_.Reset();
  sum_.AccumulateMany(scratch_.data(), scratch_.size());
  return sum_.Finalize();
}

}  // namespace mpq
