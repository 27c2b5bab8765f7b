#include "crypto/column_codec.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "crypto/cipher.h"

namespace mpq {

namespace {

Status NoMaterial(uint64_t key_id, const char* op) {
  return Status::NotFound("column codec for key " + std::to_string(key_id) +
                          " holds only the public modulus: cannot " + op);
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
  // Paillier over a plain int64 vector encodes and exponentiates straight
  // from the typed span — no Cell/Value materialization per row.
  if (scheme == EncScheme::kPaillier && src.rep() == ColumnRep::kInt64 &&
      !src.has_nulls()) {
    const int64_t* v = src.i64().data();
    const PaillierPrecomp* pre =
        km_.hom_precomp != nullptr && km_.hom_precomp->valid()
            ? km_.hom_precomp.get()
            : nullptr;
    for (size_t r = begin; r < end; ++r) {
      uint64_t m = PaillierEncodeSigned(km_.paillier, v[r]);
      uint64_t nonce = (nonce_base + r) | 1;  // same blinding as EncryptValue
      uint128 c = pre != nullptr ? pre->Encrypt(m, nonce)
                                 : PaillierEncrypt(km_.paillier, m, nonce);
      std::memcpy(out->AppendEncBlob(scheme, key_id_, sizeof(c)), &c,
                  sizeof(c));
    }
    return Status::OK();
  }
  // RND/DET over a typed column: serialize each row as Value::Serialize
  // does (tag byte, then the payload) and encrypt it into the arena.
  bool sym = scheme == EncScheme::kRandom ||
             scheme == EncScheme::kDeterministic;
  if (sym && src.rep() != ColumnRep::kCell && src.rep() != ColumnRep::kEnc) {
    std::string plain;
    for (size_t r = begin; r < end; ++r) {
      plain.clear();
      if (src.IsNull(r)) {
        plain.push_back('N');
      } else if (src.rep() == ColumnRep::kString) {
        plain.push_back('S');
        plain.append(src.str()[r]);
      } else {
        plain.push_back(src.rep() == ColumnRep::kInt64 ? 'I' : 'D');
        const void* word = src.rep() == ColumnRep::kInt64
                               ? static_cast<const void*>(&src.i64()[r])
                               : static_cast<const void*>(&src.f64()[r]);
        plain.append(static_cast<const char*>(word), 8);
      }
      uint64_t nonce = scheme == EncScheme::kRandom
                           ? nonce_base + r
                           : DetNonce(km_.sym, plain.data(), plain.size());
      SymEncryptTo(km_.sym, nonce, plain.data(), plain.size(),
                   out->AppendEncBlob(scheme, key_id_, 8 + plain.size()));
    }
    return Status::OK();
  }
  for (size_t r = begin; r < end; ++r) {
    Cell cell = src.GetCell(r);
    MPQ_ASSIGN_OR_RETURN(
        EncValue ev,
        EncryptValue(cell.plain(), scheme, key_id_, km_, nonce_base + r));
    out->AppendEnc(ev);
  }
  return Status::OK();
}

Status ColumnCodec::DecryptSpan(const ColumnData& src, size_t begin,
                                size_t end, DataType type, bool hom_avg,
                                Cell* out) const {
  if (!has_material_) return NoMaterial(key_id_, "decrypt");
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
