#include "crypto/enc_value.h"

#include <algorithm>
#include <cmath>

#include "crypto/cipher.h"
#include "crypto/ope.h"

namespace mpq {

std::string EncValue::ToString() const {
  std::string out = "<";
  out += EncSchemeName(scheme);
  out += ":k";
  out += std::to_string(key_id);
  out += ":";
  static const char kHex[] = "0123456789abcdef";
  size_t n = std::min<size_t>(blob.size(), 6);
  for (size_t i = 0; i < n; ++i) {
    unsigned char c = static_cast<unsigned char>(blob[i]);
    out += kHex[c >> 4];
    out += kHex[c & 0xf];
  }
  out += "…>";
  return out;
}

Result<EncValue> EncryptValue(const Value& v, EncScheme scheme, uint64_t key_id,
                              const KeyMaterial& keys, uint64_t fresh_nonce) {
  EncValue ev;
  ev.scheme = scheme;
  ev.key_id = key_id;
  switch (scheme) {
    case EncScheme::kRandom:
      ev.blob = RndEncrypt(keys.sym, fresh_nonce, v.Serialize());
      return ev;
    case EncScheme::kDeterministic:
      ev.blob = DetEncrypt(keys.sym, v.Serialize());
      return ev;
    case EncScheme::kOpe: {
      MPQ_ASSIGN_OR_RETURN(ev.blob, OpeEncryptValue(keys.ope, v));
      return ev;
    }
    case EncScheme::kPaillier: {
      int64_t m;
      if (v.is_int()) {
        m = v.AsInt();
      } else if (v.is_double()) {
        m = ToFixedPoint(v.AsDouble());
      } else {
        return Status::Unsupported("Paillier supports numeric values only");
      }
      uint64_t encoded = PaillierEncodeSigned(keys.paillier, m);
      uint128 c = keys.hom_precomp != nullptr && keys.hom_precomp->valid()
                      ? keys.hom_precomp->Encrypt(encoded, fresh_nonce | 1)
                      : PaillierEncrypt(keys.paillier, encoded,
                                        fresh_nonce | 1);
      ev.blob = PaillierCipherToBytes(c);
      return ev;
    }
  }
  return Status::Internal("unreachable scheme");
}

Result<Value> DecryptValue(const EncView& ev, const KeyMaterial& keys,
                           DataType type) {
  switch (ev.scheme) {
    case EncScheme::kRandom:
    case EncScheme::kDeterministic: {
      MPQ_ASSIGN_OR_RETURN(std::string plain, SymDecrypt(keys.sym, ev.blob));
      return Value::Deserialize(plain);
    }
    case EncScheme::kOpe:
      return OpeDecryptValue(keys.ope, ev.blob, type);
    case EncScheme::kPaillier: {
      MPQ_ASSIGN_OR_RETURN(uint128 c, PaillierCipherFromBytes(ev.blob));
      bool fast = keys.hom_precomp != nullptr && keys.hom_precomp->valid();
      MPQ_ASSIGN_OR_RETURN(uint64_t m,
                           fast ? keys.hom_precomp->Decrypt(c)
                                : PaillierDecrypt(keys.paillier, c));
      int64_t decoded = PaillierDecodeSigned(keys.paillier, m);
      if (type == DataType::kDouble) {
        return Value(static_cast<double>(decoded) /
                     static_cast<double>(kFixedPointScale));
      }
      return Value(decoded);
    }
  }
  return Status::Internal("unreachable scheme");
}

Result<bool> CompareCells(CmpOp op, const Cell& a, const Cell& b) {
  if (a.is_plain() && b.is_plain()) {
    return EvalCmp(op, a.plain(), b.plain());
  }
  if (a.is_plain() != b.is_plain()) {
    return Status::Unsupported(
        "cannot compare a plaintext cell with an encrypted cell");
  }
  return CompareCiphertexts(op, a.enc(), b.enc());
}

Result<bool> CompareCiphertexts(CmpOp op, const EncView& ea,
                                const EncView& eb) {
  if (ea.scheme != eb.scheme || ea.key_id != eb.key_id) {
    return Status::Unsupported(
        "cannot compare ciphertexts under different schemes or keys");
  }
  switch (ea.scheme) {
    case EncScheme::kDeterministic: {
      if (op == CmpOp::kEq) return ea.blob == eb.blob;
      if (op == CmpOp::kNe) return ea.blob != eb.blob;
      return Status::Unsupported(
          "deterministic ciphertexts support only equality comparison");
    }
    case EncScheme::kOpe: {
      int c = ea.blob.compare(eb.blob);
      switch (op) {
        case CmpOp::kEq:
          return c == 0;
        case CmpOp::kNe:
          return c != 0;
        case CmpOp::kLt:
          return c < 0;
        case CmpOp::kLe:
          return c <= 0;
        case CmpOp::kGt:
          return c > 0;
        case CmpOp::kGe:
          return c >= 0;
      }
      return Status::Internal("unreachable");
    }
    case EncScheme::kRandom:
      return Status::Unsupported("randomized ciphertexts are not comparable");
    case EncScheme::kPaillier:
      return Status::Unsupported("Paillier ciphertexts are not comparable");
  }
  return Status::Internal("unreachable scheme");
}

Result<std::string> CellGroupKey(const Cell& c) {
  if (c.is_plain()) return c.plain().Serialize();
  const EncValue& ev = c.enc();
  if (ev.scheme == EncScheme::kDeterministic || ev.scheme == EncScheme::kOpe) {
    return ev.blob;
  }
  return Status::Unsupported(
      "RND/HOM ciphertexts cannot serve as grouping or join keys");
}

}  // namespace mpq
