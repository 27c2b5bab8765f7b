#include "crypto/ope.h"

#include <cmath>
#include <cstring>

#include "common/rng.h"
#include "crypto/paillier.h"  // uint128

namespace mpq {

namespace {

uint16_t Prf16(uint64_t key, int64_t x) {
  return static_cast<uint16_t>(
      SplitMix64(key ^ SplitMix64(static_cast<uint64_t>(x))) & 0xffff);
}

std::string ToBigEndian(uint128 v) {
  std::string out;
  out.resize(16);
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = static_cast<char>(v & 0xff);
    v >>= 8;
  }
  return out;
}

uint128 FromBigEndian(std::string_view bytes) {
  uint128 v = 0;
  for (char c : bytes) {
    v = (v << 8) | static_cast<unsigned char>(c);
  }
  return v;
}

}  // namespace

std::string OpeEncryptInt(uint64_t key, int64_t x) {
  // Shift to an unsigned, order-preserving offset.
  uint64_t offset = static_cast<uint64_t>(x) ^ (uint64_t{1} << 63);
  uint128 y = (static_cast<uint128>(offset) << 16) | Prf16(key, x);
  return ToBigEndian(y);
}

Result<int64_t> OpeDecryptInt(uint64_t key, std::string_view ct) {
  if (ct.size() != 16) {
    return Status::InvalidArgument("bad OPE ciphertext size");
  }
  uint128 y = FromBigEndian(ct);
  uint64_t offset = static_cast<uint64_t>(y >> 16);
  int64_t x = static_cast<int64_t>(offset ^ (uint64_t{1} << 63));
  // Integrity: pad must match.
  if (Prf16(key, x) != static_cast<uint16_t>(y & 0xffff)) {
    return Status::InvalidArgument("OPE ciphertext/key mismatch");
  }
  return x;
}

Result<std::string> OpeEncryptValue(uint64_t key, const Value& v) {
  if (v.is_int()) return OpeEncryptInt(key, v.AsInt());
  if (v.is_double()) {
    double scaled = v.AsDouble() * static_cast<double>(kFixedPointScale);
    return OpeEncryptInt(key, static_cast<int64_t>(std::llround(scaled)));
  }
  return Status::Unsupported("OPE supports numeric values only");
}

Result<Value> OpeDecryptValue(uint64_t key, std::string_view ct,
                              DataType type) {
  MPQ_ASSIGN_OR_RETURN(int64_t x, OpeDecryptInt(key, ct));
  switch (type) {
    case DataType::kInt64:
      return Value(x);
    case DataType::kDouble:
      return Value(static_cast<double>(x) /
                   static_cast<double>(kFixedPointScale));
    case DataType::kString:
      return Status::Unsupported("OPE supports numeric values only");
  }
  return Status::Internal("unreachable");
}

}  // namespace mpq
