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

uint64_t LoadBigEndian64(const char* p) {
  uint64_t w;
  std::memcpy(&w, p, 8);
  return __builtin_bswap64(w);
}

void StoreBigEndian64(uint64_t w, char* p) {
  w = __builtin_bswap64(w);
  std::memcpy(p, &w, 8);
}

}  // namespace

int64_t ToFixedPoint(double v) {
  return static_cast<int64_t>(
      std::llround(v * static_cast<double>(kFixedPointScale)));
}

void OpeEncryptIntTo(uint64_t key, int64_t x, char* out) {
  // Shift to an unsigned, order-preserving offset.
  uint64_t offset = static_cast<uint64_t>(x) ^ (uint64_t{1} << 63);
  uint128 y = (static_cast<uint128>(offset) << 16) | Prf16(key, x);
  StoreBigEndian64(static_cast<uint64_t>(y >> 64), out);
  StoreBigEndian64(static_cast<uint64_t>(y), out + 8);
}

std::string OpeEncryptInt(uint64_t key, int64_t x) {
  std::string out(kOpeCipherBytes, '\0');
  OpeEncryptIntTo(key, x, out.data());
  return out;
}

Result<int64_t> OpeDecryptInt(uint64_t key, std::string_view ct) {
  if (ct.size() != kOpeCipherBytes) {
    return Status::InvalidArgument("bad OPE ciphertext size");
  }
  uint128 y = (static_cast<uint128>(LoadBigEndian64(ct.data())) << 64) |
              LoadBigEndian64(ct.data() + 8);
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
  if (v.is_double()) return OpeEncryptInt(key, ToFixedPoint(v.AsDouble()));
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
