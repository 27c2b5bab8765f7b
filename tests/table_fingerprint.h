// A byte fingerprint of a table for bit-identity assertions: its segment
// encoding (storage/segment.h). The codec is deterministic — the same table
// always encodes to the same frame — and lossless over column metadata,
// reps, null masks and every cell's bytes, so two tables with equal
// fingerprints are bit-identical. (tests/segment_test.cc checks the codec
// itself by comparing decoded tables directly, never by fingerprint.)

#ifndef MPQ_TESTS_TABLE_FINGERPRINT_H_
#define MPQ_TESTS_TABLE_FINGERPRINT_H_

#include <string>

#include "exec/table.h"
#include "storage/segment.h"

namespace mpq {

inline std::string Fingerprint(const Table& t) {
  Result<std::string> frame = EncodeSegment(t);
  return frame.ok() ? *frame : "encode error: " + frame.status().ToString();
}

}  // namespace mpq

#endif  // MPQ_TESTS_TABLE_FINGERPRINT_H_
