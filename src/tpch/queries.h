// The 22 TPC-H query shapes in the paper's operator algebra.
//
// Each query keeps the standard join graph, predicate structure and
// aggregation shape; vendor SQL features outside the supported algebra
// (IN-lists, correlated subqueries, LIKE, EXISTS, computed expressions) are
// lowered to select/join/aggregate forms over the same attributes: the
// authorization and cost models see only which attributes each operation
// touches and how. Queries whose lowering changes the shape say so.

#ifndef MPQ_TPCH_QUERIES_H_
#define MPQ_TPCH_QUERIES_H_

#include "algebra/plan.h"
#include "common/status.h"
#include "tpch/tpch_schema.h"

namespace mpq {

/// Number of TPC-H queries (22).
int NumTpchQueries();

/// Builds query `q` (1-based) against the environment's catalog. The plan is
/// validated with ids assigned.
Result<PlanPtr> BuildTpchQuery(int q, const TpchEnv& env);

/// A udf-extended analytics query (the paper's Sec 7 observation that udfs
/// amplify delegation savings): lineitem scan + selection + ml-style scoring
/// udf + aggregation. Not part of the 22; used by the udf ablation bench.
Result<PlanPtr> BuildUdfQuery(const TpchEnv& env);

}  // namespace mpq

#endif  // MPQ_TPCH_QUERIES_H_
