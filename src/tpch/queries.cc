#include "tpch/queries.h"

#include "algebra/plan_builder.h"
#include "tpch/vocab.h"

namespace mpq {

namespace {

using tpch::Brands;
using tpch::Containers;
using tpch::Nations;
using tpch::Regions;
using tpch::Segments;
using tpch::ShipModes;
using tpch::Types;

/// Leaf with projection pushed down (the paper's convention: a leaf is the
/// projection of a source relation).
PlanPtr Leaf(const PlanBuilder& b, const std::string& rel,
             const std::string& cols) {
  return Project(b.Rel(rel), b.Set(cols));
}

Aggregate Sum(const PlanBuilder& b, const std::string& a) {
  return Aggregate::Make(AggFunc::kSum, b.A(a));
}
Aggregate Avg(const PlanBuilder& b, const std::string& a) {
  return Aggregate::Make(AggFunc::kAvg, b.A(a));
}
Aggregate Min(const PlanBuilder& b, const std::string& a) {
  return Aggregate::Make(AggFunc::kMin, b.A(a));
}
Aggregate Max(const PlanBuilder& b, const std::string& a) {
  return Aggregate::Make(AggFunc::kMax, b.A(a));
}
Aggregate Count(const PlanBuilder& b, const std::string& a) {
  return Aggregate::Make(AggFunc::kCount, b.A(a));
}

Value S(const std::string& s) { return Value(s); }
Value I(int64_t v) { return Value(v); }
Value D(double v) { return Value(v); }

// Q1: pricing summary report.
PlanPtr Q1(const PlanBuilder& b) {
  PlanPtr p = Leaf(b, "lineitem",
                   "l_returnflag,l_linestatus,l_quantity,l_extendedprice,"
                   "l_discount,l_shipdate");
  p = Select(std::move(p), {b.Pv("l_shipdate", CmpOp::kLe, I(2451))});
  return GroupBy(std::move(p), b.Set("l_returnflag,l_linestatus"),
                 {Sum(b, "l_quantity"), Sum(b, "l_extendedprice"),
                  Avg(b, "l_discount")});
}

// Q2: minimum-cost supplier.
PlanPtr Q2(const PlanBuilder& b) {
  PlanPtr part = Select(Leaf(b, "part", "p_partkey,p_size,p_type"),
                        {b.Pv("p_size", CmpOp::kEq, I(15))});
  PlanPtr ps = Leaf(b, "partsupp", "ps_partkey,ps_suppkey,ps_supplycost");
  PlanPtr j1 = Join(std::move(part), std::move(ps),
                    {b.Pa("p_partkey", CmpOp::kEq, "ps_partkey")});
  PlanPtr supp = Leaf(b, "supplier", "s_suppkey,s_nationkey,s_acctbal");
  PlanPtr j2 = Join(std::move(j1), std::move(supp),
                    {b.Pa("ps_suppkey", CmpOp::kEq, "s_suppkey")});
  PlanPtr nat = Leaf(b, "nation", "n_nationkey,n_regionkey,n_name");
  PlanPtr j3 = Join(std::move(j2), std::move(nat),
                    {b.Pa("s_nationkey", CmpOp::kEq, "n_nationkey")});
  PlanPtr reg = Select(Leaf(b, "region", "r_regionkey,r_name"),
                       {b.Pv("r_name", CmpOp::kEq, S("EUROPE"))});
  PlanPtr j4 = Join(std::move(j3), std::move(reg),
                    {b.Pa("n_regionkey", CmpOp::kEq, "r_regionkey")});
  return GroupBy(std::move(j4), b.Set("n_name"),
                 {Min(b, "ps_supplycost"), Max(b, "s_acctbal")});
}

// Q3: shipping priority.
PlanPtr Q3(const PlanBuilder& b) {
  PlanPtr cust = Select(Leaf(b, "customer", "c_custkey,c_mktsegment"),
                        {b.Pv("c_mktsegment", CmpOp::kEq, S("BUILDING"))});
  PlanPtr ord = Select(
      Leaf(b, "orders", "o_orderkey,o_custkey,o_orderdate,o_shippriority"),
      {b.Pv("o_orderdate", CmpOp::kLt, I(1204))});
  PlanPtr j1 = Join(std::move(cust), std::move(ord),
                    {b.Pa("c_custkey", CmpOp::kEq, "o_custkey")});
  PlanPtr li =
      Select(Leaf(b, "lineitem", "l_orderkey,l_extendedprice,l_shipdate"),
             {b.Pv("l_shipdate", CmpOp::kGt, I(1204))});
  PlanPtr j2 = Join(std::move(j1), std::move(li),
                    {b.Pa("o_orderkey", CmpOp::kEq, "l_orderkey")});
  return GroupBy(std::move(j2), b.Set("o_orderkey,o_orderdate,o_shippriority"),
                 {Sum(b, "l_extendedprice")});
}

// Q4: order priority checking (EXISTS lowered to a join + date comparison).
PlanPtr Q4(const PlanBuilder& b) {
  PlanPtr ord =
      Select(Leaf(b, "orders", "o_orderkey,o_orderdate,o_orderpriority"),
             {b.Pv("o_orderdate", CmpOp::kGe, I(1000)),
              b.Pv("o_orderdate", CmpOp::kLt, I(1090))});
  PlanPtr li = Leaf(b, "lineitem", "l_orderkey,l_commitdate,l_receiptdate");
  PlanPtr j = Join(std::move(ord), std::move(li),
                   {b.Pa("o_orderkey", CmpOp::kEq, "l_orderkey")});
  j = Select(std::move(j),
             {b.Pa("l_commitdate", CmpOp::kLt, "l_receiptdate")});
  return GroupBy(std::move(j), b.Set("o_orderpriority"),
                 {Aggregate::CountStar(b.A("o_orderkey"))});
}

// Q5: local supplier volume.
PlanPtr Q5(const PlanBuilder& b) {
  PlanPtr cust = Leaf(b, "customer", "c_custkey,c_nationkey");
  PlanPtr ord = Select(Leaf(b, "orders", "o_orderkey,o_custkey,o_orderdate"),
                       {b.Pv("o_orderdate", CmpOp::kGe, I(730)),
                        b.Pv("o_orderdate", CmpOp::kLt, I(1095))});
  PlanPtr j1 = Join(std::move(cust), std::move(ord),
                    {b.Pa("c_custkey", CmpOp::kEq, "o_custkey")});
  PlanPtr li = Leaf(b, "lineitem", "l_orderkey,l_suppkey,l_extendedprice");
  PlanPtr j2 = Join(std::move(j1), std::move(li),
                    {b.Pa("o_orderkey", CmpOp::kEq, "l_orderkey")});
  PlanPtr supp = Leaf(b, "supplier", "s_suppkey,s_nationkey");
  PlanPtr j3 = Join(std::move(j2), std::move(supp),
                    {b.Pa("l_suppkey", CmpOp::kEq, "s_suppkey"),
                     b.Pa("c_nationkey", CmpOp::kEq, "s_nationkey")});
  PlanPtr nat = Leaf(b, "nation", "n_nationkey,n_regionkey,n_name");
  PlanPtr j4 = Join(std::move(j3), std::move(nat),
                    {b.Pa("s_nationkey", CmpOp::kEq, "n_nationkey")});
  PlanPtr reg = Select(Leaf(b, "region", "r_regionkey,r_name"),
                       {b.Pv("r_name", CmpOp::kEq, S("ASIA"))});
  PlanPtr j5 = Join(std::move(j4), std::move(reg),
                    {b.Pa("n_regionkey", CmpOp::kEq, "r_regionkey")});
  return GroupBy(std::move(j5), b.Set("n_name"), {Sum(b, "l_extendedprice")});
}

// Q6: forecasting revenue change.
PlanPtr Q6(const PlanBuilder& b) {
  PlanPtr li = Leaf(b, "lineitem",
                    "l_extendedprice,l_discount,l_quantity,l_shipdate");
  li = Select(std::move(li), {b.Pv("l_shipdate", CmpOp::kGe, I(730)),
                              b.Pv("l_shipdate", CmpOp::kLt, I(1095)),
                              b.Pv("l_discount", CmpOp::kGe, D(0.05)),
                              b.Pv("l_discount", CmpOp::kLe, D(0.07)),
                              b.Pv("l_quantity", CmpOp::kLt, D(24))});
  return GroupBy(std::move(li), {}, {Sum(b, "l_extendedprice")});
}

// Q7: volume shipping. The algebra has no relation aliases (an attribute
// belongs to one relation), so nation joins once, on the supplier side,
// instead of as both n1 and n2.
PlanPtr Q7(const PlanBuilder& b) {
  PlanPtr supp = Leaf(b, "supplier", "s_suppkey,s_nationkey");
  PlanPtr li = Select(
      Leaf(b, "lineitem", "l_orderkey,l_suppkey,l_extendedprice,l_shipdate"),
      {b.Pv("l_shipdate", CmpOp::kGe, I(1095)),
       b.Pv("l_shipdate", CmpOp::kLe, I(1825))});
  PlanPtr j1 = Join(std::move(supp), std::move(li),
                    {b.Pa("s_suppkey", CmpOp::kEq, "l_suppkey")});
  PlanPtr ord = Leaf(b, "orders", "o_orderkey,o_custkey");
  PlanPtr j2 = Join(std::move(j1), std::move(ord),
                    {b.Pa("l_orderkey", CmpOp::kEq, "o_orderkey")});
  PlanPtr cust = Leaf(b, "customer", "c_custkey,c_nationkey");
  PlanPtr j3 = Join(std::move(j2), std::move(cust),
                    {b.Pa("o_custkey", CmpOp::kEq, "c_custkey")});
  PlanPtr nat = Select(Leaf(b, "nation", "n_nationkey,n_name"),
                       {b.Pv("n_name", CmpOp::kEq, S("FRANCE"))});
  PlanPtr j4 = Join(std::move(j3), std::move(nat),
                    {b.Pa("s_nationkey", CmpOp::kEq, "n_nationkey")});
  return GroupBy(std::move(j4), b.Set("n_name"), {Sum(b, "l_extendedprice")});
}

// Q8: national market share.
PlanPtr Q8(const PlanBuilder& b) {
  PlanPtr part = Select(Leaf(b, "part", "p_partkey,p_type"),
                        {b.Pv("p_type", CmpOp::kEq,
                              S("ECONOMY ANODIZED STEEL"))});
  PlanPtr li = Leaf(b, "lineitem",
                    "l_orderkey,l_partkey,l_suppkey,l_extendedprice");
  PlanPtr j1 = Join(std::move(part), std::move(li),
                    {b.Pa("p_partkey", CmpOp::kEq, "l_partkey")});
  PlanPtr supp = Leaf(b, "supplier", "s_suppkey,s_nationkey");
  PlanPtr j2 = Join(std::move(j1), std::move(supp),
                    {b.Pa("l_suppkey", CmpOp::kEq, "s_suppkey")});
  PlanPtr ord = Select(Leaf(b, "orders", "o_orderkey,o_orderdate"),
                       {b.Pv("o_orderdate", CmpOp::kGe, I(1095)),
                        b.Pv("o_orderdate", CmpOp::kLe, I(1825))});
  PlanPtr j3 = Join(std::move(j2), std::move(ord),
                    {b.Pa("l_orderkey", CmpOp::kEq, "o_orderkey")});
  PlanPtr nat = Leaf(b, "nation", "n_nationkey,n_regionkey,n_name");
  PlanPtr j4 = Join(std::move(j3), std::move(nat),
                    {b.Pa("s_nationkey", CmpOp::kEq, "n_nationkey")});
  PlanPtr reg = Select(Leaf(b, "region", "r_regionkey,r_name"),
                       {b.Pv("r_name", CmpOp::kEq, S("AMERICA"))});
  PlanPtr j5 = Join(std::move(j4), std::move(reg),
                    {b.Pa("n_regionkey", CmpOp::kEq, "r_regionkey")});
  return GroupBy(std::move(j5), b.Set("n_name"), {Avg(b, "l_extendedprice")});
}

// Q9: product type profit measure.
PlanPtr Q9(const PlanBuilder& b) {
  PlanPtr part = Select(Leaf(b, "part", "p_partkey,p_type"),
                        {b.Pv("p_type", CmpOp::kEq, S("LARGE BRUSHED BRASS"))});
  PlanPtr ps = Leaf(b, "partsupp", "ps_partkey,ps_suppkey,ps_supplycost");
  PlanPtr j1 = Join(std::move(part), std::move(ps),
                    {b.Pa("p_partkey", CmpOp::kEq, "ps_partkey")});
  PlanPtr li = Leaf(b, "lineitem",
                    "l_orderkey,l_partkey,l_suppkey,l_extendedprice");
  PlanPtr j2 = Join(std::move(j1), std::move(li),
                    {b.Pa("ps_partkey", CmpOp::kEq, "l_partkey"),
                     b.Pa("ps_suppkey", CmpOp::kEq, "l_suppkey")});
  PlanPtr supp = Leaf(b, "supplier", "s_suppkey,s_nationkey");
  PlanPtr j3 = Join(std::move(j2), std::move(supp),
                    {b.Pa("l_suppkey", CmpOp::kEq, "s_suppkey")});
  PlanPtr nat = Leaf(b, "nation", "n_nationkey,n_name");
  PlanPtr j4 = Join(std::move(j3), std::move(nat),
                    {b.Pa("s_nationkey", CmpOp::kEq, "n_nationkey")});
  return GroupBy(std::move(j4), b.Set("n_name"),
                 {Sum(b, "l_extendedprice"), Sum(b, "ps_supplycost")});
}

// Q10: returned item reporting.
PlanPtr Q10(const PlanBuilder& b) {
  PlanPtr cust = Leaf(b, "customer", "c_custkey,c_name,c_acctbal,c_nationkey");
  PlanPtr ord = Select(Leaf(b, "orders", "o_orderkey,o_custkey,o_orderdate"),
                       {b.Pv("o_orderdate", CmpOp::kGe, I(640)),
                        b.Pv("o_orderdate", CmpOp::kLt, I(730))});
  PlanPtr j1 = Join(std::move(cust), std::move(ord),
                    {b.Pa("c_custkey", CmpOp::kEq, "o_custkey")});
  PlanPtr li =
      Select(Leaf(b, "lineitem", "l_orderkey,l_extendedprice,l_returnflag"),
             {b.Pv("l_returnflag", CmpOp::kEq, S("R"))});
  PlanPtr j2 = Join(std::move(j1), std::move(li),
                    {b.Pa("o_orderkey", CmpOp::kEq, "l_orderkey")});
  PlanPtr nat = Leaf(b, "nation", "n_nationkey,n_name");
  PlanPtr j3 = Join(std::move(j2), std::move(nat),
                    {b.Pa("c_nationkey", CmpOp::kEq, "n_nationkey")});
  return GroupBy(std::move(j3), b.Set("c_custkey,c_name,n_name"),
                 {Sum(b, "l_extendedprice")});
}

// Q11: important stock identification.
PlanPtr Q11(const PlanBuilder& b) {
  PlanPtr ps = Leaf(b, "partsupp", "ps_partkey,ps_suppkey,ps_supplycost");
  PlanPtr supp = Leaf(b, "supplier", "s_suppkey,s_nationkey");
  PlanPtr j1 = Join(std::move(ps), std::move(supp),
                    {b.Pa("ps_suppkey", CmpOp::kEq, "s_suppkey")});
  PlanPtr nat = Select(Leaf(b, "nation", "n_nationkey,n_name"),
                       {b.Pv("n_name", CmpOp::kEq, S("GERMANY"))});
  PlanPtr j2 = Join(std::move(j1), std::move(nat),
                    {b.Pa("s_nationkey", CmpOp::kEq, "n_nationkey")});
  PlanPtr g = GroupBy(std::move(j2), b.Set("ps_partkey"),
                      {Sum(b, "ps_supplycost")});
  return Select(std::move(g), {b.Pv("ps_supplycost", CmpOp::kGt, D(100.0))});
}

// Q12: shipping modes and order priority.
PlanPtr Q12(const PlanBuilder& b) {
  PlanPtr ord = Leaf(b, "orders", "o_orderkey,o_orderpriority");
  PlanPtr li = Select(
      Leaf(b, "lineitem",
           "l_orderkey,l_shipmode,l_commitdate,l_receiptdate"),
      {b.Pv("l_shipmode", CmpOp::kEq, S("MAIL")),
       b.Pv("l_receiptdate", CmpOp::kGe, I(730)),
       b.Pv("l_receiptdate", CmpOp::kLt, I(1095))});
  PlanPtr j = Join(std::move(ord), std::move(li),
                   {b.Pa("o_orderkey", CmpOp::kEq, "l_orderkey")});
  j = Select(std::move(j), {b.Pa("l_commitdate", CmpOp::kLt, "l_receiptdate")});
  return GroupBy(std::move(j), b.Set("l_shipmode"),
                 {Aggregate::CountStar(b.A("o_orderkey"))});
}

// Q13: customer distribution (two-level aggregation).
PlanPtr Q13(const PlanBuilder& b) {
  PlanPtr cust = Leaf(b, "customer", "c_custkey");
  PlanPtr ord = Leaf(b, "orders", "o_orderkey,o_custkey");
  PlanPtr j = Join(std::move(cust), std::move(ord),
                   {b.Pa("c_custkey", CmpOp::kEq, "o_custkey")});
  PlanPtr g1 = GroupBy(std::move(j), b.Set("c_custkey"),
                       {Count(b, "o_orderkey")});
  return GroupBy(std::move(g1), b.Set("o_orderkey"),
                 {Aggregate::CountStar(b.A("c_custkey"))});
}

// Q14: promotion effect.
PlanPtr Q14(const PlanBuilder& b) {
  PlanPtr li =
      Select(Leaf(b, "lineitem", "l_partkey,l_extendedprice,l_shipdate"),
             {b.Pv("l_shipdate", CmpOp::kGe, I(1000)),
              b.Pv("l_shipdate", CmpOp::kLt, I(1030))});
  PlanPtr part = Leaf(b, "part", "p_partkey,p_type");
  PlanPtr j = Join(std::move(li), std::move(part),
                   {b.Pa("l_partkey", CmpOp::kEq, "p_partkey")});
  return GroupBy(std::move(j), {}, {Sum(b, "l_extendedprice")});
}

// Q15: top supplier (revenue view lowered to an aggregation subtree).
PlanPtr Q15(const PlanBuilder& b) {
  PlanPtr li = Select(
      Leaf(b, "lineitem", "l_suppkey,l_extendedprice,l_shipdate"),
      {b.Pv("l_shipdate", CmpOp::kGe, I(1400)),
       b.Pv("l_shipdate", CmpOp::kLt, I(1490))});
  PlanPtr rev = GroupBy(std::move(li), b.Set("l_suppkey"),
                        {Sum(b, "l_extendedprice")});
  PlanPtr supp = Leaf(b, "supplier", "s_suppkey,s_name");
  PlanPtr j = Join(std::move(rev), std::move(supp),
                   {b.Pa("l_suppkey", CmpOp::kEq, "s_suppkey")});
  return GroupBy(std::move(j), b.Set("s_name"), {Max(b, "l_extendedprice")});
}

// Q16: parts/supplier relationship.
PlanPtr Q16(const PlanBuilder& b) {
  PlanPtr part = Select(Leaf(b, "part", "p_partkey,p_brand,p_type,p_size"),
                        {b.Pv("p_brand", CmpOp::kNe, S("Brand#45")),
                         b.Pv("p_size", CmpOp::kGe, I(1)),
                         b.Pv("p_size", CmpOp::kLe, I(15))});
  PlanPtr ps = Leaf(b, "partsupp", "ps_partkey,ps_suppkey");
  PlanPtr j = Join(std::move(part), std::move(ps),
                   {b.Pa("p_partkey", CmpOp::kEq, "ps_partkey")});
  return GroupBy(std::move(j), b.Set("p_brand,p_type,p_size"),
                 {Count(b, "ps_suppkey")});
}

// Q17: small-quantity-order revenue.
PlanPtr Q17(const PlanBuilder& b) {
  PlanPtr li = Leaf(b, "lineitem", "l_partkey,l_quantity,l_extendedprice");
  li = Select(std::move(li), {b.Pv("l_quantity", CmpOp::kLt, D(5))});
  PlanPtr part = Select(Leaf(b, "part", "p_partkey,p_brand,p_container"),
                        {b.Pv("p_brand", CmpOp::kEq, S("Brand#23")),
                         b.Pv("p_container", CmpOp::kEq, S("MED BOX"))});
  PlanPtr j = Join(std::move(li), std::move(part),
                   {b.Pa("l_partkey", CmpOp::kEq, "p_partkey")});
  return GroupBy(std::move(j), {}, {Avg(b, "l_extendedprice")});
}

// Q18: large volume customer.
PlanPtr Q18(const PlanBuilder& b) {
  PlanPtr cust = Leaf(b, "customer", "c_custkey,c_name");
  PlanPtr ord = Leaf(b, "orders", "o_orderkey,o_custkey,o_totalprice");
  PlanPtr j1 = Join(std::move(cust), std::move(ord),
                    {b.Pa("c_custkey", CmpOp::kEq, "o_custkey")});
  PlanPtr li = Leaf(b, "lineitem", "l_orderkey,l_quantity");
  PlanPtr j2 = Join(std::move(j1), std::move(li),
                    {b.Pa("o_orderkey", CmpOp::kEq, "l_orderkey")});
  PlanPtr g = GroupBy(std::move(j2), b.Set("c_name,o_orderkey,o_totalprice"),
                      {Sum(b, "l_quantity")});
  return Select(std::move(g), {b.Pv("l_quantity", CmpOp::kGt, D(30))});
}

// Q19: discounted revenue.
PlanPtr Q19(const PlanBuilder& b) {
  PlanPtr li = Select(
      Leaf(b, "lineitem",
           "l_partkey,l_quantity,l_extendedprice,l_shipmode"),
      {b.Pv("l_shipmode", CmpOp::kEq, S("AIR")),
       b.Pv("l_quantity", CmpOp::kGe, D(1)),
       b.Pv("l_quantity", CmpOp::kLe, D(30))});
  PlanPtr part = Select(Leaf(b, "part", "p_partkey,p_brand,p_container"),
                        {b.Pv("p_brand", CmpOp::kEq, S("Brand#12"))});
  PlanPtr j = Join(std::move(li), std::move(part),
                   {b.Pa("l_partkey", CmpOp::kEq, "p_partkey")});
  return GroupBy(std::move(j), {}, {Sum(b, "l_extendedprice")});
}

// Q20: potential part promotion.
PlanPtr Q20(const PlanBuilder& b) {
  PlanPtr ps = Select(Leaf(b, "partsupp", "ps_partkey,ps_suppkey,ps_availqty"),
                      {b.Pv("ps_availqty", CmpOp::kGt, I(100))});
  PlanPtr supp = Leaf(b, "supplier", "s_suppkey,s_name,s_nationkey");
  PlanPtr j1 = Join(std::move(ps), std::move(supp),
                    {b.Pa("ps_suppkey", CmpOp::kEq, "s_suppkey")});
  PlanPtr nat = Select(Leaf(b, "nation", "n_nationkey,n_name"),
                       {b.Pv("n_name", CmpOp::kEq, S("CANADA"))});
  PlanPtr j2 = Join(std::move(j1), std::move(nat),
                    {b.Pa("s_nationkey", CmpOp::kEq, "n_nationkey")});
  return GroupBy(std::move(j2), b.Set("s_name"),
                 {Aggregate::CountStar(b.A("ps_partkey"))});
}

// Q21: suppliers who kept orders waiting.
PlanPtr Q21(const PlanBuilder& b) {
  PlanPtr supp = Leaf(b, "supplier", "s_suppkey,s_name,s_nationkey");
  PlanPtr li = Leaf(b, "lineitem",
                    "l_orderkey,l_suppkey,l_commitdate,l_receiptdate");
  PlanPtr j1 = Join(std::move(supp), std::move(li),
                    {b.Pa("s_suppkey", CmpOp::kEq, "l_suppkey")});
  j1 = Select(std::move(j1),
              {b.Pa("l_receiptdate", CmpOp::kGt, "l_commitdate")});
  PlanPtr ord = Select(Leaf(b, "orders", "o_orderkey,o_orderstatus"),
                       {b.Pv("o_orderstatus", CmpOp::kEq, S("F"))});
  PlanPtr j2 = Join(std::move(j1), std::move(ord),
                    {b.Pa("l_orderkey", CmpOp::kEq, "o_orderkey")});
  PlanPtr nat = Select(Leaf(b, "nation", "n_nationkey,n_name"),
                       {b.Pv("n_name", CmpOp::kEq, S("SAUDI ARABIA"))});
  PlanPtr j3 = Join(std::move(j2), std::move(nat),
                    {b.Pa("s_nationkey", CmpOp::kEq, "n_nationkey")});
  return GroupBy(std::move(j3), b.Set("s_name"),
                 {Aggregate::CountStar(b.A("l_orderkey"))});
}

// Q22: global sales opportunity.
PlanPtr Q22(const PlanBuilder& b) {
  PlanPtr cust = Select(Leaf(b, "customer", "c_custkey,c_nationkey,c_acctbal"),
                        {b.Pv("c_acctbal", CmpOp::kGt, D(0.0))});
  PlanPtr nat = Leaf(b, "nation", "n_nationkey,n_name");
  PlanPtr j = Join(std::move(cust), std::move(nat),
                   {b.Pa("c_nationkey", CmpOp::kEq, "n_nationkey")});
  return GroupBy(std::move(j), b.Set("n_name"),
                 {Aggregate::CountStar(b.A("c_custkey")), Avg(b, "c_acctbal")});
}

}  // namespace

int NumTpchQueries() { return 22; }

Result<PlanPtr> BuildTpchQuery(int q, const TpchEnv& env) {
  PlanBuilder b(&env.catalog);
  PlanPtr plan;
  switch (q) {
    case 1: plan = Q1(b); break;
    case 2: plan = Q2(b); break;
    case 3: plan = Q3(b); break;
    case 4: plan = Q4(b); break;
    case 5: plan = Q5(b); break;
    case 6: plan = Q6(b); break;
    case 7: plan = Q7(b); break;
    case 8: plan = Q8(b); break;
    case 9: plan = Q9(b); break;
    case 10: plan = Q10(b); break;
    case 11: plan = Q11(b); break;
    case 12: plan = Q12(b); break;
    case 13: plan = Q13(b); break;
    case 14: plan = Q14(b); break;
    case 15: plan = Q15(b); break;
    case 16: plan = Q16(b); break;
    case 17: plan = Q17(b); break;
    case 18: plan = Q18(b); break;
    case 19: plan = Q19(b); break;
    case 20: plan = Q20(b); break;
    case 21: plan = Q21(b); break;
    case 22: plan = Q22(b); break;
    default:
      return Status::InvalidArgument("TPC-H query number must be in 1..22");
  }
  return FinishPlan(std::move(plan), env.catalog);
}

Result<PlanPtr> BuildUdfQuery(const TpchEnv& env) {
  PlanBuilder b(&env.catalog);
  PlanPtr li = Leaf(b, "lineitem",
                    "l_orderkey,l_quantity,l_extendedprice,l_discount");
  li = Select(std::move(li), {b.Pv("l_quantity", CmpOp::kGt, D(10))});
  // "enc_"-prefixed udf: evaluable over ciphertexts, so providers with only
  // encrypted visibility can still be delegated the expensive computation —
  // the Sec 7 observation on udf savings.
  li = Udf(std::move(li), "enc_risk_score",
           b.Set("l_quantity,l_extendedprice,l_discount"),
           b.A("l_extendedprice"));
  PlanPtr g = GroupBy(std::move(li), b.Set("l_orderkey"),
                      {Avg(b, "l_extendedprice")});
  return FinishPlan(std::move(g), env.catalog);
}

}  // namespace mpq
