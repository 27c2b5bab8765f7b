// QueryService tests: the sharded plan cache, policy-epoch invalidation (a
// cached plan must never execute under a policy it wasn't authorized
// against), warm/cold result identity under concurrent sessions at several
// thread counts, admission control, SQL normalization, and metrics.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/pricing.h"
#include "net/topology.h"
#include "obs/metrics_registry.h"
#include "paper_example.h"
#include "service/metrics.h"
#include "service/query_service.h"
#include "service/sharded_cache.h"
#include "sql/normalize.h"
#include "sql/parser.h"

namespace mpq {
namespace {

using testing::MakePaperExample;
using testing::PaperExample;

void ExpectCellsIdentical(const Cell& a, const Cell& b, const char* where) {
  ASSERT_EQ(a.is_plain(), b.is_plain()) << where;
  if (a.is_plain()) {
    EXPECT_EQ(a.plain(), b.plain()) << where;
  } else {
    EXPECT_EQ(a.enc(), b.enc()) << where;
  }
}

void ExpectTablesIdentical(const Table& a, const Table& b, const char* where) {
  ASSERT_EQ(a.num_columns(), b.num_columns()) << where;
  ASSERT_EQ(a.num_rows(), b.num_rows()) << where;
  for (size_t i = 0; i < a.num_columns(); ++i) {
    EXPECT_EQ(a.columns()[i].attr, b.columns()[i].attr) << where;
    EXPECT_EQ(a.columns()[i].encrypted, b.columns()[i].encrypted) << where;
  }
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      ExpectCellsIdentical(a.row(r)[c], b.row(r)[c], where);
    }
  }
}

constexpr const char* kPaperSql =
    "select T, avg(P) from Hosp join Ins on S = C "
    "where D = 'stroke' group by T having avg(P) > 100";

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ex_ = MakePaperExample();
    prices_ = PricingTable::PaperDefaults(ex_->subjects);
    topo_ = Topology::PaperDefaults(ex_->subjects);
    hosp_ = ex_->HospData();
    ins_ = ex_->InsData();
  }

  std::unique_ptr<QueryService> MakeService(ServiceConfig config = {}) {
    auto service = std::make_unique<QueryService>(
        &ex_->catalog, &ex_->subjects, ex_->policy.get(), &prices_, &topo_,
        config);
    service->LoadTable(ex_->hosp, &hosp_);
    service->LoadTable(ex_->ins, &ins_);
    return service;
  }

  AttrSet Set(const char* csv) {
    AttrSet out;
    for (const char* c = csv; *c != '\0'; ++c) {
      out.Insert(ex_->catalog.attrs().Find(std::string(1, *c)));
    }
    return out;
  }

  std::unique_ptr<PaperExample> ex_;
  PricingTable prices_;
  Topology topo_;
  Table hosp_, ins_;
};

// ---------------------------------------------------------------- epochs ---

TEST_F(ServiceTest, PolicyEpochAdvancesOnEveryMutation) {
  uint64_t e0 = ex_->policy->epoch();
  ASSERT_TRUE(ex_->policy->RevokeAny(ex_->ins).ok());
  EXPECT_GT(ex_->policy->epoch(), e0);
  uint64_t e1 = ex_->policy->epoch();
  ASSERT_TRUE(ex_->policy->GrantAny(ex_->ins, {}, Set("P")).ok());
  EXPECT_GT(ex_->policy->epoch(), e1);
  uint64_t e2 = ex_->policy->epoch();
  ASSERT_TRUE(ex_->policy->Revoke(ex_->hosp, ex_->Z).ok());
  EXPECT_GT(ex_->policy->epoch(), e2);
  // Failed mutations leave the epoch alone.
  uint64_t e3 = ex_->policy->epoch();
  EXPECT_FALSE(ex_->policy->Revoke(ex_->hosp, ex_->Z).ok());
  EXPECT_EQ(ex_->policy->epoch(), e3);
  // Assignment replaces the whole rule set: the epoch must advance past
  // both histories so cached plans keyed against the old rules can never
  // be served under the new ones.
  Policy replacement(&ex_->catalog, &ex_->subjects);
  *ex_->policy = std::move(replacement);
  EXPECT_GT(ex_->policy->epoch(), e3);
  Policy copy_source(&ex_->catalog, &ex_->subjects);
  uint64_t e4 = ex_->policy->epoch();
  *ex_->policy = copy_source;
  EXPECT_GT(ex_->policy->epoch(), e4);
}

TEST_F(ServiceTest, CatalogVersionAdvancesOnAddRelation) {
  uint64_t v0 = ex_->catalog.version();
  ASSERT_TRUE(ex_->catalog
                  .AddRelation("Extra",
                               {{"E1", DataType::kInt64}},
                               ex_->H, 10)
                  .ok());
  EXPECT_GT(ex_->catalog.version(), v0);
}

TEST_F(ServiceTest, AuthorizationSeesRelationsAddedAfterViewMemoization) {
  // Build the memoized view snapshot, then grow the catalog. The new
  // relation's attributes must take part in the Def 4.1 conditions — a
  // stale grantable domain would silently exclude them, flipping deny
  // into allow for ungranted subjects.
  (void)ex_->policy->PlainView(ex_->U);
  auto rel = ex_->catalog.AddRelation("Extra4", {{"E4", DataType::kInt64}},
                                      ex_->H, 5);
  ASSERT_TRUE(rel.ok());
  AttrSet e4;
  e4.Insert(ex_->catalog.attrs().Find("E4"));
  RelationProfile profile = RelationProfile::ForBase(e4);
  EXPECT_FALSE(ex_->policy->IsAuthorized(ex_->U, profile))
      << "ungranted attribute of a freshly added relation authorized";
  ASSERT_TRUE(ex_->policy->Grant(*rel, ex_->U, e4, {}).ok());
  EXPECT_TRUE(ex_->policy->IsAuthorized(ex_->U, profile));
}

// ----------------------------------------------------------- cache paths ---

TEST_F(ServiceTest, WarmHitReturnsIdenticalResultAndCountsAsHit) {
  auto service = MakeService();
  auto session = service->OpenSession(ex_->U);
  ASSERT_TRUE(session.ok());

  auto cold = service->ExecuteSql(kPaperSql, *session);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold->stats.cache, CacheOutcome::kMiss);
  ASSERT_EQ(cold->table.num_rows(), 1u);  // tpa group, avg 160 > 100

  auto warm = service->ExecuteSql(kPaperSql, *session);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->stats.cache, CacheOutcome::kHit);
  ExpectTablesIdentical(cold->table, warm->table, "warm vs cold");
  EXPECT_EQ(warm->stats.transfer_bytes, cold->stats.transfer_bytes);

  ServiceMetrics m = service->Metrics();
  EXPECT_EQ(m.queries, 2u);
  EXPECT_EQ(m.cache_hits, 1u);
  EXPECT_EQ(m.cache_misses, 1u);
  EXPECT_EQ(m.cache_entries, 1u);
  EXPECT_DOUBLE_EQ(m.hit_rate, 0.5);
}

TEST_F(ServiceTest, TextualVariantsShareOneCacheEntry) {
  auto service = MakeService();
  auto session = service->OpenSession("U");
  ASSERT_TRUE(session.ok());

  auto a = service->ExecuteSql(kPaperSql, *session);
  ASSERT_TRUE(a.ok());
  // Same statement: scrambled case, extra whitespace.
  auto b = service->ExecuteSql(
      "SELECT T ,  avg ( P )\n  FROM Hosp JOIN Ins ON S = C\n"
      "  WHERE D = 'stroke' GROUP BY T HAVING avg(P) > 100",
      *session);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(b->stats.cache, CacheOutcome::kHit);
  ExpectTablesIdentical(a->table, b->table, "variant");
  EXPECT_EQ(service->CacheEntries(), 1u);
}

TEST_F(ServiceTest, PreparedStatementSkipsReparseAndHitsCache) {
  auto service = MakeService();
  auto session = service->OpenSession(ex_->U);
  ASSERT_TRUE(session.ok());

  auto stmt = service->Prepare(kPaperSql);
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_NE(stmt->ast, nullptr);

  auto first = service->Execute(*stmt, *session);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->stats.cache, CacheOutcome::kMiss);
  auto second = service->Execute(*stmt, *session);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->stats.cache, CacheOutcome::kHit);

  // Prepared and ad-hoc text land on the same entry.
  auto adhoc = service->ExecuteSql(kPaperSql, *session);
  ASSERT_TRUE(adhoc.ok());
  EXPECT_EQ(adhoc->stats.cache, CacheOutcome::kHit);

  EXPECT_FALSE(service->Prepare("select from where").ok());
  EXPECT_FALSE(service->Execute(StatementHandle{}, *session).ok());
}

TEST_F(ServiceTest, DistinctSubjectsGetDistinctEntries) {
  auto service = MakeService();
  auto user = service->OpenSession(ex_->U);
  auto hospital = service->OpenSession(ex_->H);
  ASSERT_TRUE(user.ok());
  ASSERT_TRUE(hospital.ok());

  // Same statement, different issuer: assignments are optimized per query
  // subject (delivery costs differ), so the cache must not cross subjects.
  const std::string sql = "select S, D from Hosp where D = 'stroke'";
  auto r_user = service->ExecuteSql(sql, *user);
  ASSERT_TRUE(r_user.ok()) << r_user.status().ToString();
  auto r_hosp = service->ExecuteSql(sql, *hospital);
  ASSERT_TRUE(r_hosp.ok()) << r_hosp.status().ToString();
  EXPECT_EQ(r_hosp->stats.cache, CacheOutcome::kMiss);
  EXPECT_EQ(service->CacheEntries(), 2u);
}

// ------------------------------------------- policy-epoch invalidation ---

TEST_F(ServiceTest, PolicyChangeInvalidatesCachedPlans) {
  auto service = MakeService();
  auto session = service->OpenSession(ex_->U);
  ASSERT_TRUE(session.ok());

  auto cold = service->ExecuteSql(kPaperSql, *session);
  ASSERT_TRUE(cold.ok());
  auto warm = service->ExecuteSql(kPaperSql, *session);
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm->stats.cache, CacheOutcome::kHit);

  // Any policy mutation — here a revocation elsewhere in the policy — bumps
  // the epoch, so the same statement re-plans instead of reusing the cached
  // assignment.
  ASSERT_TRUE(ex_->policy->Revoke(ex_->hosp, ex_->Z).ok());
  auto after = service->ExecuteSql(kPaperSql, *session);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->stats.cache, CacheOutcome::kMiss);
  EXPECT_GT(after->stats.policy_epoch, warm->stats.policy_epoch);
  ExpectTablesIdentical(cold->table, after->table, "post-grant replan");
}

TEST_F(ServiceTest, StaleAuthorizationExecutionIsImpossible) {
  auto service = MakeService();
  auto session = service->OpenSession(ex_->U);
  ASSERT_TRUE(session.ok());

  // Warm the cache: U is fully authorized, the query serves from cache.
  auto cold = service->ExecuteSql(kPaperSql, *session);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  auto warm = service->ExecuteSql(kPaperSql, *session);
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm->stats.cache, CacheOutcome::kHit);
  uint64_t hits_before = service->Metrics().cache_hits;

  // Revoke every authorization U holds on Ins (its explicit rule and the
  // relation's `any` fallback). The cached plan decrypts avg(P) for U —
  // executing it would leak plaintext premiums to a now-unauthorized subject.
  ASSERT_TRUE(ex_->policy->Revoke(ex_->ins, ex_->U).ok());
  ASSERT_TRUE(ex_->policy->RevokeAny(ex_->ins).ok());

  // The service must fail the query outright — not serve the stale plan.
  auto revoked = service->ExecuteSql(kPaperSql, *session);
  ASSERT_FALSE(revoked.ok());
  EXPECT_EQ(revoked.status().code(), StatusCode::kUnauthorized)
      << revoked.status().ToString();
  EXPECT_EQ(service->Metrics().cache_hits, hits_before)
      << "the stale cached plan was served after revocation";

  // Re-granting restores service under a fresh epoch and fresh plan, with
  // results identical to the pre-revocation ones.
  ASSERT_TRUE(ex_->policy->Grant(ex_->ins, ex_->U, Set("CP"), {}).ok());
  auto regranted = service->ExecuteSql(kPaperSql, *session);
  ASSERT_TRUE(regranted.ok()) << regranted.status().ToString();
  EXPECT_EQ(regranted->stats.cache, CacheOutcome::kMiss);
  ExpectTablesIdentical(cold->table, regranted->table, "post-regrant");
}

TEST_F(ServiceTest, CatalogChangeInvalidatesCachedPlans) {
  auto service = MakeService();
  auto session = service->OpenSession(ex_->U);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(service->ExecuteSql(kPaperSql, *session).ok());

  ASSERT_TRUE(ex_->catalog
                  .AddRelation("Extra2", {{"E2", DataType::kInt64}}, ex_->H, 1)
                  .ok());
  auto after = service->ExecuteSql(kPaperSql, *session);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->stats.cache, CacheOutcome::kMiss);
}

TEST_F(ServiceTest, LoadTableAfterCachingIsReadByTheCachedPlan) {
  auto service = MakeService();
  auto session = service->OpenSession(ex_->U);
  ASSERT_TRUE(session.ok());
  const std::string sql = "select S from Hosp where D = 'stroke'";
  auto before = service->ExecuteSql(sql, *session);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(before->table.num_rows(), 3u);

  // A new table for Hosp: plans hold no table data, so the cached plan
  // serves the next request from the new registration.
  Table more = ex_->HospData();
  more.AddRow({Cell(Value(int64_t{104})), Cell(Value(int64_t{1999})),
               Cell(Value(std::string("stroke"))),
               Cell(Value(std::string("tpa")))});
  service->LoadTable(ex_->hosp, &more);
  auto after = service->ExecuteSql(sql, *session);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->stats.cache, CacheOutcome::kHit);
  EXPECT_EQ(after->table.num_rows(), 4u);
}

// ------------------------------------------------ concurrent execution ---

TEST_F(ServiceTest, WarmResultsIdenticalToColdUnderConcurrency) {
  for (size_t threads : {1u, 2u, 8u}) {
    ServiceConfig config;
    config.exec_threads = threads;
    config.batch_size = 2;  // 4-row example spans multiple batches
    auto service = MakeService(config);
    auto session = service->OpenSession(ex_->U);
    ASSERT_TRUE(session.ok());

    auto cold = service->ExecuteSql(kPaperSql, *session);
    ASSERT_TRUE(cold.ok()) << "threads=" << threads << ": "
                           << cold.status().ToString();
    ASSERT_EQ(cold->stats.cache, CacheOutcome::kMiss);

    constexpr int kClients = 4;
    constexpr int kRepsPerClient = 6;
    std::vector<std::thread> clients;
    std::atomic<int> failures{0};
    std::mutex results_mu;
    std::vector<Table> results;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        auto my_session = service->OpenSession(ex_->U);
        if (!my_session.ok()) {
          failures.fetch_add(1);
          return;
        }
        for (int i = 0; i < kRepsPerClient; ++i) {
          auto warm = service->ExecuteSql(kPaperSql, *my_session);
          if (!warm.ok() || warm->stats.cache != CacheOutcome::kHit) {
            failures.fetch_add(1);
            return;
          }
          std::lock_guard<std::mutex> lock(results_mu);
          results.push_back(std::move(warm->table));
        }
      });
    }
    for (auto& t : clients) t.join();
    ASSERT_EQ(failures.load(), 0) << "threads=" << threads;
    ASSERT_EQ(results.size(), size_t{kClients * kRepsPerClient});
    for (const Table& warm : results) {
      ExpectTablesIdentical(cold->table, warm, "concurrent warm vs cold");
    }
  }
}

TEST_F(ServiceTest, ConcurrentPolicyMutationDuringServingIsSafe) {
  // A mutator thread churns the policy (revoking/re-granting a provider's
  // rule, bumping the epoch each time) while client threads serve the same
  // statement. Every request must either serve a correct fresh-epoch result
  // or re-plan — never crash, deadlock, or serve under a retired epoch key.
  ServiceConfig config;
  config.exec_threads = 2;
  auto service = MakeService(config);
  auto session = service->OpenSession(ex_->U);
  ASSERT_TRUE(session.ok());
  auto cold = service->ExecuteSql(kPaperSql, *session);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();

  std::thread mutator([&] {
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(ex_->policy->Revoke(ex_->hosp, ex_->Z).ok());
      ASSERT_TRUE(
          ex_->policy->Grant(ex_->hosp, ex_->Z, Set("ST"), Set("D")).ok());
    }
  });
  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  std::mutex results_mu;
  std::vector<Table> results;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      auto my_session = service->OpenSession(ex_->U);
      for (int i = 0; i < 10; ++i) {
        auto r = service->ExecuteSql(kPaperSql, *my_session);
        if (!r.ok()) {
          failures.fetch_add(1);
          return;
        }
        std::lock_guard<std::mutex> lock(results_mu);
        results.push_back(std::move(r->table));
      }
    });
  }
  for (auto& t : clients) t.join();
  mutator.join();
  EXPECT_EQ(failures.load(), 0);
  for (const Table& t : results) {
    ExpectTablesIdentical(cold->table, t, "during policy churn");
  }
  // After the churn settles, serving proceeds under the final epoch.
  auto after = service->ExecuteSql(kPaperSql, *session);
  ASSERT_TRUE(after.ok());
  ExpectTablesIdentical(cold->table, after->table, "post churn");
}

TEST_F(ServiceTest, ConcurrentCountStarPlanningIsSafe) {
  // count(*) makes the binder intern a synthetic output attribute into the
  // shared AttrRegistry; concurrent cold planning of distinct count
  // statements must be race-free (the registry is reader/writer locked).
  ServiceConfig config;
  config.exec_threads = 2;
  auto service = MakeService(config);
  const std::string statements[] = {
      "select D, count(*) from Hosp group by D",
      "select T, count(*) as treated from Hosp group by T",
      "select D, count(*) as n from Hosp where D = 'stroke' group by D",
      "select B, count(*) as born from Hosp group by B",
  };
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      auto session = service->OpenSession(ex_->H);  // H sees all of Hosp
      for (int i = 0; i < 4; ++i) {
        auto r = service->ExecuteSql(statements[(c + i) % 4], *session);
        if (!r.ok() || r->table.num_rows() == 0) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ServiceTest, AdmissionControlBoundsInFlightExecutes) {
  ServiceConfig config;
  config.max_in_flight = 2;
  config.exec_threads = 2;
  auto service = MakeService(config);

  constexpr int kClients = 8;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      auto session = service->OpenSession(ex_->U);
      for (int i = 0; i < 4; ++i) {
        auto r = service->ExecuteSql(kPaperSql, *session);
        if (!r.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  ServiceMetrics m = service->Metrics();
  EXPECT_LE(m.in_flight_peak, 2u);
  EXPECT_EQ(m.queries, uint64_t{kClients * 4});
}

TEST_F(ServiceTest, ExecuteWithoutSessionFails) {
  auto service = MakeService();
  auto r = service->ExecuteSql(kPaperSql, Session{});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(service->OpenSession("nobody").ok());
}

// ------------------------------------------------------- LRU + shards ---

TEST_F(ServiceTest, LruEvictionRespectsCapacity) {
  ServiceConfig config;
  config.cache_shards = 1;
  config.cache_capacity_per_shard = 2;
  auto service = MakeService(config);
  auto session = service->OpenSession(ex_->U);
  ASSERT_TRUE(session.ok());

  const std::string q1 = "select S, D from Hosp where D = 'stroke'";
  const std::string q2 = "select S, D from Hosp where D = 'flu'";
  const std::string q3 = "select S, T from Hosp where T = 'tpa'";
  ASSERT_TRUE(service->ExecuteSql(q1, *session).ok());
  ASSERT_TRUE(service->ExecuteSql(q2, *session).ok());
  ASSERT_TRUE(service->ExecuteSql(q3, *session).ok());  // evicts q1

  ServiceMetrics m = service->Metrics();
  EXPECT_LE(m.cache_entries, 2u);
  EXPECT_GE(m.cache_evictions, 1u);

  auto again = service->ExecuteSql(q1, *session);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->stats.cache, CacheOutcome::kMiss);
}

TEST(ShardedCacheTest, LruOrderAndStats) {
  ShardedLruCache<int, int> cache(/*num_shards=*/1, /*capacity_per_shard=*/2);
  EXPECT_EQ(cache.Get(1), nullptr);
  cache.PutIfAbsent(1, std::make_shared<int>(10));
  cache.PutIfAbsent(2, std::make_shared<int>(20));
  ASSERT_NE(cache.Get(1), nullptr);           // 1 becomes MRU
  cache.PutIfAbsent(3, std::make_shared<int>(30));  // evicts 2 (LRU)
  EXPECT_EQ(cache.Get(2), nullptr);
  ASSERT_NE(cache.Get(1), nullptr);
  EXPECT_EQ(*cache.Get(3), 30);

  // PutIfAbsent keeps the first value on a duplicate insert.
  auto canonical = cache.PutIfAbsent(1, std::make_shared<int>(99));
  EXPECT_EQ(*canonical, 10);

  auto stats = cache.GetStats();
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  cache.Clear();
  EXPECT_EQ(cache.GetStats().entries, 0u);
}

TEST(ShardedCacheTest, ConcurrentMixedLoadIsSafe) {
  ShardedLruCache<int, int> cache(/*num_shards=*/4, /*capacity_per_shard=*/8);
  std::vector<std::thread> workers;
  std::atomic<int> mismatches{0};
  for (int w = 0; w < 8; ++w) {
    workers.emplace_back([&cache, &mismatches, w] {
      for (int i = 0; i < 500; ++i) {
        int key = (w * 7 + i) % 64;
        auto hit = cache.Get(key);
        if (hit == nullptr) {
          hit = cache.PutIfAbsent(key, std::make_shared<int>(key * 3));
        }
        if (*hit != key * 3) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ------------------------------------------------- normalize + metrics ---

TEST(NormalizeSqlTest, CanonicalizesWhitespaceKeywordsAndNumbers) {
  auto a = NormalizeSql(
      "select T, avg(P) from Hosp where P > 100 group by T");
  auto b = NormalizeSql(
      "SELECT   T ,\n avg ( P )\tFROM Hosp WHERE P > 100 GROUP BY T");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
  // Numeric spelling canonicalizes within a token type; doubles stay
  // doubles so the normalized text re-lexes identically.
  EXPECT_EQ(*NormalizeSql("select S from Hosp where P > 100.50"),
            *NormalizeSql("select S from Hosp where P > 100.5"));
  EXPECT_NE(*NormalizeSql("select S from Hosp where P > 100.0"),
            *NormalizeSql("select S from Hosp where P > 100"));
  // Identifier case is preserved (names resolve case-sensitively).
  auto c = NormalizeSql("select T from hosp");
  ASSERT_TRUE(c.ok());
  EXPECT_NE(*c, *NormalizeSql("select T from Hosp"));
  // String literals survive verbatim.
  auto d = NormalizeSql("select S from Hosp where D = 'stroke'");
  ASSERT_TRUE(d.ok());
  EXPECT_NE(d->find("'stroke'"), std::string::npos);
  EXPECT_FALSE(NormalizeSql("select 'unterminated").ok());
}

TEST(NormalizeSqlTest, OversizedLiteralsErrorInsteadOfAborting) {
  // Untrusted serving-path SQL: out-of-range literals must come back as
  // Status errors, never as exceptions or undefined casts.
  auto huge_int =
      NormalizeSql("select S from Hosp where P < 99999999999999999999");
  EXPECT_FALSE(huge_int.ok());
  EXPECT_EQ(huge_int.status().code(), StatusCode::kInvalidArgument);
  // A huge *decimal* fits in a double; it normalizes without any
  // out-of-int64-range cast, in plain-decimal form (the lexer has no
  // exponent syntax) — and the normalized text must re-parse.
  auto huge_dbl =
      NormalizeSql("select S from Hosp where P < 100000000000000000000.5");
  ASSERT_TRUE(huge_dbl.ok()) << huge_dbl.status().ToString();
  EXPECT_EQ(huge_dbl->find("e+"), std::string::npos) << *huge_dbl;
  EXPECT_TRUE(ParseSelect(*huge_dbl).ok()) << *huge_dbl;
  auto tiny_dbl = NormalizeSql("select S from Hosp where P < 0.00001");
  ASSERT_TRUE(tiny_dbl.ok());
  EXPECT_NE(tiny_dbl->find("0.00001"), std::string::npos) << *tiny_dbl;
  EXPECT_TRUE(ParseSelect(*tiny_dbl).ok()) << *tiny_dbl;
  EXPECT_FALSE(
      NormalizeSql("select S from Hosp where P < 1" + std::string(400, '0'))
          .ok());
}

TEST(LatencyHistogramTest, QuantilesAreOrderedAndApproximate) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(i * 1e-5);  // 10us .. 10ms
  EXPECT_EQ(h.Count(), 1000u);
  double p50 = h.Quantile(0.50), p95 = h.Quantile(0.95),
         p99 = h.Quantile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_NEAR(p50, 5e-3, 2e-3);
  EXPECT_NEAR(p99, 9.9e-3, 3e-3);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Quantile(0.5), 0);
}

TEST(LatencyHistogramTest, ResolvesSubMillisecondLatencies) {
  // Regression: with the old [1 µs, 64 s) range and 4 sub-buckets/octave,
  // a 200 ns observation fell into the underflow bucket and quantiles came
  // back as bucket-0 interpolations (up to 1 µs — 400% off). Warm-cache
  // hits live exactly in this sub-millisecond regime.
  LatencyHistogram fast;
  for (int i = 0; i < 100; ++i) fast.Record(2e-7);
  EXPECT_NEAR(fast.Quantile(0.5), 2e-7, 0.4e-7);

  LatencyHistogram warm;
  for (int i = 0; i < 100; ++i) warm.Record(5e-5);
  EXPECT_NEAR(warm.Quantile(0.5), 5e-5, 0.5e-5);  // ≤ ~9% bucket error

  // Two sub-millisecond populations a factor 2 apart stay distinguishable.
  LatencyHistogram a, b;
  for (int i = 0; i < 100; ++i) {
    a.Record(1e-4);
    b.Record(2e-4);
  }
  EXPECT_LT(a.Quantile(0.5) * 1.5, b.Quantile(0.5));
}

TEST_F(ServiceTest, WarmP50StaysBelowColdP50) {
  // Regression for the histogram bucket range: warm hits (no planning) must
  // report a p50 strictly below the cold p50, and as a real value — not a
  // sub-resolution artifact rounded toward zero.
  auto service = MakeService();
  auto session = service->OpenSession(ex_->U);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(service->ExecuteSql(kPaperSql, *session).ok());  // cold
  for (int i = 0; i < 32; ++i) {
    auto warm = service->ExecuteSql(kPaperSql, *session);
    ASSERT_TRUE(warm.ok());
    ASSERT_EQ(warm->stats.cache, CacheOutcome::kHit);
  }
  ServiceMetrics m = service->Metrics();
  EXPECT_GT(m.hit_p50_ms, 0.0);
  EXPECT_LT(m.hit_p50_ms, m.miss_p50_ms);
}

TEST_F(ServiceTest, MetricsJsonExposesServingCounters) {
  auto service = MakeService();
  auto session = service->OpenSession(ex_->U);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(service->ExecuteSql(kPaperSql, *session).ok());
  ASSERT_TRUE(service->ExecuteSql(kPaperSql, *session).ok());

  std::string json = service->MetricsJson();
  for (const char* key :
       {"\"queries\":2", "\"cache_hits\":1", "\"cache_misses\":1",
        "\"hit_rate\":0.5", "\"total_p50_ms\":", "\"miss_p50_ms\":",
        "\"transfer_bytes\":", "\"failovers\":0",
        "\"failover_retransfer_bytes\":0", "\"failover_p50_ms\":",
        "\"ops\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }

  // Per-operator counters: both executions ran base scans and projections
  // through the engine, so the ops object reports them with nonzero time
  // and row volumes.
  ServiceMetrics m = service->Metrics();
  const OpCounterSnapshot& base = m.ops.of(OpKind::kBase);
  EXPECT_GT(base.calls, 0u);
  EXPECT_GT(base.rows_out, 0u);
  const OpCounterSnapshot& project = m.ops.of(OpKind::kProject);
  EXPECT_GT(project.calls, 0u);
  EXPECT_GT(project.rows_in, 0u);
  EXPECT_NE(json.find("\"base\":{\"calls\":"), std::string::npos) << json;
}

}  // namespace
}  // namespace mpq
