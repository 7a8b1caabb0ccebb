// Workload generator and core model tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>

#include "cpu/apps.hpp"
#include "cpu/workload.hpp"
#include "sim/experiment.hpp"

namespace rc {
namespace {

TEST(Apps, AllNamedModels) {
  // 21 parallel apps + mix (§5.1) + the two structured sharing-stress
  // generators (producer_consumer, sharing_heavy).
  EXPECT_EQ(app_names().size(), 24u);
  for (const auto& n : app_names()) {
    AppProfile p = app_profile(n);
    EXPECT_EQ(p.name, n);
    EXPECT_GT(p.mem_ratio, 0.0);
    EXPECT_LE(p.mem_ratio, 1.0);
    EXPECT_GT(p.private_lines, 0u);
  }
}

TEST(Apps, FullBenchSetIsThePaperModels) {
  // RC_FULL=1 averages the figures over the paper's 21 parallel apps + mix,
  // never over the sharing-stress generators.
  const char* prev = std::getenv("RC_FULL");
  const std::string saved = prev ? prev : "";
  setenv("RC_FULL", "1", 1);
  const std::vector<std::string> full = bench_apps();
  if (prev) setenv("RC_FULL", saved.c_str(), 1);
  else unsetenv("RC_FULL");
  EXPECT_EQ(full.size(), 22u);
  EXPECT_EQ(full, paper_app_names());
  for (const char* stress : {"producer_consumer", "sharing_heavy"})
    EXPECT_EQ(std::count(full.begin(), full.end(), stress), 0) << stress;
}

TEST(Apps, SmallListIsSubset) {
  std::set<std::string> all(app_names().begin(), app_names().end());
  for (const auto& n : app_names_small()) EXPECT_TRUE(all.count(n)) << n;
}

TEST(Apps, MixHasNoSharing) {
  AppProfile p = app_profile("mix");
  EXPECT_EQ(p.p_shared, 0.0);
  EXPECT_EQ(p.shared_lines, 0u);
  EXPECT_EQ(p.migratory_lines, 0u);
}

TEST(Apps, HotSubsetsFitTheL1) {
  // 32KB / 64B = 512 lines; hot subsets must be comfortably resident.
  for (const auto& n : app_names()) {
    AppProfile p = app_profile(n);
    double hot = p.private_lines * p.hot_fraction;
    EXPECT_LE(hot, 400.0) << n;
    EXPECT_GE(hot, 32.0) << n;
  }
}

TEST(Workload, DeterministicFromSeed) {
  AppProfile p = app_profile("fft");
  WorkloadGen a(p, 3, 16, Rng(42));
  WorkloadGen b(p, 3, 16, Rng(42));
  for (int i = 0; i < 1000; ++i) {
    MemOp x = a.next(), y = b.next();
    EXPECT_EQ(x.addr, y.addr);
    EXPECT_EQ(x.is_write, y.is_write);
    EXPECT_EQ(x.gap, y.gap);
  }
}

TEST(Workload, CoresGetDisjointPrivateRegions) {
  AppProfile p = app_profile("blackscholes");
  WorkloadGen a(p, 0, 16, Rng(1));
  WorkloadGen b(p, 7, 16, Rng(2));
  std::set<Addr> pa, pb;
  for (int i = 0; i < 2000; ++i) {
    Addr x = a.next().addr, y = b.next().addr;
    if (x < kSharedBase) pa.insert(x);
    if (y < kSharedBase) pb.insert(y);
  }
  for (Addr x : pa) EXPECT_EQ(pb.count(x), 0u);
}

TEST(Workload, SharedFractionRoughlyCalibrated) {
  AppProfile p = app_profile("canneal");  // p_shared = 0.20
  WorkloadGen g(p, 0, 16, Rng(5));
  int shared = 0;
  const int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    Addr a = g.next().addr;
    if (a >= kSharedBase && a < kMigratoryBase) ++shared;
  }
  EXPECT_NEAR(shared / double(kN), p.p_shared, 0.02);
}

TEST(Workload, MemRatioDrivesGaps) {
  AppProfile p = app_profile("mix");  // mem_ratio 0.40
  WorkloadGen g(p, 0, 16, Rng(5));
  double total_gap = 0;
  const int kN = 20000;
  for (int i = 0; i < kN; ++i) total_gap += g.next().gap;
  // mean gap should approximate (1-m)/m = 1.5 non-memory instrs per access.
  EXPECT_NEAR(total_gap / kN, (1 - p.mem_ratio) / p.mem_ratio, 0.2);
}

TEST(Workload, HotSubsetDominates) {
  AppProfile p = app_profile("fft");
  WorkloadGen g(p, 2, 16, Rng(9));
  std::map<Addr, int> counts;
  const int kN = 30000;
  int priv = 0, hot_hits = 0;
  const Addr base = kPrivateBase + 2 * kPrivateStride;
  const Addr hot_end =
      base + Addr(p.private_lines * p.hot_fraction) * kLineBytes;
  for (int i = 0; i < kN; ++i) {
    Addr a = g.next().addr;
    if (a >= base && a < base + Addr(p.private_lines) * kLineBytes) {
      ++priv;
      if (a < hot_end) ++hot_hits;
    }
  }
  ASSERT_GT(priv, 1000);
  EXPECT_NEAR(hot_hits / double(priv), p.p_hot, 0.03);
}

TEST(Workload, WriteFractionsRespected) {
  AppProfile p = app_profile("raytrace");  // read-mostly shared
  WorkloadGen g(p, 1, 16, Rng(4));
  int sh = 0, sh_wr = 0;
  for (int i = 0; i < 40000; ++i) {
    MemOp op = g.next();
    if (op.addr >= kSharedBase && op.addr < kMigratoryBase) {
      ++sh;
      sh_wr += op.is_write;
    }
  }
  ASSERT_GT(sh, 2000);
  EXPECT_NEAR(sh_wr / double(sh), p.p_write_shared, 0.01);
}

TEST(Workload, ProducerConsumerRolesAreStable) {
  AppProfile p = app_profile("producer_consumer");
  WorkloadGen prod(p, 0, 16, Rng(3));  // even member: producer
  WorkloadGen cons(p, 1, 16, Rng(4));  // odd member: consumer
  int prod_shared = 0, cons_shared = 0;
  for (int i = 0; i < 20000; ++i) {
    MemOp a = prod.next(), b = cons.next();
    if (a.addr >= kSharedBase && a.addr < kMigratoryBase) {
      ++prod_shared;
      EXPECT_TRUE(a.is_write);
    }
    if (b.addr >= kSharedBase && b.addr < kMigratoryBase) {
      ++cons_shared;
      EXPECT_FALSE(b.is_write);
    }
  }
  EXPECT_GT(prod_shared, 1000);
  EXPECT_GT(cons_shared, 1000);
}

TEST(Workload, SharingHeavyConfinesWritesToOwnedHotLines) {
  AppProfile p = app_profile("sharing_heavy");
  WorkloadGen g(p, 5, 16, Rng(6));
  int shared = 0;
  for (int i = 0; i < 40000; ++i) {
    MemOp op = g.next();
    if (op.addr < kSharedBase || op.addr >= kMigratoryBase) continue;
    ++shared;
    const Addr idx = (op.addr - kSharedBase) / kLineBytes;
    EXPECT_LT(idx, 64u);  // contended hot set
    if (op.is_write) {
      EXPECT_EQ(idx % 16, 5u);  // only lines this node owns
    }
  }
  EXPECT_GT(shared, 5000);
}

TEST(Workload, MigratoryLinesPingPong) {
  AppProfile p = app_profile("barnes");
  WorkloadGen g(p, 0, 16, Rng(3));
  int mig = 0, mig_wr = 0;
  for (int i = 0; i < 50000; ++i) {
    MemOp op = g.next();
    if (op.addr >= kMigratoryBase) {
      ++mig;
      mig_wr += op.is_write;
    }
  }
  ASSERT_GT(mig, 200);
  // Alternating read/modify pattern: about half the migratory ops write.
  EXPECT_NEAR(mig_wr / double(mig), 0.5, 0.1);
}

TEST(Workload, AddressesAreLineAligned) {
  AppProfile p = app_profile("dedup");
  WorkloadGen g(p, 0, 16, Rng(8));
  for (int i = 0; i < 5000; ++i)
    EXPECT_EQ(g.next().addr % kLineBytes, 0u);
}

TEST(Workload, UnknownAppIsFatal) {
  // fatal() throws (so sweep workers can report the failure) rather than
  // aborting the whole process.
  try {
    app_profile("no_such_app");
    FAIL() << "app_profile should reject unknown models";
  } catch (const FatalError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown application model"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace rc
