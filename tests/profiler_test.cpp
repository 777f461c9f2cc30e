#include "core/profiler.h"

#include <gtest/gtest.h>

namespace uvmsim {
namespace {

TEST(Profiler, StartsEmpty) {
  Profiler p;
  EXPECT_EQ(p.grand_total(), 0u);
  EXPECT_EQ(p.total(CostCategory::PreProcess), 0u);
  EXPECT_EQ(p.count(CostCategory::PreProcess), 0u);
}

TEST(Profiler, AccumulatesPerCategory) {
  Profiler p;
  p.add(CostCategory::PreProcess, 10);
  p.add(CostCategory::PreProcess, 5);
  p.add(CostCategory::ServiceMigrate, 100);
  EXPECT_EQ(p.total(CostCategory::PreProcess), 15u);
  EXPECT_EQ(p.count(CostCategory::PreProcess), 2u);
  EXPECT_EQ(p.total(CostCategory::ServiceMigrate), 100u);
  EXPECT_EQ(p.grand_total(), 115u);
}

TEST(Profiler, ServiceTotalSumsSubcategories) {
  Profiler p;
  p.add(CostCategory::ServicePmaAlloc, 1);
  p.add(CostCategory::ServiceZero, 2);
  p.add(CostCategory::ServiceMigrate, 4);
  p.add(CostCategory::ServiceMap, 8);
  p.add(CostCategory::ServiceOther, 16);
  p.add(CostCategory::PreProcess, 1000);  // not a service category
  EXPECT_EQ(p.service_total(), 31u);
}

TEST(Profiler, CategoryNames) {
  EXPECT_EQ(to_string(CostCategory::PreProcess), "pre_process");
  EXPECT_EQ(to_string(CostCategory::ServicePmaAlloc), "pma_alloc_pages");
  EXPECT_EQ(to_string(CostCategory::ServiceMigrate), "migrate_pages");
  EXPECT_EQ(to_string(CostCategory::ServiceMap), "map_pages");
  EXPECT_EQ(to_string(CostCategory::ReplayPolicy), "replay_policy");
  EXPECT_EQ(to_string(CostCategory::Eviction), "eviction");
}

}  // namespace
}  // namespace uvmsim
