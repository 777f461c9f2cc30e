#include "core/profiler.h"

namespace uvmsim {

std::string_view to_string(CostCategory c) {
  switch (c) {
    case CostCategory::PreProcess: return "pre_process";
    case CostCategory::ServicePmaAlloc: return "pma_alloc_pages";
    case CostCategory::ServiceZero: return "zero_pages";
    case CostCategory::ServiceMigrate: return "migrate_pages";
    case CostCategory::ServiceMap: return "map_pages";
    case CostCategory::ServiceOther: return "service_other";
    case CostCategory::ReplayPolicy: return "replay_policy";
    case CostCategory::Eviction: return "eviction";
    case CostCategory::ErrorRecovery: return "error_recovery";
    case CostCategory::kCount: break;
  }
  return "unknown";
}

}  // namespace uvmsim
