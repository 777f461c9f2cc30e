#include "uvm/replay_policy.h"

namespace uvmsim {

const char* to_string(ReplayPolicyKind k) {
  switch (k) {
    case ReplayPolicyKind::Block: return "block";
    case ReplayPolicyKind::Batch: return "batch";
    case ReplayPolicyKind::BatchFlush: return "batch_flush";
    case ReplayPolicyKind::Once: return "once";
  }
  return "unknown";
}

const char* describe(ReplayPolicyKind k) {
  switch (k) {
    case ReplayPolicyKind::Block:
      return "replay after each VABlock within a batch is serviced";
    case ReplayPolicyKind::Batch:
      return "replay after each fault batch is serviced";
    case ReplayPolicyKind::BatchFlush:
      return "flush the fault buffer, then replay, after each batch (default)";
    case ReplayPolicyKind::Once:
      return "replay only once every fault in the buffer has been serviced";
  }
  return "unknown";
}

const char* to_string(ServicingBackendKind k) {
  switch (k) {
    case ServicingBackendKind::DriverCentric: return "driver";
    case ServicingBackendKind::GpuDriven: return "gpu";
  }
  return "unknown";
}

const char* to_string(EvictionPolicyKind k) {
  switch (k) {
    case EvictionPolicyKind::Lru: return "lru";
    case EvictionPolicyKind::AccessCounter: return "access_counter";
    case EvictionPolicyKind::Clock: return "clock";
    case EvictionPolicyKind::TwoQ: return "2q";
  }
  return "unknown";
}

const char* to_string(PrefetchMode m) {
  switch (m) {
    case PrefetchMode::Off: return "off";
    case PrefetchMode::Tree: return "tree";
    case PrefetchMode::Adaptive: return "adaptive";
    case PrefetchMode::Markov: return "markov";
  }
  return "unknown";
}

}  // namespace uvmsim
