#include "campaign/executor.h"

#include "core/env.h"

namespace uvmsim::campaign {

std::size_t default_workers() {
  // Shared validated parser + clamp (core/env.h): malformed values warn
  // once on stderr and fall back to the default (1 = serial), oversized
  // counts clamp — exactly like the bench-side knobs.
  return env_threads();
}

TaskExecutor::TaskExecutor(std::size_t threads)
    : threads_(clamp_thread_count(threads, "worker count")) {
  if (threads_ > 1) pool_ = std::make_unique<ThreadPool>(threads_);
}

}  // namespace uvmsim::campaign
