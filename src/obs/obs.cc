#include "obs/obs.h"

#include <atomic>

namespace bcast::obs {

namespace {

std::atomic<Registry*> global_metrics{nullptr};
std::atomic<TraceRecorder*> global_trace{nullptr};

}  // namespace

Registry* GlobalMetrics() {
  return global_metrics.load(std::memory_order_acquire);
}

TraceRecorder* GlobalTrace() {
  return global_trace.load(std::memory_order_acquire);
}

bool MetricsEnabled() { return GlobalMetrics() != nullptr; }

Counter GetCounter(std::string_view name) {
  Registry* registry = GlobalMetrics();
  return registry == nullptr ? Counter() : registry->GetCounter(name);
}

Histogram GetHistogram(std::string_view name) {
  Registry* registry = GlobalMetrics();
  return registry == nullptr ? Histogram() : registry->GetHistogram(name);
}

void SetMeta(std::string_view key, std::string_view value) {
  Registry* registry = GlobalMetrics();
  if (registry != nullptr) registry->SetMeta(key, value);
}

ScopedObservability::ScopedObservability(Registry* registry,
                                         TraceRecorder* trace)
    : previous_registry_(
          global_metrics.exchange(registry, std::memory_order_acq_rel)),
      previous_trace_(
          global_trace.exchange(trace, std::memory_order_acq_rel)) {}

ScopedObservability::~ScopedObservability() {
  global_metrics.store(previous_registry_, std::memory_order_release);
  global_trace.store(previous_trace_, std::memory_order_release);
}

}  // namespace bcast::obs
