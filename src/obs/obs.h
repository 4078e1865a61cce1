// Umbrella header and global install points for the observability layer.
//
// Instrumented code never owns a registry: it calls the free functions below
// (GetCounter / GetHistogram / SetMeta / ScopedSpan), which route
// to whatever Registry / TraceRecorder the embedder installed — and return
// null handles when nothing is installed, making every instrumentation site
// a cheap no-op by default. bcastctl and the benches install concrete
// instances around a command via ScopedObservability.

#ifndef BCAST_OBS_OBS_H_
#define BCAST_OBS_OBS_H_

#include <string_view>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace bcast::obs {

/// Currently installed global sinks; nullptr when observability is off.
Registry* GlobalMetrics();
TraceRecorder* GlobalTrace();

/// True iff a metrics registry is installed. Use to skip snapshot-only work
/// (string formatting, deterministic recounts) — never for logic that
/// affects algorithm output.
bool MetricsEnabled();

/// Convenience accessors against the global registry; all return null
/// handles / no-op when no registry is installed.
Counter GetCounter(std::string_view name);
Histogram GetHistogram(std::string_view name);
void SetMeta(std::string_view key, std::string_view value);

/// Installs `registry`/`trace` as the global sinks for this scope and
/// restores the previous globals on destruction. Either may be nullptr.
/// Installation is process-global: bracket the instrumented work, not
/// individual threads.
class ScopedObservability {
 public:
  ScopedObservability(Registry* registry, TraceRecorder* trace);
  ~ScopedObservability();
  ScopedObservability(const ScopedObservability&) = delete;
  ScopedObservability& operator=(const ScopedObservability&) = delete;

 private:
  Registry* previous_registry_;
  TraceRecorder* previous_trace_;
};

}  // namespace bcast::obs

#endif  // BCAST_OBS_OBS_H_
