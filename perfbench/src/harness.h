// Measurement plumbing shared by the three workloads: the in-memory span
// recorder of the traced run, self-time accounting, the percentile rule,
// failure tallies and the pass loop that decides how long a run measures.
//
// Everything here lives in the benchmark, outside the library: spans are
// recorded around calls into the library's public entry points, never inside
// them.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
uint64_t NowNs();

/// One recorded span. `parent` indexes the recorder's span list (-1 for a
/// root); `op` is the request / fleet / cycle ordinal the span belongs to.
struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int parent = -1;
  int64_t op = -1;
};

/// Keeps spans in memory while enabled; a disabled recorder costs one branch
/// per span. Single-threaded: every span is opened on the benchmark's main
/// thread, around a call into a library layer.
class SpanRecorder {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span under the innermost open one; returns its index (or -1
  /// when disabled).
  int Begin(const char* name, int64_t op);
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes one JSON object per line: name, start_ns, end_ns, parent, op.
  bool WriteJsonl(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span on a recorder (no-op when the recorder is disabled).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, int64_t op)
      : recorder_(recorder), index_(recorder->Begin(name, op)) {}
  ~ScopedSpan() { recorder_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its direct children's intervals (clipped to the
/// span). Indexed like `spans`.
std::vector<uint64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Nearest-rank percentile `q` (0 < q <= 100) of `samples`, which need not
/// be sorted. 0 for an empty input.
double Percentile(std::vector<double> samples, double q);

/// Samples strictly above the nearest-rank `q` percentile of `n` samples.
int64_t SamplesBeyond(int64_t n, double q);

/// The highest percentile of {99.9, 99, 95, 90, 75, 50} that has at least
/// ten of `n` samples beyond it; 0 when even the median has fewer.
double HighestSupportedPercentile(int64_t n);

/// Attempted and failed operations of one run; the first few failure
/// messages are kept for the log.
class Tally {
 public:
  void Ok() { ++attempted_; }
  void Fail(std::string message);
  /// Records `ok` as a success or a failure carrying `message`.
  void Record(bool ok, std::string_view message);
  /// Records `attempted` operations of which `failed` failed.
  void RecordMany(int64_t attempted, int64_t failed, std::string_view message);

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  /// failed / attempted; 0 when nothing was attempted.
  double failed_ratio() const;
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> messages_;
};

/// Order-sensitive 64-bit mix (FNV-1a over 8-byte words).
class Digest {
 public:
  void Add(uint64_t word);
  void AddDouble(double value);
  std::string Hex() const;

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Wall times of a workload's set-up. Set-up runs several times before the
/// first pass and once after every pass, so the samples span the same
/// stretch of the run as the passes do and a slow moment of the host does
/// not decide the median alone.
class SetupTimer {
 public:
  template <typename Fn>
  void Time(Fn setup) {
    const uint64_t start = NowNs();
    setup();
    samples_s_.push_back(static_cast<double>(NowNs() - start) * 1e-9);
  }
  double median_s() const { return Percentile(samples_s_, 50.0); }

 private:
  std::vector<double> samples_s_;
};

/// How many passes a run makes and how long they took.
struct PassTimes {
  int untraced_passes = 0;
  int traced_passes = 0;
  double untraced_s = 0.0;
  double traced_s = 0.0;
  /// Wall time of every measured pass, in order.
  std::vector<double> pass_s;
};

/// What a pass is for. A warm-up pass runs a workload's first few
/// operations before anything is timed, so lazy set-up in the library and
/// the allocator's first growth do not land in the first measured pass.
enum class PassKind { kWarmup, kUntraced, kTraced };

/// Runs a warm-up pass, then whole passes of a workload's fixed input.
/// Untraced mode: passes until `seconds` have elapsed and at least
/// `min_passes` ran. Traced mode: untraced and traced passes in pairs until
/// `seconds` have elapsed (at least one pair), so the two wall times are
/// comparable; the order inside a pair alternates so neither mode always
/// runs first. `pass(kind)` runs one pass; `after_pass()` runs, untimed,
/// after each measured pass.
template <typename Fn, typename After>
PassTimes RunPasses(double seconds, int min_passes, bool trace, Fn pass,
                    After after_pass) {
  pass(PassKind::kWarmup);
  PassTimes times;
  const uint64_t start = NowNs();
  auto elapsed = [&] { return static_cast<double>(NowNs() - start) * 1e-9; };
  auto timed = [&](bool traced) {
    const uint64_t t0 = NowNs();
    pass(traced ? PassKind::kTraced : PassKind::kUntraced);
    const double s = static_cast<double>(NowNs() - t0) * 1e-9;
    (traced ? times.traced_s : times.untraced_s) += s;
    times.pass_s.push_back(s);
    ++(traced ? times.traced_passes : times.untraced_passes);
    after_pass();
  };
  if (!trace) {
    do {
      timed(false);
    } while (times.untraced_passes < min_passes || elapsed() < seconds);
  } else {
    bool traced_first = false;
    do {
      timed(traced_first);
      timed(!traced_first);
      traced_first = !traced_first;
    } while (elapsed() < seconds);
  }
  return times;
}

/// VmHWM of this process in MiB (0 when /proc is unavailable).
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
