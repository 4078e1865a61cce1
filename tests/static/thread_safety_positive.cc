// Thread-safety-analysis fixture: the CORRECT twin of
// thread_safety_negative.cc. Exercises the full annotation vocabulary the
// library uses (capability mutex, scoped lock, guarded fields, REQUIRES
// helpers, try-lock) and must compile warning-free under
//
//   clang++ -std=c++20 -fsyntax-only -Wthread-safety -Werror
//
// (registered as the ThreadSafetyAnnotations.PositiveCompiles ctest when the
// toolchain is Clang). If this file ever fails, the wrapper annotations in
// util/mutex.h — not the fixture — have regressed.

#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace {

class Incumbent {
 public:
  void Improve(double v) {
    bcast::MutexLock lock(&mutex_);
    if (!has_best_ || v < best_v_) {
      best_v_ = v;
      history_.push_back(v);
      has_best_ = true;
    }
  }

  double Best() {
    bcast::MutexLock lock(&mutex_);
    return BestLocked();
  }

  bool TryRead(double* out) {
    if (!mutex_.TryLock()) return false;
    *out = has_best_ ? BestLocked() : 0.0;
    mutex_.Unlock();
    return true;
  }

 private:
  // Guarded reads belong in a REQUIRES helper, not in a lambda (the analysis
  // checks lambda bodies out of context).
  double BestLocked() const BCAST_REQUIRES(mutex_) { return best_v_; }

  mutable bcast::Mutex mutex_;
  bool has_best_ BCAST_GUARDED_BY(mutex_) = false;
  double best_v_ BCAST_GUARDED_BY(mutex_) = 0.0;
  std::vector<double> history_ BCAST_GUARDED_BY(mutex_);
};

}  // namespace

int main() {
  Incumbent incumbent;
  incumbent.Improve(1.5);
  double value = 0.0;
  static_cast<void>(incumbent.TryRead(&value));
  return incumbent.Best() < 0.0 ? 1 : 0;
}
