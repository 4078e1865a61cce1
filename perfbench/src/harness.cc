#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

int SpanRecorder::Begin(const char* name, int64_t op) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op;
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(span);
  open_.push_back(index);
  // Read the clock last so the recorder's own bookkeeping stays outside.
  spans_.back().start_ns = NowNs();
  return index;
}

void SpanRecorder::End(int index) {
  if (index < 0) return;
  const uint64_t now = NowNs();
  spans_[static_cast<size_t>(index)].end_ns = now;
  // Spans close in LIFO order (they are scoped), so `index` is on top.
  open_.pop_back();
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (const Span& span : spans_) {
    std::fprintf(file,
                 "{\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                 "\"parent\":%d,\"op\":%lld}\n",
                 span.name, static_cast<unsigned long long>(span.start_ns),
                 static_cast<unsigned long long>(span.end_ns), span.parent,
                 static_cast<long long>(span.op));
  }
  return std::fclose(file) == 0;
}

std::vector<uint64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                              span.end_ns);
    }
  }
  std::vector<uint64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint64_t lo = spans[i].start_ns;
    const uint64_t hi = std::max(lo, spans[i].end_ns);
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    uint64_t covered = 0;
    uint64_t cursor = lo;  // end of the covered prefix so far
    for (auto [start, end] : kids) {
      start = std::clamp(start, lo, hi);
      end = std::clamp(end, lo, hi);
      start = std::max(start, cursor);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const int64_t n = static_cast<int64_t>(samples.size());
  int64_t rank = static_cast<int64_t>(std::ceil(q / 100.0 * n - 1e-9));
  rank = std::clamp<int64_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[static_cast<size_t>(rank - 1)];
}

int64_t SamplesBeyond(int64_t n, double q) {
  if (n <= 0) return 0;
  int64_t rank = static_cast<int64_t>(std::ceil(q / 100.0 * n - 1e-9));
  rank = std::clamp<int64_t>(rank, 1, n);
  return n - rank;
}

double HighestSupportedPercentile(int64_t n) {
  for (double q : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (SamplesBeyond(n, q) >= 10) return q;
  }
  return 0.0;
}

void Tally::Fail(std::string message) {
  ++attempted_;
  ++failed_;
  if (messages_.size() < 8) messages_.push_back(std::move(message));
}

void Tally::Record(bool ok, std::string_view message) {
  if (ok) {
    Ok();
  } else {
    Fail(std::string(message));
  }
}

void Tally::RecordMany(int64_t attempted, int64_t failed,
                       std::string_view message) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0 && messages_.size() < 8) {
    messages_.push_back(std::string(message));
  }
}

double Tally::failed_ratio() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(failed_) /
                               static_cast<double>(attempted_);
}

void Digest::Add(uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (word >> (8 * i)) & 0xffu;
    hash_ *= 0x100000001b3ull;
  }
}

void Digest::AddDouble(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  Add(bits);
}

std::string Digest::Hex() const {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash_));
  return buf;
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double mb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    long kb = 0;
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) {
      mb = static_cast<double>(kb) / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return mb;
}

}  // namespace perfbench
