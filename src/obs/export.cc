#include "obs/export.h"

#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace bcast::obs {

void JsonWriter::BeginObject() {
  BeforeValue();
  out_->push_back('{');
  stack_.push_back(Level{/*array=*/false, /*first=*/true});
}

void JsonWriter::EndObject() {
  const bool empty = stack_.empty() ? true : stack_.back().first;
  stack_.pop_back();
  if (!empty && layout_ == Layout::kPretty) {
    out_->push_back('\n');
    Indent();
  }
  out_->push_back('}');
}

void JsonWriter::BeginArray() {
  BeforeValue();
  out_->push_back('[');
  stack_.push_back(Level{/*array=*/true, /*first=*/true});
}

void JsonWriter::EndArray() {
  const bool empty = stack_.empty() ? true : stack_.back().first;
  stack_.pop_back();
  if (!empty && layout_ == Layout::kPretty) {
    out_->push_back('\n');
    Indent();
  }
  out_->push_back(']');
}

void JsonWriter::Key(std::string_view key) {
  BeforeValue();
  Escape(key);
  out_->append(layout_ == Layout::kPretty ? ": " : ":");
  pending_key_ = true;
}

void JsonWriter::String(std::string_view value) {
  BeforeValue();
  Escape(value);
}

void JsonWriter::UInt(uint64_t value) {
  BeforeValue();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  out_->append(buf);
}

void JsonWriter::Int(int64_t value) {
  BeforeValue();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, value);
  out_->append(buf);
}

void JsonWriter::Double(double value) {
  if (!std::isfinite(value)) {
    Null();
    return;
  }
  BeforeValue();
  // Shortest representation that round-trips (same idiom as tree_io): 17
  // significant digits always round-trip, but most values need far fewer —
  // "1.4", not "1.3999999999999999". std::to_chars yields the fewest
  // significant digits any round-tripping decimal has; no "%.*g" below that
  // precision can round-trip, so the search starts there and nearly always
  // stops at once instead of trying every precision from 1.
  char buf[40];
  const char* const shortest_end =
      std::to_chars(buf, buf + sizeof(buf), value,
                    std::chars_format::scientific)
          .ptr;
  int precision = 0;
  for (const char* c = buf; c != shortest_end && *c != 'e'; ++c) {
    if (*c >= '0' && *c <= '9') ++precision;
  }
  for (; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  out_->append(buf);
}

void JsonWriter::Bool(bool value) {
  BeforeValue();
  out_->append(value ? "true" : "false");
}

void JsonWriter::Null() {
  BeforeValue();
  out_->append("null");
}

void JsonWriter::BeforeValue() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (stack_.empty()) return;
  if (!stack_.back().first) out_->push_back(',');
  stack_.back().first = false;
  if (layout_ == Layout::kPretty) {
    out_->push_back('\n');
    Indent();
  }
}

void JsonWriter::Indent() {
  out_->append(2 * stack_.size(), ' ');
}

void JsonWriter::Escape(std::string_view raw) {
  out_->push_back('"');
  for (char c : raw) {
    switch (c) {
      case '"':
        out_->append("\\\"");
        break;
      case '\\':
        out_->append("\\\\");
        break;
      case '\n':
        out_->append("\\n");
        break;
      case '\t':
        out_->append("\\t");
        break;
      case '\r':
        out_->append("\\r");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out_->append(buf);
        } else {
          out_->push_back(c);
        }
    }
  }
  out_->push_back('"');
}

std::string FormatMetricsJson(const MetricsSnapshot& snapshot) {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.Key("bcast_metrics_version");
  w.Int(snapshot.version);
  w.Key("meta");
  w.BeginObject();
  for (const auto& [key, value] : snapshot.meta) {
    w.Key(key);
    w.String(value);
  }
  w.EndObject();
  w.Key("counters");
  w.BeginObject();
  for (const auto& [name, value] : snapshot.counters) {
    w.Key(name);
    w.UInt(value);
  }
  w.EndObject();
  w.Key("histograms");
  w.BeginArray();
  for (const HistogramSnapshot& hist : snapshot.histograms) {
    w.BeginObject();
    w.Key("name");
    w.String(hist.name);
    w.Key("count");
    w.UInt(hist.count);
    w.Key("sum");
    w.UInt(hist.sum);
    w.Key("min");
    w.UInt(hist.count == 0 ? 0 : hist.min);
    w.Key("max");
    w.UInt(hist.max);
    w.Key("p50");
    w.Double(hist.Quantile(0.5));
    w.Key("p99");
    w.Double(hist.Quantile(0.99));
    w.Key("buckets");
    w.BeginArray();
    for (const HistogramBucket& bucket : hist.buckets) {
      w.BeginObject();
      w.Key("lower");
      w.UInt(bucket.lower);
      w.Key("upper");
      w.UInt(bucket.upper);
      w.Key("count");
      w.UInt(bucket.count);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  out.push_back('\n');
  return out;
}

Status WriteMetricsJson(const MetricsSnapshot& snapshot,
                        const std::string& path) {
  return WriteTextFile(path, FormatMetricsJson(snapshot));
}

std::string FormatChromeTraceJson(const TraceRecorder& recorder) {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.Key("traceEvents");
  w.BeginArray();
  for (const TraceRecorder::Event& event : recorder.Events()) {
    w.BeginObject();
    w.Key("name");
    w.String(event.name);
    w.Key("ph");
    w.String("X");
    w.Key("ts");
    w.Double(static_cast<double>(event.start_ns) / 1000.0);
    w.Key("dur");
    w.Double(static_cast<double>(event.duration_ns) / 1000.0);
    w.Key("pid");
    w.Int(1);
    w.Key("tid");
    w.Int(event.thread_id);
    w.EndObject();
  }
  w.EndArray();
  w.Key("displayTimeUnit");
  w.String("ns");
  w.EndObject();
  out.push_back('\n');
  return out;
}

Status WriteChromeTraceJson(const TraceRecorder& recorder,
                            const std::string& path) {
  return WriteTextFile(path, FormatChromeTraceJson(recorder));
}

std::string FormatMetricsHuman(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  out << "metrics snapshot (schema v" << snapshot.version << ")\n";
  if (!snapshot.meta.empty()) {
    out << "meta:\n";
    for (const auto& [key, value] : snapshot.meta) {
      out << "  " << key << " = " << value << "\n";
    }
  }
  if (!snapshot.counters.empty()) {
    out << "counters:\n";
    for (const auto& [name, value] : snapshot.counters) {
      out << "  " << name << " = " << value << "\n";
    }
  }
  if (!snapshot.histograms.empty()) {
    out << "histograms:\n";
    for (const HistogramSnapshot& hist : snapshot.histograms) {
      out << "  " << hist.name << ": count=" << hist.count;
      if (hist.count > 0) {
        out << " sum=" << hist.sum << " min=" << hist.min
            << " max=" << hist.max << " p50~" << hist.Quantile(0.5);
      }
      out << "\n";
    }
  }
  return out.str();
}

Status WriteTextFile(const std::string& path, std::string_view contents) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    return InvalidArgumentError("cannot open for writing: " + path);
  }
  file.write(contents.data(),
             static_cast<std::streamsize>(contents.size()));
  file.close();
  if (!file) {
    return InternalError("short write: " + path);
  }
  return Status::Ok();
}

}  // namespace bcast::obs
