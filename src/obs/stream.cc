#include "obs/stream.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "obs/export.h"

namespace bcast::obs {

namespace {

const char* TypeName(TelemetryRecord::Type type) {
  switch (type) {
    case TelemetryRecord::Type::kMeta:
      return "meta";
    case TelemetryRecord::Type::kTick:
      return "tick";
    case TelemetryRecord::Type::kAlert:
      return "alert";
    case TelemetryRecord::Type::kFin:
      return "fin";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON parser — just enough to read back the
// streams this module writes (objects, arrays, strings, numbers, booleans,
// null). Self-contained so the obs layer stays dependency-free.
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Find(std::string_view key) const {
    for (const auto& [name, value] : object) {
      if (name == key) return &value;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    auto value = ParseValue();
    if (!value.ok()) return value;
    SkipSpace();
    if (pos_ != text_.size()) return Error("trailing content");
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return InvalidArgumentError("JSON parse error at offset " +
                                std::to_string(pos_) + ": " + what);
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue() {
    SkipSpace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') return ParseString();
    if (c == 't' || c == 'f') return ParseBool();
    if (c == 'n') return ParseNull();
    return ParseNumber();
  }

  Result<JsonValue> ParseObject() {
    ++pos_;  // '{'
    JsonValue value;
    value.kind = JsonValue::Kind::kObject;
    if (Consume('}')) return value;
    while (true) {
      auto key = ParseString();
      if (!key.ok()) return key.status();
      if (!Consume(':')) return Error("expected ':' after object key");
      auto member = ParseValue();
      if (!member.ok()) return member.status();
      value.object.emplace_back(std::move(key->string),
                                std::move(member).value());
      if (Consume(',')) continue;
      if (Consume('}')) return value;
      return Error("expected ',' or '}' in object");
    }
  }

  Result<JsonValue> ParseArray() {
    ++pos_;  // '['
    JsonValue value;
    value.kind = JsonValue::Kind::kArray;
    if (Consume(']')) return value;
    while (true) {
      auto element = ParseValue();
      if (!element.ok()) return element.status();
      value.array.push_back(std::move(element).value());
      if (Consume(',')) continue;
      if (Consume(']')) return value;
      return Error("expected ',' or ']' in array");
    }
  }

  Result<JsonValue> ParseString() {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Error("expected string");
    }
    ++pos_;
    JsonValue value;
    value.kind = JsonValue::Kind::kString;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c != '\\') {
        value.string.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Error("dangling escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          value.string.push_back('"');
          break;
        case '\\':
          value.string.push_back('\\');
          break;
        case '/':
          value.string.push_back('/');
          break;
        case 'n':
          value.string.push_back('\n');
          break;
        case 't':
          value.string.push_back('\t');
          break;
        case 'r':
          value.string.push_back('\r');
          break;
        case 'b':
          value.string.push_back('\b');
          break;
        case 'f':
          value.string.push_back('\f');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("bad \\u escape digit");
            }
          }
          // The writer only emits \u00XX for control bytes; decode the BMP
          // range as UTF-8 so foreign streams still read sensibly.
          if (code < 0x80) {
            value.string.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            value.string.push_back(static_cast<char>(0xC0 | (code >> 6)));
            value.string.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            value.string.push_back(static_cast<char>(0xE0 | (code >> 12)));
            value.string.push_back(
                static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            value.string.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("unknown escape");
      }
    }
    if (pos_ >= text_.size()) return Error("unterminated string");
    ++pos_;  // closing quote
    return value;
  }

  Result<JsonValue> ParseBool() {
    JsonValue value;
    value.kind = JsonValue::Kind::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      value.boolean = true;
      pos_ += 4;
      return value;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      value.boolean = false;
      pos_ += 5;
      return value;
    }
    return Error("expected true/false");
  }

  Result<JsonValue> ParseNull() {
    if (text_.compare(pos_, 4, "null") != 0) return Error("expected null");
    pos_ += 4;
    return JsonValue{};
  }

  Result<JsonValue> ParseNumber() {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a value");
    std::string buffer(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double parsed = std::strtod(buffer.c_str(), &end);
    if (end != buffer.c_str() + buffer.size()) return Error("bad number");
    JsonValue value;
    value.kind = JsonValue::Kind::kNumber;
    value.number = parsed;
    return value;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

Result<double> NumberOrNull(const JsonValue& value, const char* what) {
  if (value.kind == JsonValue::Kind::kNull) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (value.kind != JsonValue::Kind::kNumber) {
    return InvalidArgumentError(std::string("telemetry record: ") + what +
                                " must be a number or null");
  }
  return value.number;
}

Result<uint64_t> UIntField(const JsonValue& object, const char* key,
                           uint64_t fallback) {
  const JsonValue* field = object.Find(key);
  if (field == nullptr) return fallback;
  if (field->kind != JsonValue::Kind::kNumber || field->number < 0) {
    return InvalidArgumentError(std::string("telemetry record: '") + key +
                                "' must be a non-negative number");
  }
  return static_cast<uint64_t>(field->number);
}

}  // namespace

std::string FormatTelemetryRecord(const TelemetryRecord& record) {
  std::string out;
  JsonWriter w(&out, JsonWriter::Layout::kCompact);
  w.BeginObject();
  w.Key("v");
  w.Int(kTelemetrySchemaVersion);
  w.Key("t");
  w.String(TypeName(record.type));
  switch (record.type) {
    case TelemetryRecord::Type::kMeta:
      for (const auto& [key, value] : record.meta) {
        w.Key(key);
        w.String(value);
      }
      if (!record.slos.empty()) {
        w.Key("slos");
        w.BeginArray();
        for (const std::string& spec : record.slos) w.String(spec);
        w.EndArray();
      }
      break;
    case TelemetryRecord::Type::kTick:
      w.Key("i");
      w.UInt(record.index);
      w.Key("series");
      w.BeginObject();
      for (const auto& [name, value] : record.values) {
        w.Key(name);
        w.Double(value);  // NaN/inf -> null
      }
      w.EndObject();
      break;
    case TelemetryRecord::Type::kAlert: {
      w.Key("i");
      w.UInt(record.index);
      const SloAlert& alert = record.alert.value_or(SloAlert{});
      w.Key("slo");
      w.String(alert.slo);
      w.Key("series");
      w.String(alert.series);
      w.Key("state");
      w.String(alert.firing ? "firing" : "resolved");
      w.Key("value");
      w.Double(alert.value);
      w.Key("burn_rate");
      w.Double(alert.burn_rate);
      w.Key("budget_consumed");
      w.Double(alert.budget_consumed);
      break;
    }
    case TelemetryRecord::Type::kFin:
      w.Key("i");
      w.UInt(record.index);
      w.Key("ticks");
      w.UInt(record.ticks);
      w.Key("alerts");
      w.UInt(record.alerts);
      w.Key("dropped");
      w.UInt(record.dropped);
      for (const auto& [key, value] : record.meta) {
        w.Key(key);
        w.String(value);
      }
      break;
  }
  w.EndObject();
  return out;
}

Result<TelemetryRecord> ParseTelemetryRecord(std::string_view line) {
  auto parsed = JsonParser(line).Parse();
  if (!parsed.ok()) return parsed.status();
  if (parsed->kind != JsonValue::Kind::kObject) {
    return InvalidArgumentError("telemetry record: line is not a JSON object");
  }
  const JsonValue* version = parsed->Find("v");
  if (version == nullptr || version->kind != JsonValue::Kind::kNumber ||
      static_cast<int>(version->number) != kTelemetrySchemaVersion) {
    return InvalidArgumentError(
        "telemetry record: missing or unsupported schema version 'v'");
  }
  const JsonValue* type = parsed->Find("t");
  if (type == nullptr || type->kind != JsonValue::Kind::kString) {
    return InvalidArgumentError("telemetry record: missing type 't'");
  }

  TelemetryRecord record;
  auto index = UIntField(*parsed, "i", 0);
  if (!index.ok()) return index.status();
  record.index = *index;

  if (type->string == "meta") {
    record.type = TelemetryRecord::Type::kMeta;
    for (const auto& [key, value] : parsed->object) {
      if (key == "v" || key == "t" || key == "slos") continue;
      if (value.kind == JsonValue::Kind::kString) {
        record.meta[key] = value.string;
      }
    }
    if (const JsonValue* slos = parsed->Find("slos"); slos != nullptr) {
      if (slos->kind != JsonValue::Kind::kArray) {
        return InvalidArgumentError("telemetry meta: 'slos' must be an array");
      }
      for (const JsonValue& spec : slos->array) {
        if (spec.kind != JsonValue::Kind::kString) {
          return InvalidArgumentError(
              "telemetry meta: 'slos' entries must be strings");
        }
        record.slos.push_back(spec.string);
      }
    }
    return record;
  }
  if (type->string == "tick") {
    record.type = TelemetryRecord::Type::kTick;
    const JsonValue* series = parsed->Find("series");
    if (series == nullptr || series->kind != JsonValue::Kind::kObject) {
      return InvalidArgumentError(
          "telemetry tick: missing 'series' object");
    }
    for (const auto& [name, value] : series->object) {
      auto number = NumberOrNull(value, "series value");
      if (!number.ok()) return number.status();
      record.values[name] = *number;
    }
    return record;
  }
  if (type->string == "alert") {
    record.type = TelemetryRecord::Type::kAlert;
    SloAlert alert;
    alert.index = record.index;
    const JsonValue* slo = parsed->Find("slo");
    const JsonValue* series = parsed->Find("series");
    const JsonValue* state = parsed->Find("state");
    if (slo == nullptr || slo->kind != JsonValue::Kind::kString ||
        series == nullptr || series->kind != JsonValue::Kind::kString ||
        state == nullptr || state->kind != JsonValue::Kind::kString) {
      return InvalidArgumentError(
          "telemetry alert: needs string 'slo', 'series' and 'state'");
    }
    alert.slo = slo->string;
    alert.series = series->string;
    if (state->string == "firing") {
      alert.firing = true;
    } else if (state->string == "resolved") {
      alert.firing = false;
    } else {
      return InvalidArgumentError("telemetry alert: unknown state '" +
                                  state->string + "'");
    }
    for (const auto& [key, target] :
         std::initializer_list<std::pair<const char*, double*>>{
             {"value", &alert.value},
             {"burn_rate", &alert.burn_rate},
             {"budget_consumed", &alert.budget_consumed}}) {
      if (const JsonValue* field = parsed->Find(key); field != nullptr) {
        auto number = NumberOrNull(*field, key);
        if (!number.ok()) return number.status();
        *target = *number;
      }
    }
    record.alert = std::move(alert);
    return record;
  }
  if (type->string == "fin") {
    record.type = TelemetryRecord::Type::kFin;
    auto ticks = UIntField(*parsed, "ticks", 0);
    auto alerts = UIntField(*parsed, "alerts", 0);
    auto dropped = UIntField(*parsed, "dropped", 0);
    if (!ticks.ok()) return ticks.status();
    if (!alerts.ok()) return alerts.status();
    if (!dropped.ok()) return dropped.status();
    record.ticks = *ticks;
    record.alerts = *alerts;
    record.dropped = *dropped;
    for (const auto& [key, value] : parsed->object) {
      if (value.kind == JsonValue::Kind::kString && key != "t") {
        record.meta[key] = value.string;
      }
    }
    return record;
  }
  return InvalidArgumentError("telemetry record: unknown type '" +
                              type->string + "'");
}

Result<std::vector<TelemetryRecord>> ParseTelemetryJsonl(
    std::string_view text) {
  std::vector<TelemetryRecord> records;
  size_t begin = 0;
  int lineno = 0;
  while (begin <= text.size()) {
    size_t end = text.find('\n', begin);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(begin, end - begin);
    ++lineno;
    if (!line.empty()) {
      auto record = ParseTelemetryRecord(line);
      if (!record.ok()) {
        return InvalidArgumentError("line " + std::to_string(lineno) + ": " +
                                    record.status().message());
      }
      records.push_back(std::move(record).value());
    }
    if (end == text.size()) break;
    begin = end + 1;
  }
  return records;
}

Result<std::vector<TelemetryRecord>> ReadTelemetryFile(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return NotFoundError("cannot open '" + path + "'");
  std::ostringstream contents;
  contents << in.rdbuf();
  return ParseTelemetryJsonl(contents.str());
}

SeriesSet RebuildSeries(const std::vector<TelemetryRecord>& records,
                        size_t capacity) {
  SeriesSet series(capacity);
  for (const TelemetryRecord& record : records) {
    if (record.type != TelemetryRecord::Type::kTick) continue;
    for (const auto& [name, value] : record.values) {
      series.GetOrCreate(name)->Append(record.index, value);
    }
  }
  return series;
}

// ---------------------------------------------------------------------------
// JsonlFileSink
// ---------------------------------------------------------------------------

Result<JsonlFileSink> JsonlFileSink::Open(const std::string& path,
                                          size_t max_buffered_bytes) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return InvalidArgumentError("cannot open for writing: " + path + " (" +
                                std::strerror(errno) + ")");
  }
  return JsonlFileSink(file, path, max_buffered_bytes);
}

JsonlFileSink::JsonlFileSink(std::FILE* file, std::string path,
                             size_t max_buffered_bytes)
    : file_(file),
      path_(std::move(path)),
      max_buffered_bytes_(max_buffered_bytes) {}

JsonlFileSink::~JsonlFileSink() {
  if (file_ != nullptr) {
    FlushBuffer();
    std::fclose(file_);
  }
}

JsonlFileSink::JsonlFileSink(JsonlFileSink&& other) noexcept
    : file_(other.file_),
      path_(std::move(other.path_)),
      max_buffered_bytes_(other.max_buffered_bytes_),
      buffer_(std::move(other.buffer_)),
      dropped_(other.dropped_),
      error_(other.error_) {
  other.file_ = nullptr;
}

JsonlFileSink& JsonlFileSink::operator=(JsonlFileSink&& other) noexcept {
  if (this != &other) {
    if (file_ != nullptr) {
      FlushBuffer();
      std::fclose(file_);
    }
    file_ = other.file_;
    path_ = std::move(other.path_);
    max_buffered_bytes_ = other.max_buffered_bytes_;
    buffer_ = std::move(other.buffer_);
    dropped_ = other.dropped_;
    error_ = other.error_;
    other.file_ = nullptr;
  }
  return *this;
}

void JsonlFileSink::Emit(const TelemetryRecord& record) {
  if (!error_.ok()) {
    // Poisoned: the medium failed once; losing telemetry (accounted) is
    // better than stalling or failing the run it observes.
    ++dropped_;
    return;
  }
  buffer_ += FormatTelemetryRecord(record);
  buffer_ += '\n';
  if (buffer_.size() >= max_buffered_bytes_) FlushBuffer();
}

void JsonlFileSink::FlushBuffer() {
  if (buffer_.empty() || file_ == nullptr) return;
  const size_t written =
      std::fwrite(buffer_.data(), 1, buffer_.size(), file_);
  if (written != buffer_.size() || std::fflush(file_) != 0) {
    error_ = InternalError("short write to " + path_);
    // None of the buffered records is known to have landed: count them all
    // (one per line) with the ones a poisoned Emit drops later.
    dropped_ += static_cast<uint64_t>(
        std::count(buffer_.begin(), buffer_.end(), '\n'));
  }
  buffer_.clear();
}

Status JsonlFileSink::Flush() {
  FlushBuffer();
  return error_;
}

// ---------------------------------------------------------------------------
// TelemetryPipeline
// ---------------------------------------------------------------------------

TelemetryPipeline::TelemetryPipeline(TelemetrySink* sink,
                                     TelemetryOptions options)
    : sink_(sink),
      options_(std::move(options)),
      series_(options_.series_capacity),
      slo_(options_.slos) {
  TelemetryRecord meta;
  meta.type = TelemetryRecord::Type::kMeta;
  meta.meta = options_.meta;
  if (!options_.source.empty()) meta.meta["source"] = options_.source;
  for (const SloSpec& spec : options_.slos) {
    meta.slos.push_back(FormatSloSpec(spec));
  }
  sink_->Emit(meta);
}

void TelemetryPipeline::Observe(std::string_view series, double value) {
  staged_.emplace_back(std::string(series), value);
}

void TelemetryPipeline::Tick(uint64_t index) {
  if (finished_) return;
  TelemetryRecord tick;
  tick.type = TelemetryRecord::Type::kTick;
  tick.index = index;

  for (const auto& [name, value] : staged_) {
    series_.GetOrCreate(name)->Append(index, value);
    tick.values[name] = value;
  }
  staged_.clear();

  if (options_.registry != nullptr) {
    DeltaSnapshotter::Delta delta = deltas_.Take(options_.registry->Snapshot());
    for (const std::string& name : options_.counters) {
      auto it = delta.counters.find(name);
      const double value =
          it == delta.counters.end() ? 0.0 : static_cast<double>(it->second);
      const std::string series_name = name + ".delta";
      series_.GetOrCreate(series_name)->Append(index, value);
      tick.values[series_name] = value;
    }
    for (const std::string& name : options_.histograms) {
      const HistogramSnapshot* window = nullptr;
      for (const HistogramSnapshot& hist : delta.histograms) {
        if (hist.name == name) {
          window = &hist;
          break;
        }
      }
      for (const auto& [suffix, q] :
           std::initializer_list<std::pair<const char*, double>>{
               {".p50", 0.50}, {".p95", 0.95}, {".p99", 0.99}}) {
        // An empty window has no quantile — NaN, not 0: a tick with no
        // recordings must not read as "everything was instant".
        const double value = window != nullptr && window->count > 0
                                 ? window->Quantile(q)
                                 : std::numeric_limits<double>::quiet_NaN();
        const std::string series_name = name + suffix;
        series_.GetOrCreate(series_name)->Append(index, value);
        tick.values[series_name] = value;
      }
    }
  }

  std::vector<SloAlert> alerts;
  slo_.Tick(index, series_, &alerts);

  sink_->Emit(tick);
  ++ticks_;
  last_index_ = index;
  for (SloAlert& alert : alerts) {
    TelemetryRecord record;
    record.type = TelemetryRecord::Type::kAlert;
    record.index = index;
    record.alert = std::move(alert);
    sink_->Emit(record);
    ++alerts_;
  }
}

Status TelemetryPipeline::Finish(std::string_view outcome) {
  if (finished_) return finish_status_;
  finished_ = true;
  TelemetryRecord fin;
  fin.type = TelemetryRecord::Type::kFin;
  fin.index = last_index_;
  fin.ticks = ticks_;
  fin.alerts = alerts_;
  fin.dropped = sink_->dropped();
  fin.meta["outcome"] = std::string(outcome);
  sink_->Emit(fin);
  finish_status_ = sink_->Flush();
  return finish_status_;
}

}  // namespace bcast::obs
