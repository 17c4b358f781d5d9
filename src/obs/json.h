#ifndef CATAPULT_OBS_JSON_H_
#define CATAPULT_OBS_JSON_H_

// Minimal streaming JSON writer shared by every machine-readable artifact
// the system emits: selection reports (src/core/report.cc), metrics dumps
// and Chrome trace files (src/obs/), and the BENCH_*.json files written by
// the bench harnesses. Handles comma placement and full string escaping;
// the caller is responsible for balanced Begin/End calls. Numbers are
// emitted with enough precision to round-trip a double, and non-finite
// doubles degrade to null (JSON has no Inf/NaN literals, and a single bad
// value must not make the whole document unparseable).
//
// Promoted out of bench/bench_common.h so the report writer and the bench
// harnesses share one escaping implementation instead of three.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

namespace catapult::obs {

class JsonWriter {
 public:
  // `indent` > 0 pretty-prints with that many spaces per nesting level and a
  // space after each key's colon; 0 (the default) emits the compact form.
  // Both forms parse identically — pretty is for artifacts people read
  // (selection reports), compact for machine-consumed dumps (traces,
  // metrics, bench output).
  explicit JsonWriter(int indent = 0) : indent_(indent) {}

  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }

  // Key of the next value inside an object; follow with Value/Begin*.
  JsonWriter& Key(const std::string& name) {
    ItemPrefix();
    Escaped(name);
    out_ += indent_ > 0 ? ": " : ":";
    pending_value_ = true;
    return *this;
  }

  JsonWriter& Value(const std::string& v) {
    ItemPrefix();
    Escaped(v);
    return *this;
  }
  JsonWriter& Value(const char* v) { return Value(std::string(v)); }
  JsonWriter& Value(double v) {
    ItemPrefix();
    if (!std::isfinite(v)) {
      out_ += "null";
      return *this;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
    return *this;
  }
  JsonWriter& Value(uint64_t v) {
    ItemPrefix();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& Value(int64_t v) {
    ItemPrefix();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& Value(int v) {
    ItemPrefix();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& Value(bool v) {
    ItemPrefix();
    out_ += v ? "true" : "false";
    return *this;
  }

  const std::string& str() const { return out_; }

  // Writes the document to `path` (with a trailing newline); returns false
  // on I/O failure, which callers report but do not abort on.
  bool WriteFile(const std::string& path) const {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out << out_ << '\n';
    return static_cast<bool>(out);
  }

  // JSON string escaping (quotes, backslashes, all C0 control characters).
  // Exposed so one-off writers that cannot use the streaming interface can
  // still share the escaping rules.
  static void AppendEscaped(std::string& out, const std::string& s) {
    out += '"';
    for (char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(static_cast<unsigned char>(c)));
            out += buf;
          } else {
            out += c;
          }
      }
    }
    out += '"';
  }

 private:
  JsonWriter& Open(char c) {
    ItemPrefix();
    out_ += c;
    ++depth_;
    need_comma_ = false;
    return *this;
  }
  JsonWriter& Close(char c) {
    --depth_;
    if (indent_ > 0) NewlineIndent();
    out_ += c;
    need_comma_ = true;
    pending_value_ = false;
    return *this;
  }
  // Emitted before every item (key, value, or opener): the separating comma
  // and, in pretty mode, the newline + indentation — unless the item is the
  // value that follows its own key.
  void ItemPrefix() {
    if (pending_value_) {
      pending_value_ = false;  // value follows its key on the same line
      return;
    }
    if (need_comma_) out_ += ',';
    if (indent_ > 0 && depth_ > 0) NewlineIndent();
    need_comma_ = true;
  }
  void NewlineIndent() {
    out_ += '\n';
    out_.append(static_cast<size_t>(depth_ * indent_), ' ');
  }
  void Escaped(const std::string& s) { AppendEscaped(out_, s); }

  std::string out_;
  int indent_ = 0;
  int depth_ = 0;
  bool need_comma_ = false;
  bool pending_value_ = false;
};

}  // namespace catapult::obs

#endif  // CATAPULT_OBS_JSON_H_
