// The one JSON writer behind every export of the stack: the Chrome
// trace and events document (obs/report.h), the flight bundle, metrics,
// analysis, the autotune report (core/autotune.h) and the bench reports
// (bench/bench_util.h).
//
// Three parts: RFC 8259 string escaping, one number formatter, and the
// comma/nesting bookkeeping of objects and arrays. Documents choose
// their non-finite policy once, when they create the Writer: JSON has no
// NaN/Inf, so schemas that allow it write null, the others 0.
#pragma once

#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace jitfd::obs::json {

/// What a document writes for NaN and +/-Inf.
enum class NonFinite { Null, Zero };

/// Write `s` as a quoted JSON string: '"' and '\' escaped, control
/// characters as \b \f \n \r \t or \u00XX.
void quote(std::ostream& os, std::string_view s);

/// Write `v` in the shortest form that reads back as the same double,
/// or rounded to `digits` significant digits (printf "%.<digits>g")
/// when digits > 0; NaN/Inf become null or 0 per `nf`.
void number(std::ostream& os, double v, NonFinite nf, int digits = 0);

/// Write a serialized document to `path`; false when the file cannot
/// be written.
bool write_file(const std::string& path, std::string_view doc);

/// Read the whole file at `path` into `out`; false when it cannot be
/// opened.
bool read_file(const std::string& path, std::string& out);

/// Streaming writer. Containers opened at a nesting depth below
/// `block_depth` put each member on its own indented line; deeper ones
/// stay on one line. Closing the outermost container ends the line.
/// Doubles are written by number() with the writer's `nf` and `digits`.
class Writer {
 public:
  explicit Writer(std::ostream& os, NonFinite nf, int block_depth = 2,
                  int digits = 0)
      : os_(os), nf_(nf), block_depth_(block_depth), digits_(digits) {}

  Writer& key(std::string_view k);
  Writer& begin_object() { return open('{'); }
  Writer& end_object() { return close('}'); }
  Writer& begin_array() { return open('['); }
  Writer& end_array() { return close(']'); }

  Writer& str(std::string_view s) {
    prefix();
    quote(os_, s);
    return *this;
  }
  Writer& num(double v) {
    prefix();
    number(os_, v, nf_, digits_);
    return *this;
  }
  template <class T>
    requires std::is_integral_v<T>
  Writer& num(T v) {
    prefix();
    os_ << +v;
    return *this;
  }
  Writer& boolean(bool b) {
    prefix();
    os_ << (b ? "true" : "false");
    return *this;
  }
  /// An already-serialized JSON value, embedded verbatim.
  Writer& raw(std::string_view json);

  /// key(k) followed by the value writer matching v's type.
  template <class T>
  Writer& field(std::string_view k, const T& v) {
    key(k);
    if constexpr (std::is_same_v<T, bool>) {
      return boolean(v);
    } else if constexpr (std::is_arithmetic_v<T>) {
      return num(v);
    } else {
      return str(v);
    }
  }

 private:
  void prefix();  ///< Separator and layout before the next value.
  Writer& open(char bracket);
  Writer& close(char bracket);
  void newline(std::size_t depth);

  struct Level {
    bool first = true;
    bool block = false;
  };
  std::ostream& os_;
  NonFinite nf_;
  std::size_t block_depth_;
  int digits_;
  std::vector<Level> stack_;
  bool after_key_ = false;
};

}  // namespace jitfd::obs::json
