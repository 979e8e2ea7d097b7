#include "obs/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace jitfd::obs::json {

void quote(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (u >= 0x20) {
      os << c;
    } else if (u >= '\b' && u <= '\r' && u != '\v') {
      os << '\\' << "btn_fr"[u - '\b'];  // \b \t \n \f \r.
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(u));
      os << buf;
    }
  }
  os << '"';
}

void number(std::ostream& os, double v, NonFinite nf, int digits) {
  if (!std::isfinite(v)) {
    os << (nf == NonFinite::Null ? "null" : "0");
    return;
  }
  char buf[64];
  const std::to_chars_result r =
      digits > 0 ? std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::general, digits)
                 : std::to_chars(buf, buf + sizeof(buf), v);
  os.write(buf, r.ptr - buf);
}

bool write_file(const std::string& path, std::string_view doc) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << doc;
  return static_cast<bool>(out);
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return static_cast<bool>(in);
}

void Writer::prefix() {
  if (after_key_ || stack_.empty()) {
    after_key_ = false;
    return;
  }
  Level& level = stack_.back();
  if (!level.first) {
    os_ << ',';
  }
  if (level.block) {
    newline(stack_.size());
  } else if (!level.first) {
    os_ << ' ';
  }
  level.first = false;
}

void Writer::newline(std::size_t depth) {
  os_ << '\n' << std::string(2 * depth, ' ');
}

Writer& Writer::open(char bracket) {
  prefix();
  os_ << bracket;
  stack_.push_back({true, stack_.size() < block_depth_});
  return *this;
}

Writer& Writer::close(char bracket) {
  const Level level = stack_.back();
  stack_.pop_back();
  if (level.block && !level.first) {
    newline(stack_.size());
  }
  os_ << bracket;
  if (stack_.empty()) {
    os_ << '\n';
  }
  return *this;
}

Writer& Writer::key(std::string_view k) {
  prefix();
  quote(os_, k);
  os_ << ": ";
  after_key_ = true;
  return *this;
}

Writer& Writer::raw(std::string_view json) {
  prefix();
  // Trailing newlines of an embedded document would break the layout.
  while (!json.empty() && json.back() == '\n') {
    json.remove_suffix(1);
  }
  os_ << json;
  return *this;
}

}  // namespace jitfd::obs::json
