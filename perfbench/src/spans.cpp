#include "spans.h"

#include <cstdio>
#include <sstream>

namespace perfbench {

Recorder::Recorder() : origin_(std::chrono::steady_clock::now()) {}

double Recorder::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int Recorder::open(std::string name) {
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_us = now_us();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Recorder::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_us = now_us();
  // Scopes nest, so the closed span is the innermost open one.
  if (!open_.empty() && open_.back() == id) {
    open_.pop_back();
  }
}

double Recorder::self_us(int id) const {
  const Span& s = spans_[static_cast<std::size_t>(id)];
  double self = s.end_us - s.start_us;
  for (const Span& c : spans_) {
    if (c.parent == id) {
      self -= c.end_us - c.start_us;
    }
  }
  return self;
}

std::string Recorder::chrome_json() const {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":%.3f,\"dur\":%.3f,",
                  s.start_us, s.end_us - s.start_us);
    os << (i ? "," : "") << "{\"name\":\"" << s.name << "\"," << buf
       << "\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
       << ",\"self_us\":" << self_us(static_cast<int>(i)) << "}}";
  }
  os << "],\"displayTimeUnit\":\"ms\"}\n";
  return os.str();
}

Scope::Scope(Recorder* rec, const char* name)
    : rec_(rec), start_(std::chrono::steady_clock::now()) {
  if (rec_ != nullptr) {
    id_ = rec_->open(name);
  }
}

Scope::~Scope() {
  if (rec_ != nullptr) {
    rec_->close(id_);
  }
}

double Scope::seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
