#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "core/env.h"
#include "obs/json.h"

namespace jitfd::obs::metrics {

#ifndef JITFD_OBS_DISABLED
namespace detail {

namespace {
std::uint32_t init_from_env() {
  return jitfd::env::get_bool("JITFD_METRICS", false) ? 1u : 0u;
}
}  // namespace

std::atomic<std::uint32_t> g_enabled{init_from_env()};

}  // namespace detail
#endif

void set_enabled(bool on) {
#ifndef JITFD_OBS_DISABLED
  detail::g_enabled.store(on ? 1u : 0u, std::memory_order_relaxed);
#else
  (void)on;
#endif
}

namespace {

struct Instrument {
  Snapshot::Kind kind;
  std::string help;
  Counter* counter = nullptr;
  Gauge* gauge = nullptr;
  Histogram* histogram = nullptr;
};

// The registry is leaked so rank threads that outlive static teardown
// can still touch instruments they cached by reference.
struct Registry {
  std::mutex mu;
  std::map<std::string, Instrument, std::less<>> instruments;
};

Registry& registry() {
  static Registry* r = new Registry();
  return *r;
}

template <class T>
T& lookup(std::string_view name, std::string_view help, Snapshot::Kind kind,
          T* Instrument::*slot) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.instruments.find(name);
  if (it == r.instruments.end()) {
    Instrument inst;
    inst.kind = kind;
    inst.help = std::string(help);
    inst.*slot = new T();
    it = r.instruments.emplace(std::string(name), inst).first;
  } else if (it->second.kind != kind) {
    throw std::logic_error("obs::metrics: instrument '" + std::string(name) +
                           "' already registered as a different kind");
  } else if (it->second.help.empty() && !help.empty()) {
    it->second.help = std::string(help);
  }
  return *(it->second.*slot);
}

const char* kind_name(Snapshot::Kind k) {
  switch (k) {
    case Snapshot::Kind::Counter: return "counter";
    case Snapshot::Kind::Gauge: return "gauge";
    case Snapshot::Kind::Histogram: return "histogram";
  }
  return "?";
}

/// Prometheus HELP text escaping: backslash and line feed only.
std::string escape_prom_help(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string sanitize_prom(std::string_view name) {
  std::string out = "jitfd_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

void Histogram::observe(double v) {
  if (!enabled()) return;
  int b = kBuckets - 1;
  double ub = kBucketBase;
  for (int i = 0; i < kBuckets - 1; ++i, ub *= 2.0) {
    if (v <= ub) {
      b = i;
      break;
    }
  }
  buckets_[static_cast<std::size_t>(b)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

double Histogram::upper_bound(int i) {
  if (i >= kBuckets - 1) return std::numeric_limits<double>::infinity();
  return kBucketBase * std::ldexp(1.0, i);
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

Counter& counter(std::string_view name) { return counter(name, {}); }

Counter& counter(std::string_view name, std::string_view help) {
  return lookup<Counter>(name, help, Snapshot::Kind::Counter,
                         &Instrument::counter);
}

Gauge& gauge(std::string_view name) { return gauge(name, {}); }

Gauge& gauge(std::string_view name, std::string_view help) {
  return lookup<Gauge>(name, help, Snapshot::Kind::Gauge, &Instrument::gauge);
}

Histogram& histogram(std::string_view name) { return histogram(name, {}); }

Histogram& histogram(std::string_view name, std::string_view help) {
  return lookup<Histogram>(name, help, Snapshot::Kind::Histogram,
                           &Instrument::histogram);
}

void reset() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& [name, inst] : r.instruments) {
    switch (inst.kind) {
      case Snapshot::Kind::Counter: inst.counter->reset(); break;
      case Snapshot::Kind::Gauge: inst.gauge->reset(); break;
      case Snapshot::Kind::Histogram: inst.histogram->reset(); break;
    }
  }
}

std::vector<Snapshot> snapshot() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<Snapshot> out;
  out.reserve(r.instruments.size());
  for (const auto& [name, inst] : r.instruments) {
    Snapshot s;
    s.name = name;
    s.help = inst.help;
    s.kind = inst.kind;
    switch (inst.kind) {
      case Snapshot::Kind::Counter:
        s.count = inst.counter->value();
        break;
      case Snapshot::Kind::Gauge:
        s.value = inst.gauge->value();
        break;
      case Snapshot::Kind::Histogram: {
        s.count = inst.histogram->count();
        s.value = inst.histogram->sum();
        std::uint64_t cum = 0;
        for (int i = 0; i < Histogram::kBuckets; ++i) {
          cum += inst.histogram->bucket(i);
          s.buckets.emplace_back(Histogram::upper_bound(i), cum);
        }
        break;
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::string to_json() {
  const std::vector<Snapshot> snaps = snapshot();
  std::ostringstream os;
  json::Writer w(os, json::NonFinite::Zero);
  w.begin_object().key("metrics").begin_array();
  for (const Snapshot& s : snaps) {
    w.begin_object().field("name", s.name).field("type", kind_name(s.kind));
    w.field("help", s.help);
    switch (s.kind) {
      case Snapshot::Kind::Counter: w.field("value", s.count); break;
      case Snapshot::Kind::Gauge: w.field("value", s.value); break;
      case Snapshot::Kind::Histogram:
        w.field("count", s.count).field("sum", s.value);
        w.key("buckets").begin_array();
        for (const auto& [le, cum] : s.buckets) {
          w.begin_object();
          std::isinf(le) ? w.field("le", "+Inf") : w.field("le", le);
          w.field("count", cum).end_object();
        }
        w.end_array();
        break;
    }
    w.end_object();
  }
  w.end_array().end_object();
  return os.str();
}

std::string to_prometheus() {
  const std::vector<Snapshot> snaps = snapshot();
  std::ostringstream os;
  for (const Snapshot& s : snaps) {
    const std::string prom = sanitize_prom(s.name);
    // HELP precedes TYPE (the exposition-format convention; trace_check
    // --metrics validates the pairing). Empty help keeps the bare line.
    os << "# HELP " << prom;
    if (!s.help.empty()) {
      os << " " << escape_prom_help(s.help);
    }
    os << "\n";
    os << "# TYPE " << prom << " " << kind_name(s.kind) << "\n";
    switch (s.kind) {
      case Snapshot::Kind::Counter:
        os << prom << " " << s.count << "\n";
        break;
      case Snapshot::Kind::Gauge:
        os << prom << " ";
        json::number(os, s.value, json::NonFinite::Zero);
        os << "\n";
        break;
      case Snapshot::Kind::Histogram: {
        for (const auto& [le, cum] : s.buckets) {
          os << prom << "_bucket{le=\"";
          if (std::isinf(le)) {
            os << "+Inf";
          } else {
            json::number(os, le, json::NonFinite::Zero);
          }
          os << "\"} " << cum << "\n";
        }
        os << prom << "_sum ";
        json::number(os, s.value, json::NonFinite::Zero);
        os << "\n";
        os << prom << "_count " << s.count << "\n";
        break;
      }
    }
  }
  return os.str();
}

}  // namespace jitfd::obs::metrics
