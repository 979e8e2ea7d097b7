#include "obs/flight.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <map>
#include <mutex>
#include <sstream>

#include "core/env.h"
#include "obs/health.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace jitfd::obs::flight {

namespace {

/// Trace/event tail lengths per bundle: enough for a story, small
/// enough that a dump stays a few hundred KB.
constexpr std::size_t kTraceTailPerRank = 128;
constexpr std::size_t kEventTail = 256;

/// Per-rank current-step slots (ranks are threads of one process; the
/// SMPI substrate caps world sizes far below this).
constexpr int kMaxRanks = 256;

struct State {
  std::mutex mtx;
  std::map<std::string, std::string> config;
  std::deque<health::Sample> health;
  std::string dump_path;
};

State& state() {
  static State* s = new State;  // Leaked: see trace.cpp registry note.
  return *s;
}

std::atomic<std::int64_t> g_steps[kMaxRanks];
std::atomic<int> g_max_rank{-1};
std::atomic<bool> g_dumped{false};

std::string build_bundle(const std::string& reason, int rank,
                         std::int64_t step, const std::string& detail) {
  std::ostringstream os;
  json::Writer w(os, json::NonFinite::Null, 3);
  w.begin_object().key("flight").begin_object();
  w.field("schema_version", 1).field("reason", reason);
  w.field("rank", rank).field("step", step).field("detail", detail);

  State& s = state();
  {
    const std::lock_guard<std::mutex> lock(s.mtx);
    w.key("config").begin_object();
    for (const auto& [k, v] : s.config) {
      w.key(k).raw(v);
    }
    w.end_object();

    w.key("health").begin_array();
    for (const health::Sample& h : s.health) {
      w.begin_object().field("step", h.step).field("field", h.field);
      w.field("field_id", h.field_id).field("nan", h.nan_count);
      w.field("inf", h.inf_count).field("min", h.min).field("max", h.max);
      w.field("l2", h.l2).field("bad_rank", h.first_bad_rank).end_object();
    }
    w.end_array();
  }

  w.key("steps").begin_array();
  const int max_rank = g_max_rank.load(std::memory_order_relaxed);
  for (int r = 0; r <= max_rank && r < kMaxRanks; ++r) {
    w.begin_object().field("rank", r);
    w.field("step", g_steps[r].load(std::memory_order_relaxed)).end_object();
  }
  w.end_array();

  // Recent structured events (the newest kv instants of the trace ring).
  const TraceData trace = obs::collect();
  w.key("events").raw(events_json(trace, kEventTail));

  // Trace-ring tail, newest kTraceTailPerRank records per rank (the
  // snapshot is sorted by rank, then time).
  std::map<int, std::size_t> left;
  for (const TraceData::Rec& rec : trace.events) {
    ++left[rec.rank];
  }
  w.key("trace").begin_array();
  for (const TraceData::Rec& rec : trace.events) {
    if (left[rec.rank]-- <= kTraceTailPerRank) {
      w.begin_object().field("name", rec.name);
      w.field("cat", obs::to_string(rec.cat)).field("rank", rec.rank);
      w.field("t0_ns", rec.t0_ns).field("t1_ns", rec.t1_ns);
      w.field("a0", rec.a0).field("a1", rec.a1).end_object();
    }
  }
  w.end_array();

  w.key("metrics").raw(metrics::to_json());
  w.end_object().end_object();
  return os.str();
}

void signal_handler(int sig) {
  // Not async-signal-safe, but the process is dying anyway; a partial
  // bundle beats none. Restore the default disposition first so a
  // second fault during the dump terminates instead of recursing.
  std::signal(sig, SIG_DFL);
  dump("signal:" + std::to_string(sig), -1, -1, "fatal signal");
  std::raise(sig);
}

std::terminate_handler g_prev_terminate = nullptr;

[[noreturn]] void terminate_handler() {
  std::string what = "(unknown)";
  if (const std::exception_ptr p = std::current_exception()) {
    try {
      std::rethrow_exception(p);
    } catch (const std::exception& e) {
      what = e.what();
    } catch (...) {
    }
  }
  dump("uncaught_exception", -1, -1, what);
  if (g_prev_terminate != nullptr) {
    g_prev_terminate();
  }
  std::abort();
}

}  // namespace

void set_config(const std::string& key, const std::string& json_value) {
  State& s = state();
  const std::lock_guard<std::mutex> lock(s.mtx);
  s.config[key] = json_value;
}

void record_health(const health::Sample& sample) {
  State& s = state();
  const std::lock_guard<std::mutex> lock(s.mtx);
  s.health.push_back(sample);
  while (s.health.size() > kHealthRing) {
    s.health.pop_front();
  }
}

void note_step(int rank, std::int64_t step) {
  if (rank < 0 || rank >= kMaxRanks) {
    return;
  }
  g_steps[rank].store(step, std::memory_order_relaxed);
  int prev = g_max_rank.load(std::memory_order_relaxed);
  while (rank > prev && !g_max_rank.compare_exchange_weak(
                            prev, rank, std::memory_order_relaxed)) {
  }
}

std::string dump(const std::string& reason, int rank, std::int64_t step,
                 const std::string& detail) {
  State& s = state();
  const std::string dir = jitfd::env::get_string("JITFD_FLIGHT_DIR", "");
  std::string path = !dir.empty() ? dir + "/jitfd_flight.json"
                                  : std::string("jitfd_flight.json");
  bool expected = false;
  if (!g_dumped.compare_exchange_strong(expected, true,
                                        std::memory_order_acq_rel)) {
    // A bundle exists or is being written; the path is deterministic,
    // so report it even if the winner has not finished recording it.
    const std::lock_guard<std::mutex> lock(s.mtx);
    return s.dump_path.empty() ? path : s.dump_path;
  }
  json::write_file(path, build_bundle(reason, rank, step, detail));
  const std::lock_guard<std::mutex> lock(s.mtx);
  s.dump_path = path;
  return path;
}

bool dumped() { return g_dumped.load(std::memory_order_acquire); }

void reset_for_testing() {
  State& s = state();
  const std::lock_guard<std::mutex> lock(s.mtx);
  g_dumped.store(false, std::memory_order_release);
  s.dump_path.clear();
  s.health.clear();
  g_max_rank.store(-1, std::memory_order_relaxed);
}

void install_crash_handlers() {
  static std::once_flag once;
  std::call_once(once, [] {
    g_prev_terminate = std::set_terminate(&terminate_handler);
    for (const int sig : {SIGSEGV, SIGABRT, SIGFPE, SIGILL, SIGBUS}) {
      std::signal(sig, &signal_handler);
    }
  });
}

}  // namespace jitfd::obs::flight
