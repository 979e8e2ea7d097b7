#include "obs/trace.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "core/env.h"

namespace jitfd::obs {

namespace detail {

std::atomic<std::uint32_t> g_enabled{0};

}  // namespace detail

namespace {

// Bit 31 of g_enabled is the global force flag; the low bits count live
// EnableScopes. enabled() only tests != 0, so the two compose freely.
constexpr std::uint32_t kForceBit = 1U << 31;

// Event::nargs of an arg slot (headers carry at most kMaxArgs).
constexpr std::uint8_t kArgSlot = 0xff;

std::atomic<std::size_t> g_capacity{std::size_t{1} << 16};

std::size_t round_pow2(std::size_t n) {
  return std::bit_ceil(std::max<std::size_t>(n, 8));
}

/// Single-writer ring buffer of one thread. The owning thread is the
/// only writer; collectors read behind an acquire on `head` and are
/// documented to run only while the writer is quiescent.
struct ThreadBuffer {
  explicit ThreadBuffer(std::size_t capacity, int rank_)
      : slots(capacity), mask(capacity - 1), rank(rank_) {}

  std::vector<Event> slots;
  std::size_t mask;
  std::atomic<std::uint64_t> head{0};
  int rank;
};

struct Registry {
  std::mutex mtx;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  // Records merged from other rank processes (import_file), already
  // realigned onto this process's epoch.
  std::vector<TraceData::Rec> imported;
  std::uint64_t imported_dropped = 0;
};

Registry& registry() {
  static Registry* r = new Registry;  // Leaked: rank threads may outlive
  return *r;                          // static destruction order.
}

thread_local ThreadBuffer* t_buf = nullptr;
thread_local int t_rank = 0;
thread_local int t_depth = 0;

ThreadBuffer* attach_thread() {
  auto buf = std::make_unique<ThreadBuffer>(
      round_pow2(g_capacity.load(std::memory_order_relaxed)), t_rank);
  t_buf = buf.get();
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mtx);
  reg.buffers.push_back(std::move(buf));
  return t_buf;
}

/// Store `e` plus one arg slot per pair; one release store publishes
/// them together.
void push(Event e, const Arg* args = nullptr, int nargs = 0) {
  ThreadBuffer* b = t_buf != nullptr ? t_buf : attach_thread();
  const std::uint64_t h = b->head.load(std::memory_order_relaxed);
  e.nargs = static_cast<std::uint8_t>(nargs);
  b->slots[static_cast<std::size_t>(h) & b->mask] = e;
  e.nargs = kArgSlot;
  for (int i = 0; i < nargs; ++i) {
    e.name = args[i].key;
    e.a0 = std::bit_cast<std::int64_t>(args[i].value);
    b->slots[static_cast<std::size_t>(h + 1 + i) & b->mask] = e;
  }
  b->head.store(h + 1 + static_cast<std::uint64_t>(nargs),
                std::memory_order_release);
}

/// Reads JITFD_TRACE / JITFD_TRACE_RING before main. Strict-parse
/// failures cannot propagate out of a static initializer, so they are
/// reported and fatal here.
const bool g_env_init = [] {
  try {
    const std::int64_t ring = jitfd::env::get_int("JITFD_TRACE_RING", 0);
    if (ring > 0) {
      set_ring_capacity(static_cast<std::size_t>(ring));
    }
    if (jitfd::env::get_bool("JITFD_TRACE", false)) {
      set_enabled(true);
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "jitfd: %s\n", ex.what());
    std::exit(2);
  }
  return true;
}();

}  // namespace

const char* to_string(Cat cat) {
  static constexpr const char* kNames[] = {
      "compile", "jit",  "compute", "pack",   "send",   "wait", "unpack",
      "halo",    "msg",  "sync",    "sparse", "health", "solver", "run"};
  static_assert(std::size(kNames) == kCatCount, "one name per Cat");
  const auto i = static_cast<std::size_t>(cat);
  return i < std::size(kNames) ? kNames[i] : "?";
}

namespace {

// The per-process epoch lives on the system-wide CLOCK_MONOTONIC
// timeline (std::chrono::steady_clock on Linux), which is what makes
// cross-process trace merging exact.
const std::chrono::steady_clock::time_point& epoch_tp() {
  static const std::chrono::steady_clock::time_point e =
      std::chrono::steady_clock::now();
  return e;
}

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_tp())
          .count());
}

std::uint64_t epoch_monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          epoch_tp().time_since_epoch())
          .count());
}

void set_enabled(bool on) {
  if (on) {
    detail::g_enabled.fetch_or(kForceBit, std::memory_order_relaxed);
    (void)now_ns();  // Pin the epoch before the first span.
  } else {
    detail::g_enabled.fetch_and(~kForceBit, std::memory_order_relaxed);
  }
}

EnableScope::EnableScope(bool on) : on_(on) {
  if (on_) {
    detail::g_enabled.fetch_add(1, std::memory_order_relaxed);
    (void)now_ns();
  }
}

EnableScope::~EnableScope() {
  if (on_) {
    detail::g_enabled.fetch_sub(1, std::memory_order_relaxed);
  }
}

void set_thread_rank(int rank) {
  t_rank = rank;
  if (t_buf != nullptr) {
    t_buf->rank = rank;
  }
}

void set_ring_capacity(std::size_t events) {
  g_capacity.store(round_pow2(events), std::memory_order_relaxed);
}

namespace detail {

std::uint64_t span_begin() {
  ++t_depth;
  return now_ns();
}

void span_end(const char* name, Cat cat, std::uint64_t t0_ns,
              std::int64_t a0, std::int32_t a1) {
  const std::uint64_t t1 = now_ns();
  const int depth = --t_depth;
  push({name, t0_ns, t1, a0, a1, cat,
        static_cast<std::uint8_t>(depth < 0 ? 0 : depth)});
}

void record_instant(const char* name, Cat cat, std::int64_t a0,
                    std::int32_t a1, const Arg* args, int nargs) {
  const std::uint64_t t = now_ns();
  push({name, t, t, a0, a1, cat,
        static_cast<std::uint8_t>(t_depth < 0 ? 0 : t_depth)},
       args, std::clamp(nargs, 0, kMaxArgs));
}

}  // namespace detail

TraceData collect() {
  TraceData out;
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mtx);
  for (const auto& buf : reg.buffers) {
    const std::uint64_t h = buf->head.load(std::memory_order_acquire);
    const std::uint64_t cap = buf->mask + 1;
    const std::uint64_t n = h < cap ? h : cap;
    out.dropped += h - n;
    int pending_args = 0;  // Arg slots still owed to the last header.
    for (std::uint64_t i = h - n; i < h; ++i) {
      const Event& e = buf->slots[static_cast<std::size_t>(i) & buf->mask];
      if (e.nargs == kArgSlot) {
        // Reattach to its header; arg slots whose header the ring has
        // already overwritten are orphans and dropped.
        if (pending_args > 0) {
          out.events.back().args.emplace_back(
              e.name != nullptr ? e.name : "?",
              std::bit_cast<double>(e.a0));
          --pending_args;
        }
        continue;
      }
      pending_args = e.nargs;
      TraceData::Rec rec;
      rec.name = e.name != nullptr ? e.name : "?";
      rec.cat = e.cat;
      rec.rank = buf->rank;
      rec.t0_ns = e.t0_ns;
      rec.t1_ns = e.t1_ns;
      rec.a0 = e.a0;
      rec.a1 = e.a1;
      rec.depth = e.depth;
      out.events.push_back(std::move(rec));
    }
  }
  out.events.insert(out.events.end(), reg.imported.begin(),
                    reg.imported.end());
  out.dropped += reg.imported_dropped;
  std::stable_sort(out.events.begin(), out.events.end(),
                   [](const TraceData::Rec& a, const TraceData::Rec& b) {
                     return a.rank != b.rank ? a.rank < b.rank
                                             : a.t0_ns < b.t0_ns;
                   });
  return out;
}

void reset() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mtx);
  for (const auto& buf : reg.buffers) {
    buf->head.store(0, std::memory_order_release);
  }
  reg.imported.clear();
  reg.imported_dropped = 0;
}

namespace {

// Binary trace-file framing (host-endian; the files only ever travel
// between rank processes of one launch on one machine).
constexpr std::uint64_t kTraceMagic = 0x4a46445452433032ULL;  // "JFDTRC02"

template <typename T>
void put(std::ofstream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
bool get(std::ifstream& is, T& v) {
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  return static_cast<bool>(is);
}

void put_str(std::ofstream& os, const std::string& s) {
  put(os, static_cast<std::uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

bool get_str(std::ifstream& is, std::string& s) {
  std::uint32_t len = 0;
  if (!get(is, len) || len > (1U << 20)) {
    return false;
  }
  s.resize(len);
  is.read(s.data(), static_cast<std::streamsize>(len));
  return static_cast<bool>(is);
}

}  // namespace

void save_file(const std::string& path) {
  const TraceData data = collect();
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) {
    throw std::runtime_error("obs::save_file: cannot write " + path);
  }
  put(os, kTraceMagic);
  put(os, epoch_monotonic_ns());
  put(os, data.dropped);
  put(os, static_cast<std::uint64_t>(data.events.size()));
  for (const TraceData::Rec& r : data.events) {
    put_str(os, r.name);
    put(os, static_cast<std::uint8_t>(r.cat));
    put(os, static_cast<std::int32_t>(r.rank));
    put(os, r.t0_ns);
    put(os, r.t1_ns);
    put(os, r.a0);
    put(os, r.a1);
    put(os, r.depth);
    put(os, static_cast<std::uint8_t>(r.args.size()));
    for (const auto& [key, value] : r.args) {
      put_str(os, key);
      put(os, value);
    }
  }
  if (!os) {
    throw std::runtime_error("obs::save_file: short write to " + path);
  }
}

bool import_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    return false;
  }
  std::uint64_t magic = 0;
  std::uint64_t their_epoch = 0;
  std::uint64_t dropped = 0;
  std::uint64_t count = 0;
  if (!get(is, magic) || magic != kTraceMagic || !get(is, their_epoch) ||
      !get(is, dropped) || !get(is, count)) {
    return false;
  }
  // Realign: their t=0 is their epoch; shift every timestamp by the
  // epoch difference on the shared monotonic timeline. Events predating
  // our epoch clamp to 0 (can only happen when our epoch was pinned
  // later than theirs).
  const std::int64_t delta = static_cast<std::int64_t>(their_epoch) -
                             static_cast<std::int64_t>(epoch_monotonic_ns());
  std::vector<TraceData::Rec> recs;
  recs.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    TraceData::Rec r;
    std::uint8_t cat = 0;
    std::int32_t rank = 0;
    std::uint8_t nargs = 0;
    if (!get_str(is, r.name) || !get(is, cat) || !get(is, rank) ||
        !get(is, r.t0_ns) || !get(is, r.t1_ns) || !get(is, r.a0) ||
        !get(is, r.a1) || !get(is, r.depth) || !get(is, nargs)) {
      return false;
    }
    r.args.resize(nargs);
    for (auto& [key, value] : r.args) {
      if (!get_str(is, key) || !get(is, value)) {
        return false;
      }
    }
    r.cat = static_cast<Cat>(cat);
    r.rank = rank;
    const auto shift = [delta](std::uint64_t t) {
      const std::int64_t shifted = static_cast<std::int64_t>(t) + delta;
      return shifted > 0 ? static_cast<std::uint64_t>(shifted)
                         : std::uint64_t{0};
    };
    r.t0_ns = shift(r.t0_ns);
    r.t1_ns = shift(r.t1_ns);
    recs.push_back(std::move(r));
  }
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mtx);
  reg.imported.insert(reg.imported.end(),
                      std::make_move_iterator(recs.begin()),
                      std::make_move_iterator(recs.end()));
  reg.imported_dropped += dropped;
  return true;
}

}  // namespace jitfd::obs
