#include "codegen/jit.h"

#include <dlfcn.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#if defined(__SSE__)
#include <xmmintrin.h>
#endif

#include "codegen/emit.h"
#include "codegen/sha256.h"
#include "core/env.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace jitfd::codegen {

namespace fs = std::filesystem;

namespace {

std::atomic<std::uint64_t> g_cache_hits{0};
std::atomic<std::uint64_t> g_cache_misses{0};

/// Removes the per-process scratch cache at exit (persistent
/// $JITFD_CACHE_DIR caches are never cleaned automatically).
struct ScratchDir {
  fs::path path;
  ~ScratchDir() {
    if (!path.empty()) {
      std::error_code ec;
      fs::remove_all(path, ec);  // Best effort; never throw in a dtor.
    }
  }
};

const fs::path& cache_dir() {
  static ScratchDir scratch;
  static const fs::path dir = [] {
    const std::string persistent =
        jitfd::env::get_string("JITFD_CACHE_DIR", "");
    if (!persistent.empty()) {
      fs::path d(persistent);
      fs::create_directories(d);
      return d;
    }
    fs::path base;
    if (const char* tmp = std::getenv("TMPDIR")) {
      base = tmp;
    } else {
      base = "/tmp";
    }
    fs::path d =
        base / ("jitfd-cache-" + std::to_string(static_cast<long>(::getpid())));
    fs::create_directories(d);
    scratch.path = d;
    return d;
  }();
  return dir;
}

std::string run_command(const std::string& cmd, int& exit_code) {
  std::string output;
  FILE* pipe = ::popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) {
    exit_code = -1;
    return "popen failed";
  }
  char buf[512];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
    output += buf;
  }
  exit_code = ::pclose(pipe);
  return output;
}

/// Write `data` to `dest` atomically (tmp + rename), so a concurrent
/// process sharing $JITFD_CACHE_DIR never observes a partial file.
void write_file_atomic(const fs::path& dest, const std::string& data) {
  fs::path tmp = dest;
  tmp += "." + std::to_string(static_cast<long>(::getpid())) + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary);
    out << data;
    if (!out) {
      throw std::runtime_error("jit: cannot write " + tmp.string());
    }
  }
  fs::rename(tmp, dest);
}

/// One cached compilation; compile() runs at most once per process per
/// key even when many rank threads construct identical kernels
/// concurrently.
struct CacheEntry {
  std::once_flag once;
  std::string so_path;
  double compile_seconds = 0.0;
  bool from_disk = false;
};

std::shared_ptr<CacheEntry> entry_for(const std::string& key) {
  static std::mutex mtx;
  static std::unordered_map<std::string, std::shared_ptr<CacheEntry>> table;
  const std::lock_guard<std::mutex> lock(mtx);
  auto& slot = table[key];
  if (slot == nullptr) {
    slot = std::make_shared<CacheEntry>();
  }
  return slot;
}

void compile(const std::string& source, const std::string& compiler,
             const std::string& flags, const std::string& key,
             CacheEntry& entry) {
  const fs::path so_path = cache_dir() / (key + ".so");
  entry.so_path = so_path.string();
  if (fs::exists(so_path)) {
    entry.from_disk = true;
    return;
  }

  const fs::path src_path = cache_dir() / (key + ".c");
  write_file_atomic(src_path, source);

  // Compile to a process-unique name, then publish with an atomic
  // rename; concurrent processes racing on the same key both succeed
  // and the loser's rename simply replaces an identical file.
  fs::path build_path = so_path;
  build_path += "." + std::to_string(static_cast<long>(::getpid())) + ".tmp";
  std::ostringstream cmd;
  cmd << compiler << ' ' << flags << " -o " << build_path.string() << ' '
      << src_path.string() << " -lm";

  const auto start = std::chrono::steady_clock::now();
  const jitfd::obs::Span span("jit.cc", jitfd::obs::Cat::Jit,
                              static_cast<std::int64_t>(source.size()));
  int rc = 0;
  const std::string diag = run_command(cmd.str(), rc);
  entry.compile_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (rc != 0) {
    std::error_code ec;
    fs::remove(build_path, ec);
    throw std::runtime_error("jit: compilation failed:\n" + cmd.str() + "\n" +
                             diag);
  }
  fs::rename(build_path, so_path);
}

/// Restores the calling thread's MXCSR on every exit from a kernel call,
/// including an exception thrown by a halo, sparse or health callback
/// through the generated C frames, which skips the kernel's epilogue.
/// FTZ|DAZ are set by the kernel's prologue, on every team thread this
/// one included: setting them here first would make the threads OpenMP
/// creates inside the call inherit the flushed mode as their own.
class RestoreFpMode {
 public:
#if defined(__SSE__)
  RestoreFpMode() : saved_(_mm_getcsr()) {}
  ~RestoreFpMode() { _mm_setcsr(saved_); }
  RestoreFpMode(const RestoreFpMode&) = delete;
  RestoreFpMode& operator=(const RestoreFpMode&) = delete;

 private:
  unsigned int saved_;
#endif
};

}  // namespace

JitKernel::JitKernel(const std::string& source, bool openmp) {
  jitfd::obs::Span build_span("jit.build", jitfd::obs::Cat::Jit,
                              static_cast<std::int64_t>(source.size()));
  const std::string compiler = jitfd::env::get_string("JITFD_CC", "cc");
  std::string flags = "-O3 -march=native -shared -fPIC";
  if (openmp) {
    flags += " -fopenmp";
  }
  const std::string key =
      sha256_hex(compiler + '\n' + flags + '\n' + source);

  auto entry = entry_for(key);
  bool compiled_now = false;
  std::call_once(entry->once, [&] {
    compiled_now = true;
    compile(source, compiler, flags, key, *entry);
  });

  cache_hit_ = !compiled_now || entry->from_disk;
  build_span.set_aux(cache_hit_ ? 1 : 0);
  static jitfd::obs::metrics::Counter& builds =
      jitfd::obs::metrics::counter("jit.builds");
  builds.add(1);
  if (cache_hit_) {
    g_cache_hits.fetch_add(1, std::memory_order_relaxed);
    static jitfd::obs::metrics::Counter& hits =
        jitfd::obs::metrics::counter("jit.cache_hits");
    hits.add(1);
  } else {
    g_cache_misses.fetch_add(1, std::memory_order_relaxed);
    compile_seconds_ = entry->compile_seconds;
    static jitfd::obs::metrics::Histogram& hist =
        jitfd::obs::metrics::histogram("jit.build_seconds");
    hist.observe(compile_seconds_);
  }

  handle_ = ::dlopen(entry->so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle_ == nullptr) {
    throw std::runtime_error(std::string("jit: dlopen failed: ") +
                             ::dlerror());
  }
  fn_ = reinterpret_cast<KernelFn>(::dlsym(handle_, kKernelSymbol));
  if (fn_ == nullptr) {
    throw std::runtime_error("jit: kernel symbol not found");
  }
}

JitKernel::~JitKernel() {
  if (handle_ != nullptr) {
    ::dlclose(handle_);
  }
}

JitKernel::JitKernel(JitKernel&& other) noexcept
    : handle_(other.handle_),
      fn_(other.fn_),
      compile_seconds_(other.compile_seconds_),
      cache_hit_(other.cache_hit_) {
  other.handle_ = nullptr;
  other.fn_ = nullptr;
}

JitKernel& JitKernel::operator=(JitKernel&& other) noexcept {
  if (this != &other) {
    this->~JitKernel();
    new (this) JitKernel(std::move(other));
  }
  return *this;
}

std::uint64_t JitKernel::cache_hits() {
  return g_cache_hits.load(std::memory_order_relaxed);
}

std::uint64_t JitKernel::cache_misses() {
  return g_cache_misses.load(std::memory_order_relaxed);
}

int JitKernel::run(float** fields, const double* scalars, std::int64_t time_m,
                   std::int64_t time_M, void* hctx,
                   const JitHaloOps* ops) const {
  [[maybe_unused]] const RestoreFpMode restore;
  return fn_(fields, scalars, static_cast<long>(time_m),
             static_cast<long>(time_M), hctx, ops);
}

}  // namespace jitfd::codegen
