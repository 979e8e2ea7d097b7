#include "workloads.h"

#include <omp.h>
#include <sched.h>
#include <unistd.h>
#include <xmmintrin.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "codegen/jit.h"
#include "core/operator.h"
#include "grid/function.h"
#include "grid/grid.h"
#include "models/acoustic.h"
#include "models/tti.h"
#include "roof.h"
#include "runtime/halo.h"
#include "smpi/runtime.h"
#include "sparse/sparse_function.h"
#include "spans.h"
#include "symbolic/manip.h"

namespace perfbench {

namespace {

using jitfd::core::Backend;
namespace grid = jitfd::grid;
namespace ir = jitfd::ir;
namespace models = jitfd::models;
namespace runtime = jitfd::runtime;
namespace sparse = jitfd::sparse;
namespace core = jitfd::core;
namespace codegen = jitfd::codegen;

// --- Workload definitions ----------------------------------------------------

enum class Model { Acoustic, Tti };

struct Spec {
  const char* name;
  Model model;
  std::int64_t n;  ///< Global cube edge (points).
  int ranks;
  int threads;  ///< OpenMP threads per rank; 0 = every available core.
  smpi::TransportKind transport;
  ir::MpiMode mode;
  bool shot;  ///< Ricker source + receiver line (else a seeded pulse).
  int nbl;    ///< Absorbing-layer width (points).
  /// First step of every timed solve. A shot runs steps before it once,
  /// untimed, from the quiet medium, and every solve restarts from a
  /// snapshot of that state, so the window lies inside the real shot and
  /// the source keeps its true time index. 1 for pulse workloads.
  int first_step;
  int solve_steps;   ///< Steps of one solve; the window repeats solves.
  int batch;         ///< Steps per timed apply() call (one sample).
  int warmup_steps;  ///< Untimed steps after set-up (first touch).
  std::int64_t verify_n;
  int verify_steps;  ///< From step 1; covers the window's steps.

  int last_step() const { return first_step + solve_steps - 1; }
};

constexpr int kSpaceOrder = 8;
constexpr double kSpacing = 10.0;  // metres
constexpr double kPeakHz = 0.015;  // Ricker peak, cycles per ms
constexpr int kReceivers = 64;

// Why each workload exists is written down in perfbench/README.md, which
// also says why acoustic-strong-4r is not listed in BENCHMARK.json.
const Spec kSpecs[] = {
    {"acoustic-shot-oc", Model::Acoustic, 320, 1, 0,
     smpi::TransportKind::Threads, ir::MpiMode::None, true, 20, 121, 40, 1, 0,
     32, 160},
    {"tti-full-4r", Model::Tti, 96, 4, 1, smpi::TransportKind::ProcessShm,
     ir::MpiMode::Full, false, 0, 1, 28, 1, 4, 24, 10},
    {"acoustic-strong-4r", Model::Acoustic, 48, 4, 1,
     smpi::TransportKind::Threads, ir::MpiMode::Basic, false, 0, 1, 1024, 64,
     256, 24, 20},
};

const Spec& find_spec(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) {
      return s;
    }
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

/// Everything the seed decides. Generated before set-up starts; the
/// library only ever sees the resulting medium, source and initial state.
struct Medium {
  std::vector<double> tops;  ///< Layer tops as a fraction of depth.
  std::vector<double> vels;  ///< Layer velocities (m/ms).
  double vmax = 0.0;
  double tti_v = 0.0, eps = 0.0, del = 0.0, theta = 0.0, phi = 0.0;
  std::array<double, 3> centre{};  ///< Source / pulse, fraction of extent.
};

/// Width of the initial pulse (points). Fixed, not seeded: the width
/// sets how long the pulse's subnormal front lasts, and so the cost of
/// a solve's first steps.
constexpr double kPulseSigma = 2.25;

Medium make_medium(const Spec& spec, std::uint64_t seed) {
  // splitmix64: identical draws on every platform and standard library.
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ULL + 0x632BE59BD9B4E019ULL;
  auto next = [&state] {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  };
  auto uniform = [&next](double a, double b) {
    return a + (b - a) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  };
  // The seed moves interfaces, velocities, angles and positions but
  // pins the fastest P velocity, so the CFL time step -- and with it the
  // wave's reach per step -- is the same for every seed.
  Medium m;
  const int layers = 3 + static_cast<int>(next() % 3);
  m.tops.push_back(0.0);
  for (int k = 1; k < layers; ++k) {
    m.tops.push_back(uniform(0.2, 0.9));
  }
  std::sort(m.tops.begin(), m.tops.end());
  m.vmax = 3.5;
  // The top layer holds the shot's source, and its velocity sets how far
  // the wavefield -- and its subnormal shell -- spreads by the window, so
  // the seed moves it only within a narrow band. Velocities grow with depth.
  m.vels.push_back(uniform(1.7, 1.8));
  for (int k = 1; k + 1 < layers; ++k) {
    m.vels.push_back(uniform(m.vels[0], m.vmax));
  }
  std::sort(m.vels.begin(), m.vels.end());
  m.vels.push_back(m.vmax);
  // The TTI parameters and the pulse position set how fast the
  // subnormal shell spreads, and with it the cost of every step, so the
  // seed moves them only within narrow bands.
  m.eps = uniform(0.18, 0.22);
  m.tti_v = 2.5 / std::sqrt(1.0 + 2.0 * m.eps);
  m.del = uniform(0.08, 0.12);
  m.theta = uniform(0.35, 0.45);
  m.phi = uniform(0.7, 0.8);
  for (double& c : m.centre) {
    c = uniform(0.48, 0.52);
  }
  if (spec.shot) {
    // Shallow source, below the sponge. Its depth sets how much of the
    // wavefield the top sponge damps, so its band is narrow too.
    m.centre[0] = uniform(0.120, 0.125);
  }
  return m;
}

// --- Small helpers -----------------------------------------------------------

int available_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) {
    return static_cast<int>(std::thread::hardware_concurrency());
  }
  return CPU_COUNT(&set);
}

/// OpenMP threads each of the workload's ranks runs.
int threads_per_rank(const Spec& spec) {
  return spec.threads == 0 ? available_cores() : spec.threads;
}

/// Sets the calling rank's OpenMP team size. Thread ranks start with the
/// runtime's default, so every rank body calls this first.
void use_rank_threads(const Spec& spec) {
  omp_set_num_threads(threads_per_rank(spec));
}

double allreduce(const smpi::Communicator* c, double v, smpi::ReduceOp op) {
  if (c != nullptr) {
    c->allreduce(std::span<double>(&v, 1), op);
  }
  return v;
}

void barrier(const smpi::Communicator* c) {
  if (c != nullptr) {
    c->barrier();
  }
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Peak resident set of this process (VmHWM), in bytes.
double vm_hwm_bytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) * 1024.0;
    }
  }
  return 0.0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// Minimal writer for the flat report object.
class JsonObject {
 public:
  JsonObject& num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return raw(k, buf);
  }
  JsonObject& str(const std::string& k, const std::string& v) {
    std::string quoted(1, '"');
    quoted += json_escape(v);
    quoted += '"';
    return raw(k, quoted);
  }
  JsonObject& boolean(const std::string& k, bool v) {
    return raw(k, v ? "true" : "false");
  }
  JsonObject& raw(const std::string& k, const std::string& json) {
    os_ << (first_ ? "" : ",") << "\"" << json_escape(k) << "\":" << json;
    first_ = false;
    return *this;
  }
  std::string text() const {
    std::string out(1, '{');
    out += os_.str();
    out += '}';
    return out;
  }

 private:
  std::ostringstream os_;
  bool first_ = true;
};

std::string json_array(const std::vector<double>& v) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v[i]);
    os << (i ? "," : "") << buf;
  }
  os << ']';
  return os.str();
}

// --- One built workload ------------------------------------------------------

struct SetupTimes {
  double grid_s = 0.0;    ///< Grid + fields + medium + initial state.
  double sparse_s = 0.0;  ///< Source and receiver objects.
  double lower_s = 0.0;   ///< Operator construction (the compiler).
  double emit_s = 0.0;    ///< C emission.
  double build_s = 0.0;   ///< JIT build: cc + dlopen.
  double cc_s = 0.0;      ///< External-compiler part of build_s.
  double first_s = 0.0;   ///< Zero-step apply (kernel load, hoisted halos).
  bool cache_hit = false;
  std::size_t c_bytes = 0;
};

struct Instance {
  const Spec* spec = nullptr;
  const Medium* medium = nullptr;
  std::int64_t n = 0;
  std::unique_ptr<grid::Grid> grid;
  std::unique_ptr<models::WaveModel> model;
  std::vector<grid::TimeFunction*> state;  ///< Fields a solve resets.
  std::unique_ptr<sparse::SparseFunction> src;
  std::unique_ptr<sparse::SparseFunction> rec;
  std::unique_ptr<sparse::Injection> inject;
  std::unique_ptr<sparse::Interpolation> record;
  std::unique_ptr<core::Operator> op;
  /// The explicit JIT build the set-up times; the operator's own build
  /// then reuses it from the in-process compile cache.
  std::unique_ptr<codegen::JitKernel> kernel;
  double dt = 0.0;
  std::map<std::string, double> scalars;
  SetupTimes times;
  /// A shot's wavefield buffers at the window's first step (see
  /// Spec::first_step); empty until taken.
  std::vector<std::vector<float>> snapshot;

  double extent() const { return static_cast<double>(n - 1) * kSpacing; }
};

/// The time buffers that step `t` reads: u[t], u[t-1], ... down to the
/// field's time order.
std::vector<int> read_buffers(const grid::TimeFunction& f, std::int64_t t) {
  std::vector<int> out;
  for (int o = 0; o > -f.time_order(); --o) {
    out.push_back(f.buffer_index(o, t));
  }
  return out;
}

/// Keeps the state a shot's solves restart from: the buffers the
/// window's first step reads.
void take_snapshot(Instance& in) {
  in.snapshot.clear();
  for (grid::TimeFunction* f : in.state) {
    const auto n = static_cast<std::size_t>(f->buffer_points());
    for (const int b : read_buffers(*f, in.spec->first_step)) {
      in.snapshot.emplace_back(f->buffer(b), f->buffer(b) + n);
    }
  }
}

/// Put the solve's initial state into the wavefields: the snapshot once
/// taken, else all zeros for a shot (quiet medium), else the seeded pulse.
void reset_state(Instance& in) {
  if (!in.snapshot.empty()) {
    auto snap = in.snapshot.begin();
    for (grid::TimeFunction* f : in.state) {
      for (const int b : read_buffers(*f, in.spec->first_step)) {
        std::copy(snap->begin(), snap->end(), f->buffer(b));
        ++snap;
      }
    }
    return;
  }
  if (in.spec->shot) {
    for (grid::TimeFunction* f : in.state) {
      f->fill(0.0f);
    }
    return;
  }
  const Medium& m = *in.medium;
  const double s2 = kPulseSigma * kPulseSigma;
  const double cut = 9.0 * s2;  // Truncate at 3 sigma.
  std::array<double, 3> c{};
  for (int d = 0; d < 3; ++d) {
    c[static_cast<std::size_t>(d)] =
        m.centre[static_cast<std::size_t>(d)] * static_cast<double>(in.n - 1);
  }
  for (grid::TimeFunction* f : in.state) {
    f->init([&](std::span<const std::int64_t> g) {
      double r2 = 0.0;
      for (std::size_t d = 0; d < 3; ++d) {
        const double x = static_cast<double>(g[d]) - c[d];
        r2 += x * x;
      }
      return r2 < cut ? static_cast<float>(std::exp(-0.5 * r2 / s2)) : 0.0f;
    });
  }
}

std::unique_ptr<models::WaveModel> make_model(const Spec& spec,
                                              const Medium& m,
                                              const grid::Grid& g,
                                              std::int64_t n, int nbl) {
  if (spec.model == Model::Tti) {
    return std::make_unique<models::TtiModel>(g, kSpaceOrder, m.tti_v, m.eps,
                                              m.del, m.theta, m.phi);
  }
  const double depth = static_cast<double>(n - 1);
  const std::vector<double> tops = m.tops;
  const std::vector<double> vels = m.vels;
  return std::make_unique<models::AcousticModel>(
      g, kSpaceOrder,
      [tops, vels, depth](std::span<const std::int64_t> gi) {
        const double z = static_cast<double>(gi[0]) / depth;
        std::size_t k = 0;
        while (k + 1 < tops.size() && z >= tops[k + 1]) {
          ++k;
        }
        return vels[k];
      },
      m.vmax, nbl);
}

/// Builds a workload instance of edge `n`, timing each layer of the
/// set-up. `comm` null means a serial grid.
std::unique_ptr<Instance> build(const Spec& spec, const Medium& medium,
                                std::int64_t n, const smpi::Communicator* comm,
                                Backend backend, Recorder* rec) {
  auto in = std::make_unique<Instance>();
  in->spec = &spec;
  in->medium = &medium;
  in->n = n;
  const std::vector<std::int64_t> shape{n, n, n};
  const std::vector<double> extent(3, in->extent());
  // The sponge scales with the grid so a small verification instance
  // keeps an interior.
  const int nbl = static_cast<int>(spec.nbl * n / spec.n);
  {
    const Scope s(rec, "grid.alloc_init");
    in->grid = comm != nullptr
                   ? std::make_unique<grid::Grid>(shape, extent, *comm)
                   : std::make_unique<grid::Grid>(shape, extent);
    in->model = make_model(spec, medium, *in->grid, n, nbl);
    in->state.push_back(&in->model->wavefield());
    if (spec.model == Model::Tti) {
      in->state.push_back(&static_cast<models::TtiModel&>(*in->model).q());
    }
    reset_state(*in);
    in->times.grid_s = s.seconds();
  }
  in->dt = in->model->critical_dt();
  in->scalars = in->model->scalars(in->dt);
  std::vector<runtime::SparseOp*> ops;
  if (spec.shot) {
    const Scope s(rec, "sparse.setup");
    const double e = in->extent();
    const auto& c = medium.centre;
    in->src = std::make_unique<sparse::SparseFunction>(
        "src", *in->grid,
        std::vector<std::vector<double>>{{c[0] * e, c[1] * e, c[2] * e}});
    std::vector<std::vector<double>> rc;
    for (int r = 0; r < kReceivers; ++r) {
      rc.push_back({c[0] * e, c[1] * e, (0.05 + 0.9 * r / (kReceivers - 1)) * e});
    }
    in->rec = std::make_unique<sparse::SparseFunction>("rec", *in->grid, rc);
    const double dt = in->dt;
    in->inject = std::make_unique<sparse::Injection>(
        in->model->wavefield(), *in->src,
        [dt](std::int64_t t) {
          return sparse::ricker(static_cast<double>(t) * dt, kPeakHz,
                                1.0 / kPeakHz);
        },
        nullptr, 1);
    in->record = std::make_unique<sparse::Interpolation>(
        in->model->wavefield(), *in->rec, 1);
    ops = {in->inject.get(), in->record.get()};
    in->times.sparse_s = s.seconds();
  }
  {
    const Scope s(rec, "ir.lower");
    ir::CompileOptions opts;
    opts.mode = spec.mode;
    in->op = in->model->make_operator(opts, ops);
    in->times.lower_s = s.seconds();
  }
  in->op->set_default_backend(backend);
  if (backend == Backend::Jit) {
    {
      const Scope s(rec, "codegen.emit");
      in->times.c_bytes = in->op->ccode().size();
      in->times.emit_s = s.seconds();
    }
    {
      const Scope s(rec, "jit.build");
      in->kernel = std::make_unique<codegen::JitKernel>(in->op->ccode(), true);
      in->times.build_s = s.seconds();
      in->times.cc_s = in->kernel->compile_seconds();
      in->times.cache_hit = in->kernel->cache_hit();
    }
    const Scope s(rec, "jit.first_apply");
    in->op->apply({.time_m = 1, .time_M = 0, .scalars = in->scalars});
    in->times.first_s = s.seconds();
  }
  return in;
}

// --- Verification ------------------------------------------------------------

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Relative error tolerance of JIT output against the interpreter: the
/// generated C is compiled with -O3 -march=native (FMA contraction,
/// reassociated SIMD sums), so agreement is to float rounding, not bits.
constexpr double kVerifyTol = 1e-3;

double relative_error(const std::vector<double>& got,
                      const std::vector<double>& want) {
  if (got.size() != want.size() || want.empty()) {
    return INFINITY;
  }
  double peak = 0.0;
  double err = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (!std::isfinite(got[i]) || !std::isfinite(want[i])) {
      return INFINITY;
    }
    peak = std::max(peak, std::abs(want[i]));
    err = std::max(err, std::abs(got[i] - want[i]));
  }
  return peak > 0.0 ? err / peak : INFINITY;
}

/// The output a check compares: the receiver record for a shot, the
/// final wavefield otherwise. Collective on distributed grids; only the
/// root's vector is filled.
std::vector<double> output_of(Instance& in, int steps) {
  std::vector<double> out;
  if (in.spec->shot) {
    for (const auto& row : in.record->assemble()) {
      out.insert(out.end(), row.begin(), row.end());
    }
    return out;
  }
  grid::TimeFunction& u = in.model->wavefield();
  for (const float v : u.gather(u.buffer_index(1, steps))) {
    out.push_back(v);
  }
  return out;
}

std::vector<Check> verify(const Spec& spec, const Medium& medium,
                          double* ref_error) {
  const int steps = spec.verify_steps;
  std::vector<double> got;
  auto run_jit = [&](const smpi::Communicator* comm) {
    use_rank_threads(spec);
    auto in = build(spec, medium, spec.verify_n, comm, Backend::Jit, nullptr);
    in->op->apply({.time_m = 1, .time_M = steps, .scalars = in->scalars});
    std::vector<double> out = output_of(*in, steps);
    if (comm == nullptr || comm->rank() == 0) {
      got = std::move(out);
    }
  };
  if (spec.ranks > 1) {
    smpi::launch({.nranks = spec.ranks, .transport = spec.transport},
                 [&](smpi::Communicator& comm) { run_jit(&comm); });
  } else {
    run_jit(nullptr);
  }
  auto ref = build(spec, medium, spec.verify_n, nullptr, Backend::Interpret,
                   nullptr);
  ref->op->apply({.time_m = 1, .time_M = steps, .scalars = ref->scalars});
  const std::vector<double> want = output_of(*ref, steps);

  std::vector<Check> checks;
  const double err = relative_error(got, want);
  *ref_error = err;
  char detail[160];
  std::snprintf(detail, sizeof(detail),
                "%s of %lld^3, %d steps: max|jit-ref|/max|ref| = %.3g "
                "(tolerance %.0e)",
                spec.shot ? "receiver record" : "wavefield",
                static_cast<long long>(spec.verify_n), steps, err, kVerifyTol);
  checks.push_back({"verify.jit_vs_interpreter", err <= kVerifyTol, detail});

  // Self-check: the comparison must reject a corrupted output. One
  // sample is moved by 1% of the peak, ten times the tolerance.
  std::vector<double> bad = got;
  if (!bad.empty() && bad.size() == want.size()) {
    std::size_t at = 0;
    double peak = 0.0;
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (std::abs(want[i]) > peak) {
        peak = std::abs(want[i]);
        at = i;
      }
    }
    bad[at] += 10.0 * kVerifyTol * peak;
  }
  const double bad_err = relative_error(bad, want);
  std::snprintf(detail, sizeof(detail),
                "corrupted copy scored %.3g against tolerance %.0e", bad_err,
                kVerifyTol);
  checks.push_back({"verify.detects_corruption", !(bad_err <= kVerifyTol),
                    detail});
  return checks;
}

// --- Per-layer probes (traced run) ------------------------------------------

/// Computed compulsory bytes per point: every distinct (field, time
/// buffer) the time loop touches, read or written once, 4 bytes each.
/// Cache misses are not modelled, so this is a lower bound on traffic.
double computed_bytes_per_point(const core::Operator& op) {
  std::set<std::pair<int, int>> touched;
  const std::function<void(const ir::NodePtr&)> visit =
      [&](const ir::NodePtr& n) {
        if (n->type == ir::NodeType::Expression) {
          for (const jitfd::sym::Ex& e : {n->target, n->value}) {
            if (e.kind() == jitfd::sym::Kind::FieldAccess) {
              touched.insert({e.node().field.id, e.node().time_offset});
            }
            for (const jitfd::sym::Ex& a : jitfd::sym::field_accesses(e)) {
              touched.insert({a.node().field.id, a.node().time_offset});
            }
          }
          return;
        }
        for (const auto& c : n->body) {
          visit(c);
        }
      };
  for (const auto& top : op.iet()->body) {
    if (top->type == ir::NodeType::TimeLoop) {
      visit(top);
    }
  }
  return 4.0 * static_cast<double>(touched.size());
}

/// Median seconds per step of `op` over `reps` batches of `batch` steps.
double time_steps(core::Operator& op, const std::map<std::string, double>& sc,
                  std::int64_t first, int batch, int reps) {
  std::vector<double> per_step;
  std::int64_t t = first;
  for (int r = 0; r < reps; ++r) {
    const double a = now_s();
    op.apply({.time_m = t, .time_M = t + batch - 1, .scalars = sc});
    per_step.push_back((now_s() - a) / batch);
    t += batch;
  }
  return median(per_step);
}

/// A serial twin of this rank's block: the same model on a serial grid
/// of the rank's local shape, compiled without halo exchanges. `pairs`
/// maps every twin field to the rank's field of the same name, so the
/// rank's state can be copied in before each timed batch.
struct Twin {
  std::unique_ptr<Instance> in;
  std::vector<std::pair<const grid::Function*, grid::Function*>> pairs;
  bool complete = true;  ///< Every twin field found a same-sized source.

  void copy_state() {
    for (auto& [src, dst] : pairs) {
      std::copy(src->raw_storage().begin(), src->raw_storage().end(),
                dst->raw_storage().begin());
    }
  }
};

Twin serial_twin(const Instance& in) {
  Twin twin;
  twin.in = std::make_unique<Instance>();
  Instance& t = *twin.in;
  t.spec = in.spec;
  t.medium = in.medium;
  t.n = in.n;
  const auto& local = in.grid->local_shape();
  std::vector<double> extent;
  for (const std::int64_t s : local) {
    extent.push_back(static_cast<double>(s - 1) * kSpacing);
  }
  t.grid = std::make_unique<grid::Grid>(local, extent);
  t.model = make_model(*in.spec, *in.medium, *t.grid, in.n, 0);
  t.op = t.model->make_operator(ir::CompileOptions{});
  t.op->set_default_backend(Backend::Jit);
  for (const int id : t.op->info().field_order) {
    grid::Function* dst = grid::lookup_field(id);
    const grid::Function* src = nullptr;
    for (const int sid : in.op->info().field_order) {
      const grid::Function* f = grid::lookup_field(sid);
      if (f->name() == dst->name() &&
          f->raw_storage().size() == dst->raw_storage().size()) {
        src = f;
      }
    }
    if (src == nullptr) {
      twin.complete = false;
    } else {
      twin.pairs.emplace_back(src, dst);
    }
  }
  return twin;
}

/// Median microseconds of one step's halo exchanges, driving a fresh
/// HaloExchange over the operator's own lowered spots.
double halo_update_us(Instance& in, const smpi::Communicator& comm, int reps) {
  const ir::LoweringInfo& info = in.op->info();
  const ir::MpiMode mode = in.op->options().mode;
  runtime::HaloExchange hx(*in.grid, mode);
  hx.set_exchange_depth(info.exchange_depth);
  ir::FieldTable table;
  for (const ir::SpotInfo& spot : info.spots) {
    for (const ir::HaloNeed& need : spot.needs) {
      if (table.find(need.field_id) == nullptr) {
        table.add(grid::lookup_field(need.field_id));
      }
    }
  }
  for (const ir::SpotInfo& spot : info.spots) {
    hx.register_spot(spot, table);
  }
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    comm.barrier();
    const double a = now_s();
    for (const ir::SpotInfo& spot : info.spots) {
      if (spot.hoisted) {
        continue;
      }
      if (mode == ir::MpiMode::Full) {
        hx.start(spot.id, 1);
        hx.wait(spot.id);
      } else {
        hx.update(spot.id, 1);
      }
    }
    samples.push_back(now_s() - a);
  }
  return median(samples) * 1e6;
}

/// One-way latency (half the round trip) of a `bytes` message between
/// ranks 0 and 1; median over `reps`.
double pingpong_us(const smpi::Communicator& comm, std::size_t bytes,
                   int reps) {
  std::vector<char> buf(std::max<std::size_t>(bytes, 8));
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    comm.barrier();
    const double a = now_s();
    if (comm.rank() == 0) {
      comm.send(buf.data(), buf.size(), 1, 900);
      comm.recv(buf.data(), buf.size(), 1, 901);
    } else if (comm.rank() == 1) {
      comm.recv(buf.data(), buf.size(), 0, 900);
      comm.send(buf.data(), buf.size(), 0, 901);
    }
    samples.push_back(0.5 * (now_s() - a));
  }
  return median(samples) * 1e6;
}

double allreduce_us(const smpi::Communicator& comm, int reps) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    double v = 1.0;
    const double a = now_s();
    comm.allreduce(std::span<double>(&v, 1), smpi::ReduceOp::Sum);
    samples.push_back(now_s() - a);
  }
  return median(samples) * 1e6;
}

// --- The run -----------------------------------------------------------------

/// What rank 0 hands back to the caller after the ranks finish.
struct Result {
  double setup_s = 0.0;
  double warmup_s = 0.0;
  double dt_ms = 0.0;
  SetupTimes times;  ///< Root's set-up layers.
  double cc_max_s = 0.0;
  double dlopen_s = 0.0;
  double cache_hit_share = 0.0;
  std::vector<double> batch_s;
  std::vector<double> batch_steps;
  std::vector<double> batch_traced;  ///< 1 when the solve recorded spans.
  int solves = 0;
  double window_s = 0.0;
  double global_points = 0.0;
  std::vector<std::int64_t> local_shape;
  double working_set_bytes = 0.0;  ///< All field storage, all ranks.
  double peak_rss_bytes = 0.0;     ///< Sum of rank processes' VmHWM.
  double subnormal_share = 0.0;
  double nonfinite = 0.0;
  double halo_msgs = 0.0;  ///< World-wide, over the window.
  double halo_bytes = 0.0;
  double halo_copies_per_msg = 0.0;
  double halo_pool_miss_share = 0.0;
  double imbalance = 1.0;
  JsonObject layers;  ///< Per-layer metrics (traced runs).
  JsonObject detail;  ///< Supporting figures behind them.
  std::vector<std::string> not_applicable;
};

void run_rank(const Spec& spec, const Medium& medium, const Options& opt,
              const smpi::Communicator* comm, double t_launch, int nproc,
              pid_t parent_pid, const Roof& roof, Recorder* root_rec,
              Result& res) {
  use_rank_threads(spec);
  const bool root = comm == nullptr || comm->rank() == 0;
  Recorder* rec = root ? root_rec : nullptr;

  std::unique_ptr<Instance> in;
  double setup_s = 0.0;
  {
    const Scope s(rec, "setup");
    in = build(spec, medium, spec.n, comm, Backend::Jit, rec);
    barrier(comm);
    setup_s = now_s() - t_launch;
  }

  // Set-up layers across ranks: the slowest compile, the building
  // rank's load time, and how many ranks' builds skipped cc.
  const double cc_max = allreduce(comm, in->times.cc_s, smpi::ReduceOp::Max);
  const double dl = in->times.cc_s > 0.0 ? in->times.build_s - in->times.cc_s
                                         : INFINITY;
  double dlopen_s = allreduce(comm, dl, smpi::ReduceOp::Min);
  if (!std::isfinite(dlopen_s)) {
    dlopen_s = allreduce(comm, in->times.build_s, smpi::ReduceOp::Min);
  }
  const double hits = allreduce(comm, in->times.cache_hit ? 1.0 : 0.0,
                                smpi::ReduceOp::Sum);
  double ws = 0.0;
  for (const int id : in->op->info().field_order) {
    ws += 4.0 * static_cast<double>(grid::lookup_field(id)->raw_storage().size());
  }
  ws = allreduce(comm, ws, smpi::ReduceOp::Sum);
  if (root) {
    res.setup_s = setup_s;
    res.dt_ms = in->dt;
    res.times = in->times;
    res.cc_max_s = cc_max;
    res.dlopen_s = dlopen_s;
    res.cache_hit_share = hits / spec.ranks;
    res.global_points = static_cast<double>(in->grid->points());
    res.local_shape = in->grid->local_shape();
    res.working_set_bytes = ws;
  }
  if (opt.setup_only) {
    return;
  }

  {
    // A shot runs up to the window once and keeps that state; otherwise
    // a few steps touch the fresh memory, and each solve resets.
    const Scope s(rec, "warmup");
    const int steps =
        spec.first_step > 1 ? spec.first_step - 1 : spec.warmup_steps;
    in->op->apply({.time_m = 1, .time_M = steps, .scalars = in->scalars});
    if (spec.first_step > 1) {
      take_snapshot(*in);
    }
    if (root) {
      res.warmup_s = s.seconds();
    }
  }

  // The timed window: whole solves from the same initial state until the
  // time budget is spent, so every run samples the same steps.
  double apply_wall = 0.0;
  double msgs = 0.0;
  double bytes = 0.0;
  runtime::HaloStats last{};
  const double t0 = now_s();
  int solves = 0;
  {
    const Scope window(rec, "window");
    for (;;) {
      reset_state(*in);
      barrier(comm);
      // Traced runs alternate traced and untraced solves; the difference
      // of their step times is the tracing overhead.
      Recorder* srec = (rec != nullptr && solves % 2 == 0) ? rec : nullptr;
      const Scope solve(srec, "solve");
      for (int t = spec.first_step; t <= spec.last_step(); t += spec.batch) {
        const int tm = std::min(t + spec.batch - 1, spec.last_step());
        const double a = now_s();
        core::RunSummary run;
        {
          const Scope s(srec, "apply");
          run = in->op->apply(
              {.time_m = t, .time_M = tm, .scalars = in->scalars});
        }
        const double d = now_s() - a;
        apply_wall += d;
        msgs += static_cast<double>(run.halo.messages);
        bytes += static_cast<double>(run.halo.bytes_sent);
        last = run.halo;
        if (root) {
          res.batch_s.push_back(d);
          res.batch_steps.push_back(tm - t + 1);
          res.batch_traced.push_back(srec != nullptr ? 1.0 : 0.0);
        }
      }
      ++solves;
      double more = now_s() - t0 < opt.seconds ? 1.0 : 0.0;
      if (comm != nullptr) {
        comm->bcast(&more, sizeof(more), 0);
      }
      if (more == 0.0) {
        break;
      }
    }
  }
  const double window_s = now_s() - t0;

  // Census of the wavefield at window end: finiteness and subnormals.
  double counts[3] = {0.0, 0.0, 0.0};  // subnormal, non-finite, total
  for (const float v : in->model->wavefield().raw_storage()) {
    const int c = std::fpclassify(v);
    counts[0] += c == FP_SUBNORMAL ? 1.0 : 0.0;
    counts[1] += (c == FP_NAN || c == FP_INFINITE) ? 1.0 : 0.0;
  }
  counts[2] =
      static_cast<double>(in->model->wavefield().raw_storage().size());
  if (comm != nullptr) {
    comm->allreduce(std::span<double>(counts, 3), smpi::ReduceOp::Sum);
  }
  const double wall_max = allreduce(comm, apply_wall, smpi::ReduceOp::Max);
  const double wall_sum = allreduce(comm, apply_wall, smpi::ReduceOp::Sum);
  msgs = allreduce(comm, msgs, smpi::ReduceOp::Sum);
  bytes = allreduce(comm, bytes, smpi::ReduceOp::Sum);
  if (root) {
    res.solves = solves;
    res.window_s = window_s;
    res.subnormal_share = counts[0] / counts[2];
    res.nonfinite = counts[1];
    res.halo_msgs = msgs;
    res.halo_bytes = bytes;
    res.halo_copies_per_msg = last.copies_per_message;
    const double pool = static_cast<double>(last.pool_hits + last.pool_misses);
    res.halo_pool_miss_share =
        pool > 0.0 ? static_cast<double>(last.pool_misses) / pool : 0.0;
    res.imbalance = wall_sum > 0.0 ? wall_max / (wall_sum / spec.ranks) : 1.0;
  }

  if (opt.trace) {
    const Scope layers(rec, "layers");
    JsonObject& L = res.layers;
    // A decomposed solve: the window's steps again, with the kernel
    // timed on its own. Serial: an operator without the sparse ops on
    // the same fields, then the sparse ops called directly, which
    // reproduces the full operator step for step. Distributed: before
    // each batch the root copies its block into a serial twin and times
    // the twin's kernel on the same data (and the same subnormals).
    std::vector<double> kernel_s;
    std::vector<double> inject_s;
    std::vector<double> interp_s;
    std::unique_ptr<core::Operator> kernel_op;
    Twin twin;
    core::Operator* kop = nullptr;
    if (root) {
      const Scope s(rec, "kernel.build");
      if (comm == nullptr) {
        kernel_op = in->model->make_operator(ir::CompileOptions{});
        kernel_op->set_default_backend(Backend::Jit);
        kop = kernel_op.get();
      } else {
        twin = serial_twin(*in);
        kop = twin.in->op.get();
      }
      kop->apply({.time_m = 1, .time_M = 0, .scalars = in->scalars});
    }
    {
      const Scope s(rec, "decomposed_solve");
      std::unique_ptr<sparse::Interpolation> probe;
      if (spec.shot) {
        // A second record, so the workload's own record is untouched.
        probe = std::make_unique<sparse::Interpolation>(
            in->model->wavefield(), *in->rec, 1);
      }
      reset_state(*in);
      for (int t = spec.first_step; t <= spec.last_step(); t += spec.batch) {
        const int tm = std::min(t + spec.batch - 1, spec.last_step());
        barrier(comm);
        // The twin times every other batch, which keeps the mix of solve
        // phases and halves the probe's cost.
        const bool timed =
            comm == nullptr || ((t - spec.first_step) / spec.batch) % 2 == 0;
        if (root && timed) {
          if (comm != nullptr) {
            twin.copy_state();
          }
          const Scope k(rec, "kernel");
          const double a = now_s();
          kop->apply({.time_m = t, .time_M = tm, .scalars = in->scalars});
          kernel_s.push_back((now_s() - a) / (tm - t + 1));
        }
        barrier(comm);
        if (spec.shot) {
          for (int step = t; step <= tm; ++step) {
            double a = now_s();
            in->inject->apply(step);
            inject_s.push_back(now_s() - a);
            a = now_s();
            probe->apply(step);
            interp_s.push_back(now_s() - a);
          }
        } else if (comm != nullptr) {
          in->op->apply({.time_m = t, .time_M = tm, .scalars = in->scalars});
        }
      }
    }
    const double local_step_s = median(kernel_s);
    const double inject_us = median(inject_s) * 1e6;
    const double interp_us = median(interp_s) * 1e6;
    if (root && !spec.shot) {
      res.not_applicable.push_back("sparse.inject_us");
      res.not_applicable.push_back("sparse.interp_us");
    }

    // OpenMP: the kernel on one thread against all of them, and fork/join
    // cost on a tiny grid (per step, all threads minus one thread).
    if (root && spec.threads == 0 && nproc > 1) {
      const Scope so(rec, "omp.probe");
      const std::int64_t next_t = spec.last_step() + 1;
      omp_set_num_threads(1);
      const double t1 = time_steps(*kop, in->scalars, next_t, 1, 3);
      omp_set_num_threads(nproc);
      const double tn = time_steps(*kop, in->scalars, next_t, 1, 3);
      L.num("omp.speedup", t1 / tn);
      const grid::Grid tiny({12, 12, 12}, {110.0, 110.0, 110.0});
      models::AcousticModel tm(tiny, kSpaceOrder);
      auto top = tm.make_operator(ir::CompileOptions{});
      top->set_default_backend(Backend::Jit);
      const auto sc = tm.scalars(tm.critical_dt());
      top->apply({.time_m = 1, .time_M = 0, .scalars = sc});
      omp_set_num_threads(1);
      const double f1 = time_steps(*top, sc, 1, 1, 400);
      omp_set_num_threads(nproc);
      const double fn = time_steps(*top, sc, 1, 1, 400);
      L.num("omp.forkjoin_us", (fn - f1) * 1e6);
    } else if (root) {
      L.num("omp.speedup", 0.0).num("omp.forkjoin_us", 0.0);
      res.not_applicable.push_back("omp.speedup");
      res.not_applicable.push_back("omp.forkjoin_us");
    }

    double halo_us = 0.0;
    double ping_us = 0.0;
    double reduce_us = 0.0;
    if (comm != nullptr) {
      {
        const Scope s(rec, "halo.probe");
        halo_us = halo_update_us(*in, *comm, 50);
      }
      const Scope s(rec, "smpi.probe");
      const double msg_bytes = msgs > 0.0 ? bytes / msgs : 8.0;
      ping_us = pingpong_us(*comm, static_cast<std::size_t>(msg_bytes), 200);
      reduce_us = allreduce_us(*comm, 200);
    } else if (root) {
      for (const char* k : {"halo.update_us", "halo.msgs_per_step",
                            "halo.kb_per_step", "halo.copies_per_msg",
                            "halo.pool_miss_share", "halo.share",
                            "smpi.pingpong_us", "smpi.allreduce_us"}) {
        res.not_applicable.push_back(k);
      }
    }

    if (root) {
      std::vector<double> steps_all;
      std::vector<double> steps_traced;
      std::vector<double> steps_plain;
      for (std::size_t i = 0; i < res.batch_s.size(); ++i) {
        const double per = res.batch_s[i] / res.batch_steps[i];
        steps_all.push_back(per);
        (res.batch_traced[i] != 0.0 ? steps_traced : steps_plain).push_back(per);
      }
      const double core_us = median(steps_all) * 1e6;
      const double local_us = local_step_s * 1e6;
      double total_steps = 0.0;
      for (const double v : res.batch_steps) {
        total_steps += v;
      }
      const models::KernelFacts facts =
          models::analyze(*in->op, in->model->name(), kSpaceOrder,
                          static_cast<int>(in->op->info().field_order.size()));
      const double bytes_pt = computed_bytes_per_point(*in->op);
      double local_pts = 1.0;
      for (const std::int64_t s : res.local_shape) {
        local_pts *= static_cast<double>(s);
      }
      L.num("ir.lower_s", res.times.lower_s)
          .num("ir.flops_per_pt", facts.flops_per_point)
          .num("codegen.emit_s", res.times.emit_s)
          .num("codegen.c_bytes", static_cast<double>(res.times.c_bytes))
          .num("jit.cc_s", res.cc_max_s)
          .num("jit.dlopen_s", res.dlopen_s)
          .num("jit.cache_hit_share", res.cache_hit_share)
          .num("grid.alloc_init_s", res.times.grid_s)
          .num("core.step_us", core_us)
          .num("kernel.local_step_us", local_us)
          .num("kernel.subnormal_share", res.subnormal_share)
          .num("sparse.inject_us", inject_us)
          .num("sparse.interp_us", interp_us)
          .num("halo.update_us", halo_us)
          .num("halo.msgs_per_step", res.halo_msgs / total_steps)
          .num("halo.kb_per_step", res.halo_bytes / total_steps / 1024.0)
          .num("halo.copies_per_msg", res.halo_copies_per_msg)
          .num("halo.pool_miss_share", res.halo_pool_miss_share)
          .num("halo.share", core_us > 0.0 ? halo_us / core_us : 0.0)
          .num("smpi.pingpong_us", ping_us)
          .num("smpi.allreduce_us", reduce_us)
          .num("rank.imbalance", res.imbalance)
          .num("unattributed_us",
               core_us - local_us - halo_us - inject_us - interp_us);
      const double traced = median(steps_traced);
      const double plain = median(steps_plain);
      L.num("trace.overhead_pct",
            plain > 0.0 && traced > 0.0 ? 100.0 * (traced - plain) / plain
                                        : 0.0);
      // The rank-local kernel's rate, scaled to every rank running at
      // once (ranks x threads = the cores the roofs were measured on).
      const double flops_s =
          facts.flops_per_point * local_pts * spec.ranks / local_step_s;
      const double bytes_s = bytes_pt * local_pts * spec.ranks / local_step_s;
      L.num("kernel.frac_bw_roof", bytes_s / (roof.triad_gbs * 1e9))
          .num("kernel.frac_flop_roof", flops_s / (roof.fma_gflops * 1e9))
          .num("roof.triad_gbs", roof.triad_gbs)
          .num("roof.fma_gflops", roof.fma_gflops);
      res.detail.num("kernel.computed_bytes_per_pt", bytes_pt)
          .num("kernel.reads_per_pt", facts.reads_per_point)
          .boolean("kernel.twin_complete", twin.complete)
          .num("roof.triad_array_bytes",
               static_cast<double>(roof.triad_array_bytes));
    }
  }

  // Peak memory: each rank process's VmHWM once. Thread ranks share the
  // root's process and add nothing; forked ranks add their own.
  const double hwm = (root || ::getpid() != parent_pid) ? vm_hwm_bytes() : 0.0;
  const double rss = allreduce(comm, hwm, smpi::ReduceOp::Sum);
  if (root) {
    res.peak_rss_bytes = rss;
  }
}

/// Size of the highest-level CPU cache of cpu0, from sysfs.
std::size_t llc_bytes() {
  std::size_t best = 0;
  int best_level = 0;
  for (int i = 0; i < 16; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    std::ifstream level_in(dir + "level");
    std::ifstream size_in(dir + "size");
    int level = 0;
    std::string size;
    if (!(level_in >> level) || !(size_in >> size)) {
      continue;
    }
    std::size_t bytes = std::strtoull(size.c_str(), nullptr, 10);
    if (size.back() == 'K') {
      bytes <<= 10;
    } else if (size.back() == 'M') {
      bytes <<= 20;
    }
    if (level >= best_level) {
      best_level = level;
      best = bytes;
    }
  }
  return best;
}

}  // namespace

int run_workload(const Options& opt) {
  const Spec& spec = find_spec(opt.workload);
  const Medium medium = make_medium(spec, opt.seed);
  const int nproc = available_cores();
  const int threads = threads_per_rank(spec);
  if (spec.ranks * threads > nproc) {
    std::fprintf(stderr,
                 "perfbench: %s needs %d ranks x %d threads, but only %d "
                 "cores are available\n",
                 spec.name, spec.ranks, threads, nproc);
    return 3;
  }
  use_rank_threads(spec);

  Recorder recorder;
  Recorder* rec = opt.trace ? &recorder : nullptr;
  const std::size_t llc = llc_bytes();
  Roof roof;
  if (opt.trace && !opt.setup_only) {
    const Scope s(rec, "roof.probe");
    roof = measure_roof(llc, nproc);
  }

  Result res;
  const pid_t parent = ::getpid();
  const double t_launch = now_s();
  if (spec.ranks > 1) {
    smpi::launch({.nranks = spec.ranks, .transport = spec.transport},
                 [&](smpi::Communicator& comm) {
                   run_rank(spec, medium, opt, &comm, t_launch, nproc, parent,
                            roof, rec, res);
                 });
  } else {
    run_rank(spec, medium, opt, nullptr, t_launch, nproc, parent, roof, rec,
             res);
  }

  std::vector<Check> checks;
  double ref_error = 0.0;
  const double verify_start = now_s();
  if (!opt.setup_only) {
    checks.push_back({"window.finite", res.nonfinite == 0.0,
                      std::to_string(static_cast<long long>(res.nonfinite)) +
                          " non-finite wavefield values at window end"});
    const Scope s(rec, "verify");
    for (Check& c : verify(spec, medium, &ref_error)) {
      checks.push_back(std::move(c));
    }
  }

  const double verify_s = now_s() - verify_start;

  std::ostringstream checks_json;
  checks_json << '[';
  for (std::size_t i = 0; i < checks.size(); ++i) {
    JsonObject c;
    c.str("name", checks[i].name).boolean("ok", checks[i].ok).str(
        "detail", checks[i].detail);
    checks_json << (i ? "," : "") << c.text();
  }
  checks_json << ']';
  std::ostringstream na;
  na << '[';
  for (std::size_t i = 0; i < res.not_applicable.size(); ++i) {
    na << (i ? "," : "") << '"' << res.not_applicable[i] << '"';
  }
  na << ']';
  std::vector<double> local;
  for (const std::int64_t s : res.local_shape) {
    local.push_back(static_cast<double>(s));
  }
  const unsigned csr = _mm_getcsr();
  JsonObject setup;
  setup.num("grid_s", res.times.grid_s)
      .num("sparse_s", res.times.sparse_s)
      .num("lower_s", res.times.lower_s)
      .num("emit_s", res.times.emit_s)
      .num("build_s", res.times.build_s)
      .num("cc_s", res.times.cc_s)
      .num("first_apply_s", res.times.first_s);

  JsonObject report;
  report.str("workload", spec.name)
      .num("seed", static_cast<double>(opt.seed))
      .boolean("setup_only", opt.setup_only)
      .num("ranks", spec.ranks)
      .num("threads_per_rank", threads)
      .num("cores_available", nproc)
      .str("transport", spec.ranks > 1 ? smpi::to_string(spec.transport)
                                       : "none (1 rank)")
      .str("pattern", ir::to_string(spec.mode))
      .str("model", spec.model == Model::Tti ? "tti" : "acoustic")
      .num("space_order", kSpaceOrder)
      .raw("global_shape", json_array({static_cast<double>(spec.n),
                                       static_cast<double>(spec.n),
                                       static_cast<double>(spec.n)}))
      .raw("local_shape", json_array(local))
      .num("global_points", res.global_points)
      .num("working_set_bytes", res.working_set_bytes)
      .num("llc_bytes", static_cast<double>(llc))
      .boolean("ftz_or_daz_set", (csr & 0x8040u) != 0)
      .num("setup_s", res.setup_s)
      .raw("setup_layers", setup.text())
      .num("warmup_s", res.warmup_s)
      .num("first_step", spec.first_step)
      .num("solve_steps", spec.solve_steps)
      .num("dt_ms", res.dt_ms)
      // Step t advances the wavefield from t*dt to (t+1)*dt.
      .raw("window_sim_ms",
           json_array({spec.first_step * res.dt_ms,
                       (spec.last_step() + 1) * res.dt_ms}))
      .num("source_peak_ms", spec.shot ? 1.0 / kPeakHz : 0.0)
      .num("solves", res.solves)
      .num("window_s", res.window_s)
      .raw("batch_s", json_array(res.batch_s))
      .raw("batch_steps", json_array(res.batch_steps))
      .num("peak_rss_bytes", res.peak_rss_bytes)
      .num("subnormal_share", res.subnormal_share)
      .num("verify_error", ref_error)
      .num("verify_s", verify_s)
      .raw("checks", checks_json.str())
      .raw("layers", res.layers.text())
      .raw("layer_detail", res.detail.text())
      .raw("not_applicable", na.str());
  std::ofstream out(opt.report_path);
  out << report.text() << '\n';
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 opt.report_path.c_str());
    return 1;
  }
  if (opt.trace && !opt.trace_path.empty()) {
    std::ofstream tr(opt.trace_path);
    tr << recorder.chrome_json();
  }
  return 0;
}

}  // namespace perfbench
