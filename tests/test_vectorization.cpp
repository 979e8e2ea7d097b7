// Vectorization gate: every `#pragma omp simd` loop the compiler emits
// must be vectorized by the C compiler the JIT runs, with the JIT's own
// flags. A call gcc cannot vectorize (sqrtf under -fmath-errno, say)
// turns a whole update nest scalar without changing any result, so only a
// compile report can catch it. Covers each model at so8 in 3-D, serially
// and on 4 thread ranks for every halo pattern at exchange depths 1 and 2.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "codegen/jit.h"
#include "core/env.h"
#include "models/acoustic.h"
#include "models/elastic.h"
#include "models/tti.h"
#include "models/viscoelastic.h"
#include "smpi/runtime.h"

namespace {

namespace fs = std::filesystem;
namespace ir = jitfd::ir;
namespace models = jitfd::models;
using jitfd::grid::Grid;

constexpr const char* kSimd = "#pragma omp simd";

std::string run_command(const std::string& cmd) {
  std::string out;
  FILE* pipe = ::popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) {
    return out;
  }
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    out.append(buf, n);
  }
  ::pclose(pipe);
  return out;
}

std::string compiler() { return jitfd::env::get_string("JITFD_CC", "cc"); }

bool compiler_is_gcc() {
  const std::string version = run_command(compiler() + " --version");
  return version.find("Free Software Foundation") != std::string::npos &&
         version.find("clang") == std::string::npos;
}

std::unique_ptr<models::WaveModel> make_model(const std::string& name,
                                              const Grid& g) {
  constexpr int kSo = 8;
  if (name == "acoustic") {
    return std::make_unique<models::AcousticModel>(g, kSo);
  }
  if (name == "tti") {
    return std::make_unique<models::TtiModel>(g, kSo);
  }
  if (name == "elastic") {
    return std::make_unique<models::ElasticModel>(g, kSo);
  }
  return std::make_unique<models::ViscoelasticModel>(g, kSo);
}

/// Every distinct kernel source of `model`, keyed by source, with the
/// first configuration that emitted it.
std::map<std::string, std::string> kernel_sources(const std::string& model) {
  constexpr std::int64_t n = 48;
  std::map<std::string, std::string> sources;
  {
    const Grid g({n, n, n}, {1.0, 1.0, 1.0});
    sources.emplace(make_model(model, g)->make_operator({})->ccode(),
                    "serial");
  }
  std::mutex mtx;
  for (const ir::MpiMode mode :
       {ir::MpiMode::Basic, ir::MpiMode::Diagonal, ir::MpiMode::Full}) {
    for (const int depth : {1, 2}) {
      smpi::launch({.nranks = 4}, [&](smpi::Communicator& comm) {
        const Grid g({n, n, n}, {1.0, 1.0, 1.0}, comm);
        ir::CompileOptions opts;
        opts.mode = mode;
        opts.exchange_depth = depth;
        std::string code = make_model(model, g)->make_operator(opts)->ccode();
        const std::lock_guard<std::mutex> lock(mtx);
        sources.emplace(std::move(code),
                        std::string(ir::to_string(mode)) + " depth " +
                            std::to_string(depth) + " rank " +
                            std::to_string(comm.rank()));
      });
    }
  }
  return sources;
}

/// 1-based lines at which gcc reports "optimized: loop vectorized".
std::set<int> vectorized_lines(const std::string& report) {
  std::set<int> lines;
  std::istringstream in(report);
  std::string row;
  while (std::getline(in, row)) {
    const std::size_t tag = row.find(": optimized: loop vectorized");
    if (tag == std::string::npos) {
      continue;
    }
    // "<file>:<line>:<column>: optimized: ..."
    const std::size_t col = row.rfind(':', tag - 1);
    const std::size_t line = row.rfind(':', col - 1);
    lines.insert(std::stoi(row.substr(line + 1, col - line - 1)));
  }
  return lines;
}

/// Lines of `source` (1-based) holding a `#pragma omp simd` whose loop
/// has no vectorization report. gcc reports a vectorized loop at the
/// first statement of its body, so a loop's range runs from its pragma to
/// the brace that closes its body.
std::vector<int> scalar_simd_loops(const std::string& source,
                                   const std::set<int>& vectorized) {
  std::vector<std::string> lines;
  std::istringstream in(source);
  for (std::string l; std::getline(in, l);) {
    lines.push_back(l);
  }
  std::vector<int> scalar;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].find(kSimd) == std::string::npos) {
      continue;
    }
    std::size_t end = i + 1;
    int depth = 0;
    bool opened = false;
    for (; end < lines.size(); ++end) {
      for (const char c : lines[end]) {
        depth += c == '{' ? 1 : c == '}' ? -1 : 0;
        opened = opened || c == '{';
      }
      if (opened && depth == 0) {
        break;
      }
    }
    const auto hit = vectorized.lower_bound(static_cast<int>(i) + 1);
    if (hit == vectorized.end() || *hit > static_cast<int>(end) + 1) {
      scalar.push_back(static_cast<int>(i) + 1);
    }
  }
  return scalar;
}

class Vectorization : public ::testing::TestWithParam<const char*> {};

TEST_P(Vectorization, EveryOmpSimdLoopVectorizes) {
  if (!compiler_is_gcc()) {
    GTEST_SKIP() << compiler() << " is absent or is not GCC";
  }
  const std::string model = GetParam();
  const auto sources = kernel_sources(model);

  const fs::path dir =
      fs::temp_directory_path() /
      ("jitfd-vec-" + model + "-" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string flags =
      jitfd::codegen::compile_flags(true) + " -fopt-info-vec-optimized";

  struct Job {
    const std::string* source;
    const std::string* config;
    fs::path path;
    std::string report;
  };
  std::vector<Job> jobs;
  for (const auto& [source, config] : sources) {
    jobs.push_back({&source, &config,
                    dir / (std::to_string(jobs.size()) + ".c"), ""});
    std::ofstream(jobs.back().path) << source;
  }
  // The compiles are independent: run up to four at once.
#pragma omp parallel for num_threads(4) schedule(dynamic)
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    jobs[j].report = run_command(compiler() + " " + flags +
                                 " -c -o /dev/null " + jobs[j].path.string());
  }

  int loops = 0;
  for (const Job& job : jobs) {
    const auto vectorized = vectorized_lines(job.report);
    const auto scalar = scalar_simd_loops(*job.source, vectorized);
    for (std::size_t at = job.source->find(kSimd); at != std::string::npos;
         at = job.source->find(kSimd, at + 1)) {
      ++loops;
    }
    for (const int line : scalar) {
      ADD_FAILURE() << model << " (" << *job.config
                    << "): the omp simd loop at line " << line
                    << " is not vectorized. Rerun with -fopt-info-vec-missed: "
                    << compiler() << " " << jitfd::codegen::compile_flags(true)
                    << " -fopt-info-vec-missed -c -o /dev/null "
                    << job.path.string();
    }
  }
  EXPECT_GT(loops, 0);
  if (!HasFailure()) {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
}

INSTANTIATE_TEST_SUITE_P(Models, Vectorization,
                         ::testing::Values("acoustic", "tti", "elastic",
                                           "viscoelastic"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(VectorizationReport, MatchesLoopsByBodyRange) {
  // gcc reports at the loop body's first statement; a report past the
  // closing brace belongs to a later loop.
  const std::string src =
      "#pragma omp simd\n"        // 1
      "for (long z = 0; z < 8; z += 1)\n"
      "{\n"
      "  a[z] = b[z];\n"          // 4
      "}\n"                       // 5
      "#pragma omp simd\n"        // 6
      "for (long z = 0; z < 8; z += 1)\n"
      "{\n"
      "  c[z] = sqrtf(d[z]);\n"   // 9
      "}\n"                       // 10
      "for (long z = 0; z < 8; z += 1) e[z] = 0;\n";  // 11
  EXPECT_EQ(vectorized_lines("k.c:4:12: optimized: loop vectorized using 64 "
                             "byte vectors\nk.c:9:3: missed: not vectorized"),
            (std::set<int>{4}));
  EXPECT_EQ(scalar_simd_loops(src, {4, 11}), (std::vector<int>{6}));
  EXPECT_TRUE(scalar_simd_loops(src, {4, 9}).empty());
}

}  // namespace
