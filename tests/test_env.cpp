// Tests for the JITFD_* environment registry: README's documented table
// must name exactly the registered variables, so a knob cannot be added
// or removed without its documentation following; no source file reads a
// JITFD_* variable behind the registry's back, and every registered
// variable has a reader. Also covers the tests' own ScopedEnv helper.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <regex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/env.h"
#include "scoped_env.h"

namespace {

namespace fs = std::filesystem;

// (repo-relative path, contents) of every C/C++ source under `dirs`.
std::vector<std::pair<std::string, std::string>> sources(
    const std::vector<std::string>& dirs) {
  std::vector<std::pair<std::string, std::string>> out;
  const fs::path root(JITFD_SOURCE_DIR);
  for (const std::string& dir : dirs) {
    for (const fs::directory_entry& e :
         fs::recursive_directory_iterator(root / dir)) {
      const std::string ext = e.path().extension().string();
      if (!e.is_regular_file() ||
          (ext != ".cpp" && ext != ".h" && ext != ".c")) {
        continue;
      }
      std::ifstream in(e.path());
      out.emplace_back(fs::relative(e.path(), root).generic_string(),
                       std::string(std::istreambuf_iterator<char>(in), {}));
    }
  }
  return out;
}

TEST(Env, ReadmeTableMatchesRegistry) {
  std::ifstream in(std::string(JITFD_SOURCE_DIR) + "/README.md");
  ASSERT_TRUE(in) << "cannot open README.md";
  // The table opens with its header row and runs to the first non-table
  // line; every JITFD_* name in a row's first cell is documented.
  const std::regex name_re("JITFD_[A-Z0-9_]+");
  std::set<std::string> documented;
  bool in_table = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("| Variable | Type (default) | Meaning |", 0) == 0) {
      in_table = true;
      continue;
    }
    if (!in_table) {
      continue;
    }
    if (line.empty() || line[0] != '|') {
      break;
    }
    const std::string first = line.substr(1, line.find('|', 1) - 1);
    for (std::sregex_iterator it(first.begin(), first.end(), name_re), end;
         it != end; ++it) {
      documented.insert(it->str());
    }
  }
  ASSERT_TRUE(in_table) << "README.md has no environment-variable table";
  std::set<std::string> registered;
  for (const jitfd::env::Var& v : jitfd::env::vars()) {
    registered.insert(v.name);
  }
  EXPECT_EQ(documented, registered);
}

TEST(Env, NoRawGetenvOutsideRegistry) {
  // Built at run time so this file does not match its own search.
  const std::string needle = std::string("getenv(\"") + "JITFD_";
  const auto files = sources({"src", "examples", "bench", "tools", "tests"});
  ASSERT_FALSE(files.empty());
  for (const auto& [path, text] : files) {
    if (path == "src/core/env.cpp") {
      continue;
    }
    EXPECT_EQ(text.find(needle), std::string::npos)
        << path << " reads a JITFD_* variable without src/core/env.h";
  }
}

TEST(Env, EveryRegisteredVariableIsRead) {
  // A registered knob that no program reads documents behaviour that
  // does not exist.
  const auto files = sources({"src", "examples", "bench", "tools"});
  for (const jitfd::env::Var& v : jitfd::env::vars()) {
    const std::string quoted = std::string("\"") + v.name + "\"";
    bool read = false;
    for (const auto& [path, text] : files) {
      if (path != "src/core/env.cpp" &&
          text.find(quoted) != std::string::npos) {
        read = true;
        break;
      }
    }
    EXPECT_TRUE(read) << v.name << " is registered but never read";
  }
}

TEST(Env, ScopedEnvRestoresPreviousValue) {
  const char* name = "JITFD_TEST_SCOPED_ENV_PROBE";
  ::unsetenv(name);
  {
    const jitfd::test::ScopedEnv outer(name, "a");
    ASSERT_NE(std::getenv(name), nullptr);
    EXPECT_STREQ(std::getenv(name), "a");
    {
      const jitfd::test::ScopedEnv inner(name, "b");
      EXPECT_STREQ(std::getenv(name), "b");
    }
    // The inner scope restores the outer value instead of unsetting it.
    ASSERT_NE(std::getenv(name), nullptr);
    EXPECT_STREQ(std::getenv(name), "a");
    {
      // A set-but-empty value is restored as set, not dropped.
      const jitfd::test::ScopedEnv empty(name, "");
      {
        const jitfd::test::ScopedEnv inner(name, "c");
      }
      ASSERT_NE(std::getenv(name), nullptr);
      EXPECT_STREQ(std::getenv(name), "");
    }
  }
  // Unset before the outermost scope: unset after it.
  EXPECT_EQ(std::getenv(name), nullptr);
}

}  // namespace
