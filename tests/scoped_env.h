// Scoped environment override for tests: sets a variable for the
// lifetime of the object and restores the previous value (or unsets it
// if it was unset) on scope exit, so a variable set by the caller (a CI
// step's JITFD_TRANSPORT, say) survives for the tests that follow.
// Process-wide: construct it outside smpi::launch, never per rank.
#pragma once

#include <cstdlib>
#include <string>

namespace jitfd::test {

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    old_ = had_ ? old : "";
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  bool had_;
  std::string old_;
};

}  // namespace jitfd::test
