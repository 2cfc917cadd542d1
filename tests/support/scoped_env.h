// Sets (or unsets) one environment variable for the lifetime of the
// object and restores the previous value on destruction, so a test can
// pin KFI_EXEC without leaking into the rest of the suite (CI runs the
// whole suite under several KFI_EXEC values).
#pragma once

#include <cstdlib>
#include <optional>
#include <string>

namespace kfi::testing_support {

class ScopedEnv {
 public:
  // `value` nullptr unsets the variable.
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    set(value);
  }
  ~ScopedEnv() { set(saved_.has_value() ? saved_->c_str() : nullptr); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  void set(const char* value) {
    if (value == nullptr) {
      ::unsetenv(name_.c_str());
    } else {
      ::setenv(name_.c_str(), value, 1);
    }
  }

  std::string name_;
  std::optional<std::string> saved_;
};

}  // namespace kfi::testing_support
