// Minimal command-line option parser used by the bench/example binaries.
//
// Accepts `--name=value`, `--name value` and bare `--flag` forms.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace sens {

class Cli {
 public:
  Cli(int argc, char** argv);

  /// True if `--name` was passed (with or without a value).
  [[nodiscard]] bool has(const std::string& name) const;

  /// Value of `--name`, or `fallback` when absent.
  [[nodiscard]] std::string get(const std::string& name, const std::string& fallback) const;
  [[nodiscard]] double get(const std::string& name, double fallback) const;
  [[nodiscard]] long get(const std::string& name, long fallback) const;
  [[nodiscard]] int get(const std::string& name, int fallback) const;
  [[nodiscard]] unsigned long long get(const std::string& name, unsigned long long fallback) const;

 private:
  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

}  // namespace sens
