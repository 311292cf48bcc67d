// Minimal command-line flag parsing for the CLI tools: --name value and
// --name=value long options, positional arguments, typed accessors with
// defaults, and unknown-flag detection.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mris::util {

class Flags {
 public:
  /// Parses argv[1..).  Tokens starting with "--" become flags; a flag
  /// consumes the next token as its value unless it contains '=' or the
  /// next token is another flag (then it is boolean "true").  Everything
  /// else is positional.  Throws std::invalid_argument on empty flag names.
  Flags(int argc, const char* const* argv);

  bool has(const std::string& name) const;

  /// Typed accessors; return `fallback` when the flag is absent and throw
  /// std::invalid_argument when present but unparsable.
  std::string get(const std::string& name, const std::string& fallback) const;
  double get_double(const std::string& name, double fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  /// get_int for counts and sizes: also throws when the value is negative.
  std::size_t get_count(const std::string& name, std::size_t fallback) const;
  bool get_bool(const std::string& name, bool fallback = false) const;

  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Names of flags never read through any accessor — call after parsing
  /// to reject typos.  (Accessors mark flags as consumed.)
  std::vector<std::string> unconsumed() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> consumed_;
  std::vector<std::string> positional_;
};

}  // namespace mris::util
