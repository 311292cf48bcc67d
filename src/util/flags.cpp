#include "util/flags.hpp"

#include <cerrno>
#include <cstdlib>
#include <stdexcept>

#include "util/contracts.hpp"

namespace mris::util {

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      positional_.push_back(token);
      continue;
    }
    std::string name = token.substr(2);
    std::string value;
    const auto eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
    } else if (i + 1 < argc &&
               std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
    } else {
      value = "true";
    }
    if (name.empty()) {
      throw std::invalid_argument("Flags: empty flag name in '" + token +
                                  "'");
    }
    values_[name] = value;
    consumed_[name] = false;
  }
}

bool Flags::has(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return false;
  consumed_[name] = true;
  return true;
}

std::string Flags::get(const std::string& name,
                       const std::string& fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  consumed_[name] = true;
  return it->second;
}

double Flags::get_double(const std::string& name, double fallback) const {
  MRIS_EXPECT(!name.empty(), "Flags::get_double: empty flag name");
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  consumed_[name] = true;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    throw std::invalid_argument("--" + name + ": expected a number, got '" +
                                it->second + "'");
  }
  if (errno == ERANGE) {
    throw std::invalid_argument("--" + name + ": '" + it->second +
                                "' is out of double range");
  }
  return v;
}

std::int64_t Flags::get_int(const std::string& name,
                            std::int64_t fallback) const {
  MRIS_EXPECT(!name.empty(), "Flags::get_int: empty flag name");
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  consumed_[name] = true;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') {
    throw std::invalid_argument("--" + name + ": expected an integer, got '" +
                                it->second + "'");
  }
  if (errno == ERANGE) {
    throw std::invalid_argument("--" + name + ": '" + it->second +
                                "' overflows a 64-bit integer");
  }
  return v;
}

std::size_t Flags::get_count(const std::string& name,
                             std::size_t fallback) const {
  const std::int64_t v = get_int(name, static_cast<std::int64_t>(fallback));
  if (v < 0) {
    throw std::invalid_argument("--" + name +
                                ": expected a non-negative count, got " +
                                std::to_string(v));
  }
  return static_cast<std::size_t>(v);
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  consumed_[name] = true;
  if (it->second == "true" || it->second == "1" || it->second == "yes") {
    return true;
  }
  if (it->second == "false" || it->second == "0" || it->second == "no") {
    return false;
  }
  throw std::invalid_argument("--" + name + ": expected a boolean, got '" +
                              it->second + "'");
}

std::vector<std::string> Flags::unconsumed() const {
  std::vector<std::string> names;
  for (const auto& [name, used] : consumed_) {
    if (!used) names.push_back(name);
  }
  return names;
}

}  // namespace mris::util
