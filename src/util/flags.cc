#include "src/util/flags.h"

#include <cerrno>
#include <cstdlib>
#include <sstream>

namespace agmdp::util {

Flags Flags::Parse(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      flags.positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags.values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else {
      flags.values_[arg] = "true";  // bare boolean flag
    }
  }
  return flags;
}

std::vector<std::string> Flags::names() const {
  std::vector<std::string> out;
  for (const auto& [name, value] : values_) out.push_back(name);
  return out;
}

bool Flags::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string Flags::GetString(const std::string& name,
                             const std::string& fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

int64_t Flags::GetInt(const std::string& name, int64_t fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : std::strtoll(it->second.c_str(),
                                                       nullptr, 10);
}

double Flags::GetDouble(const std::string& name, double fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback
                             : std::strtod(it->second.c_str(), nullptr);
}

Result<int64_t> Flags::GetCheckedInt(const std::string& name,
                                     int64_t fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || end == nullptr || *end != '\0' || errno == ERANGE) {
    return Status::InvalidArgument("--" + name + "=" + text +
                                   " is not an integer");
  }
  return static_cast<int64_t>(value);
}

Result<double> Flags::GetCheckedDouble(const std::string& name,
                                       double fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end == nullptr || *end != '\0' || errno == ERANGE) {
    return Status::InvalidArgument("--" + name + "=" + text +
                                   " is not a number");
  }
  return value;
}

bool Flags::GetBool(const std::string& name, bool fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<double> Flags::GetDoubleList(
    const std::string& name, const std::vector<double>& fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  std::vector<double> out;
  std::stringstream ss(it->second);
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (!token.empty()) out.push_back(std::strtod(token.c_str(), nullptr));
  }
  return out.empty() ? fallback : out;
}

std::vector<std::string> Flags::GetStringList(
    const std::string& name, const std::vector<std::string>& fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  std::vector<std::string> out;
  std::stringstream ss(it->second);
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (!token.empty()) out.push_back(token);
  }
  return out.empty() ? fallback : out;
}

}  // namespace agmdp::util
