#include "common/flags.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace mv3c::flags {

bool Match(const char* arg, const char* name, std::string* value) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

bool ParseUint(const std::string& text, uint64_t lo, uint64_t hi,
               uint64_t* out) {
  if (text.empty()) return false;
  uint64_t v = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (v > (UINT64_MAX - digit) / 10) return false;  // overflow
    v = v * 10 + digit;
  }
  if (v < lo || v > hi) return false;
  *out = v;
  return true;
}

bool ParseDouble(const std::string& text, double lo, double hi, double* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (errno == ERANGE || end != text.c_str() + text.size()) return false;
  if (!std::isfinite(v) || v < lo || v > hi) return false;
  *out = v;
  return true;
}

uint64_t UintOrExit(const char* flag, const std::string& text, uint64_t lo,
                    uint64_t hi) {
  uint64_t v = 0;
  if (!ParseUint(text, lo, hi, &v)) {
    std::fprintf(stderr,
                 "%s: invalid value '%s' (expected an integer in [%llu, "
                 "%llu])\n",
                 flag, text.c_str(), static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi));
    std::exit(2);
  }
  return v;
}

double DoubleOrExit(const char* flag, const std::string& text, double lo,
                    double hi) {
  double v = 0;
  if (!ParseDouble(text, lo, hi, &v)) {
    std::fprintf(stderr,
                 "%s: invalid value '%s' (expected a number in [%g, %g])\n",
                 flag, text.c_str(), lo, hi);
    std::exit(2);
  }
  return v;
}

}  // namespace mv3c::flags
