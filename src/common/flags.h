#ifndef MV3C_COMMON_FLAGS_H_
#define MV3C_COMMON_FLAGS_H_

#include <cstdint>
#include <string>

namespace mv3c::flags {

/// Strict `--name=value` command-line parsing shared by the binaries
/// (mv3c_serve, loadgen, metrics_dump). A value either parses completely
/// and lies in range, or the tool refuses to start.

/// True iff `arg` is `<name>=<value>`; stores the value.
bool Match(const char* arg, const char* name, std::string* value);

/// Parses a decimal unsigned integer in [lo, hi]. Rejects an empty value,
/// a sign, whitespace or any other non-digit, overflow, and out-of-range
/// values.
bool ParseUint(const std::string& text, uint64_t lo, uint64_t hi,
               uint64_t* out);

/// Parses a finite decimal number in [lo, hi]. Rejects an empty value,
/// trailing characters, overflow, NaN, infinities and out-of-range values.
bool ParseDouble(const std::string& text, double lo, double hi, double* out);

/// ParseUint / ParseDouble for a command-line flag: on failure prints
/// "<flag>: invalid value '<text>' (expected ...)" and exits with status 2.
uint64_t UintOrExit(const char* flag, const std::string& text, uint64_t lo,
                    uint64_t hi);
double DoubleOrExit(const char* flag, const std::string& text, double lo,
                    double hi);

}  // namespace mv3c::flags

#endif  // MV3C_COMMON_FLAGS_H_
