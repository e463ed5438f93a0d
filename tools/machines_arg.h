#ifndef GDP_TOOLS_MACHINES_ARG_H_
#define GDP_TOOLS_MACHINES_ARG_H_

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <system_error>

namespace gdp::tools {

/// Parses a `<machines>` command-line argument. The whole argument must be
/// a decimal integer in [1, 64] — the engines keep per-vertex machine sets
/// in 64-bit masks. On failure prints the shared error line and returns 0.
inline uint32_t ParseMachinesArg(const char* arg) {
  long value = 0;
  const char* end = arg + std::strlen(arg);
  const auto [ptr, ec] = std::from_chars(arg, end, value);
  if (ec != std::errc() || ptr != end || value < 1 || value > 64) {
    std::fprintf(stderr, "error: machines must be in [1, 64]\n");
    return 0;
  }
  return static_cast<uint32_t>(value);
}

}  // namespace gdp::tools

#endif  // GDP_TOOLS_MACHINES_ARG_H_
