// Unit helpers: bytes, FLOPs, seconds. Aceso tracks memory in bytes
// (int64_t), compute in FLOPs (double) and time in seconds (double).

#ifndef SRC_COMMON_UNITS_H_
#define SRC_COMMON_UNITS_H_

#include <bit>
#include <cstdint>
#include <string>

namespace aceso {

inline constexpr int64_t kKiB = 1024;
inline constexpr int64_t kMiB = 1024 * kKiB;
inline constexpr int64_t kGiB = 1024 * kMiB;

inline constexpr double kKilo = 1e3;
inline constexpr double kMega = 1e6;
inline constexpr double kGiga = 1e9;
inline constexpr double kTera = 1e12;

// "31.4 GB", "512.0 MB", "17.2 KB", "12 B".
std::string FormatBytes(int64_t bytes);

// "12.34 TFLOP", "1.20 GFLOP".
std::string FormatFlops(double flops);

// "1.234 s", "56.7 ms", "89.0 us".
std::string FormatSeconds(double seconds);

// Fixed-precision double ("%.*f") without iostream ceremony.
std::string FormatDouble(double value, int precision);

// Rounds an allocation request the way a PyTorch-style caching allocator
// does: 512 B granularity below 1 MiB, 2 MiB granularity above. Shared by
// the allocator simulation (src/runtime) and the memory model (src/cost),
// which deliberately prices this rounding into Eq. 1's activation term.
// Inline: the memory passes call it once per op.
inline int64_t RoundUpAllocSize(int64_t bytes) {
  if (bytes <= 0) {
    return 512;
  }
  if (bytes < kMiB) {
    return (bytes + 511) / 512 * 512;
  }
  return (bytes + 2 * kMiB - 1) / (2 * kMiB) * (2 * kMiB);
}

// `bytes / divisor` for non-negative bytes and a positive divisor: a shift
// when the divisor is a power of two, as every parallel degree of a valid
// config is. A 64-bit division costs tens of cycles, and the per-op memory
// passes of the cost model and the recompute fix-up do a few per op.
inline int64_t DivideBytes(int64_t bytes, int divisor) {
  if (bytes >= 0 && divisor > 0 && (divisor & (divisor - 1)) == 0) {
    return bytes >> std::countr_zero(static_cast<unsigned>(divisor));
  }
  return bytes / divisor;
}

}  // namespace aceso

#endif  // SRC_COMMON_UNITS_H_
