#include "src/common/units.h"

#include <cmath>
#include <cstdio>

namespace aceso {
namespace {

std::string FormatWithSuffix(double value, const char* suffix) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f %s", value, suffix);
  return buf;
}

}  // namespace

std::string FormatBytes(int64_t bytes) {
  const double b = static_cast<double>(bytes);
  if (bytes >= kGiB) return FormatWithSuffix(b / static_cast<double>(kGiB), "GB");
  if (bytes >= kMiB) return FormatWithSuffix(b / static_cast<double>(kMiB), "MB");
  if (bytes >= kKiB) return FormatWithSuffix(b / static_cast<double>(kKiB), "KB");
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld B", static_cast<long long>(bytes));
  return buf;
}

std::string FormatFlops(double flops) {
  if (flops >= kTera) return FormatWithSuffix(flops / kTera, "TFLOP");
  if (flops >= kGiga) return FormatWithSuffix(flops / kGiga, "GFLOP");
  if (flops >= kMega) return FormatWithSuffix(flops / kMega, "MFLOP");
  return FormatWithSuffix(flops, "FLOP");
}

std::string FormatSeconds(double seconds) {
  if (seconds >= 1.0) return FormatWithSuffix(seconds, "s");
  if (seconds >= 1e-3) return FormatWithSuffix(seconds * 1e3, "ms");
  return FormatWithSuffix(seconds * 1e6, "us");
}

std::string FormatDouble(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

}  // namespace aceso
