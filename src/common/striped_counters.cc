#include "src/common/striped_counters.h"

#include <bit>

namespace aceso {
namespace striped_counters_internal {
namespace {

static_assert(kCounterStripes <= 32, "stripe ownership is a 32-bit mask");

// Bit i set: stripe i is owned by a live thread.
std::atomic<uint32_t> g_owned_stripes{0};

// Frees the calling thread's stripe when the thread exits. The release
// pairs with the next owner's acquiring claim, so that owner's plain
// load-and-store bumps continue from this thread's last value.
// Bumps made later in the thread's exit (by other thread-local
// destructors) fall back to the shared stripe.
struct StripeRelease {
  ~StripeRelease() {
    if (tls_stripe < kCounterStripes) {
      g_owned_stripes.fetch_and(~(uint32_t{1} << tls_stripe),
                                std::memory_order_release);
    }
    tls_stripe = kCounterStripes;
  }
};

}  // namespace

size_t ClaimStripe() {
  thread_local StripeRelease release_at_exit;
  (void)release_at_exit;
  uint32_t owned = g_owned_stripes.load(std::memory_order_relaxed);
  size_t stripe = kCounterStripes;  // every stripe owned: share the overflow
  while (true) {
    const int free = std::countr_one(owned);
    if (free >= static_cast<int>(kCounterStripes)) {
      break;
    }
    if (g_owned_stripes.compare_exchange_weak(
            owned, owned | (uint32_t{1} << free), std::memory_order_acquire,
            std::memory_order_relaxed)) {
      stripe = static_cast<size_t>(free);
      break;
    }
  }
  tls_stripe = stripe;
  return stripe;
}

}  // namespace striped_counters_internal
}  // namespace aceso
