#include "common/cpus.h"

#include <thread>

#ifdef __linux__
#include <sched.h>
#endif

namespace dynagg {

int HardwareConcurrency() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int AffinityCpus() {
#ifdef __linux__
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    const int n = CPU_COUNT(&mask);
    if (n > 0) return n;
  }
#endif
  return HardwareConcurrency();
}

int VisibleCpus() {
  const int hw = HardwareConcurrency();
  const int affinity = AffinityCpus();
  return hw < affinity ? hw : affinity;
}

}  // namespace dynagg
