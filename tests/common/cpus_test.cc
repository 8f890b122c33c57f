// CPU budget queries: VisibleCpus() must honour the affinity mask, so a
// process pinned to one CPU picks one executor thread by default.

#include "common/cpus.h"

#include <gtest/gtest.h>

#ifdef __linux__
#include <sched.h>
#endif

namespace dynagg {
namespace {

TEST(CpusTest, VisibleCpusIsBoundedByBothSources) {
  EXPECT_GE(VisibleCpus(), 1);
  EXPECT_LE(VisibleCpus(), HardwareConcurrency());
  EXPECT_LE(VisibleCpus(), AffinityCpus());
}

#ifdef __linux__
TEST(CpusTest, VisibleCpusFollowsTheAffinityMask) {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int first = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &saved)) {
      first = cpu;
      break;
    }
  }
  ASSERT_GE(first, 0);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const int pinned_affinity = AffinityCpus();
  const int pinned_visible = VisibleCpus();
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(pinned_affinity, 1);
  EXPECT_EQ(pinned_visible, 1);
}
#endif  // __linux__

}  // namespace
}  // namespace dynagg
