// CPU budget queries for picking thread counts.
//
// A container is routinely pinned to fewer CPUs than the machine
// advertises, so std::thread::hardware_concurrency() alone oversubscribes
// it. VisibleCpus() is the parallelism actually available: the smaller of
// the hardware count and the calling thread's sched_getaffinity mask.

#ifndef DYNAGG_COMMON_CPUS_H_
#define DYNAGG_COMMON_CPUS_H_

namespace dynagg {

/// std::thread::hardware_concurrency(), never 0.
int HardwareConcurrency();

/// CPUs the scheduler will actually run the calling thread on (the
/// sched_getaffinity mask on Linux; HardwareConcurrency elsewhere).
int AffinityCpus();

/// min(HardwareConcurrency(), AffinityCpus()). Always >= 1.
int VisibleCpus();

}  // namespace dynagg

#endif  // DYNAGG_COMMON_CPUS_H_
