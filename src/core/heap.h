// Returning freed heap memory to the system between a program's phases.
#pragma once

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace acbm::core {

/// Hands the heap's free pages back to the system. glibc keeps what a
/// finished phase freed resident, and the next phase's buffers land on it,
/// reserved-but-unwritten tails included, so without this a process's
/// peak RSS runs well above its live peak (`acbm fit` on the perfbench
/// seed-1 world: about a fifth). Call it between phases, not in loops: it
/// walks the whole heap. A no-op off glibc.
inline void release_free_heap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

}  // namespace acbm::core
