// Deterministic parallel execution over an index space — the execution
// primitive of explore::SweepRunner and explore::LoweredPlan.
//
// Indices are handed out through an atomic counter (work-stealing from a
// shared queue of one-cell tasks), so the *scheduling* is
// nondeterministic; callers MUST write the result of cell i into slot i
// of a pre-sized container.  With that convention the output is
// byte-identical for any thread count, which is what lets the explore
// engine promise "parallel == sequential" exports.
#ifndef PHOTECC_MATH_PARALLEL_HPP
#define PHOTECC_MATH_PARALLEL_HPP

#include <cstddef>
#include <functional>

namespace photecc::math {

/// Worker count used when a caller passes threads == 0:
/// std::thread::hardware_concurrency(), or 1 when it is unknown.
[[nodiscard]] std::size_t default_thread_count();

/// Evaluates fn(i) for every i in [0, n) exactly once using `threads`
/// workers (0 = default_thread_count(); 1 = inline on the calling
/// thread, no spawning).  Blocks until every index has been evaluated.
///
/// If any invocation throws, every worker joins and the first exception
/// is rethrown on the calling thread; no index runs more than once.
/// Abandonment of the remaining indices is exact only inline (threads
/// == 1: nothing after the throwing index runs).  With several workers
/// it is best effort: a worker stops claiming indices once it sees the
/// failure, but the other workers may finish any number of indices —
/// all of them, for a cheap body — before the throwing worker records
/// it.
void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn);

/// Evaluates fn(begin, end) over a FIXED partition of [0, n) into
/// contiguous blocks of `block_size` indices (the last block may be
/// short).  The partition depends only on (n, block_size) — never on
/// the thread count — and blocks are handed to workers through the same
/// atomic queue as parallel_for, so slot-indexed writers stay
/// byte-identical at any thread count while each worker sees an
/// axis-contiguous index range (what keeps sweep warm-starts valid
/// under work stealing).  block_size == 0 is treated as 1.  Exception
/// semantics match parallel_for.
void parallel_for_blocks(std::size_t n, std::size_t block_size,
                         std::size_t threads,
                         const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace photecc::math

#endif  // PHOTECC_MATH_PARALLEL_HPP
