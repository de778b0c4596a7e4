/**
 * @file
 * Updates for atomics that have exactly one writing thread.
 *
 * On x86-64 even a relaxed fetch_add is a locked RMW (`lock xadd`): it
 * drains the store buffer and costs several times a plain store. A
 * counter that only its owning thread ever writes needs none of that —
 * nobody else can interleave an update, so a relaxed load of the
 * owner's own last value plus a relaxed store publishes exactly what
 * fetch_add would have. Concurrent readers still see every value whole
 * (each is one atomic store) and in order (a single writer's stores to
 * one location are totally ordered), so the snapshot contract of
 * OBSERVABILITY.md §4 is unchanged.
 *
 * Use these only where one thread writes: the worker's, dispatcher's
 * and load generator's own counters, histograms and trace-ring drop
 * counters. A counter that a second thread also writes — the cold
 * drop/abandon counters, which the shutdown sweep bumps again after
 * joining their owner — keeps fetch_add.
 */
#ifndef TQ_CONC_SINGLE_WRITER_H
#define TQ_CONC_SINGLE_WRITER_H

#include <atomic>
#include <type_traits>

namespace tq {

/** Add @p delta to @p a. The calling thread must be @p a's only writer. */
template <typename T>
inline void
single_writer_add(std::atomic<T> &a, std::type_identity_t<T> delta)
{
    a.store(a.load(std::memory_order_relaxed) + delta,
            std::memory_order_relaxed);
}

/** Subtract @p delta from @p a. The calling thread must be @p a's only
 *  writer. */
template <typename T>
inline void
single_writer_sub(std::atomic<T> &a, std::type_identity_t<T> delta)
{
    a.store(a.load(std::memory_order_relaxed) - delta,
            std::memory_order_relaxed);
}

} // namespace tq

#endif // TQ_CONC_SINGLE_WRITER_H
