/**
 * @file
 * Bounded lock-free single-producer / single-consumer ring buffer.
 *
 * This is the "lockless ring buffer" the TQ dispatcher uses to forward a
 * request to the least-loaded worker, and that each worker uses for its
 * private TX queue (paper section 4). It is a classic Lamport queue with
 * cached remote indices so the hot path touches only one shared cache
 * line per operation amortized. pop_all() moves everything published
 * with one index acquire/release pair, dividing that remaining shared
 * traffic by the backlog it collects (DESIGN.md "Batched hot path").
 *
 * Index layout (docs/cache_line_analysis.md): two lines, one per end.
 * Each end's published index shares its line with that same end's cached
 * snapshot of the *other* index — both fields have a single writer (the
 * owning end), so packing them costs nothing and halves the header from
 * the previous four dedicated lines. The other end only ever loads the
 * published index; the slot storage and mask sit on separate read-mostly
 * lines ahead of the index block.
 */
#ifndef TQ_CONC_SPSC_RING_H
#define TQ_CONC_SPSC_RING_H

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <iterator>
#include <optional>
#include <vector>

#include "common/check.h"
#include "conc/cacheline.h"

namespace tq {

/**
 * Bounded SPSC FIFO of trivially-movable values.
 *
 * Exactly one thread may call push(); exactly one thread may call pop().
 * Capacity is rounded up to a power of two.
 */
template <typename T>
class SpscRing
{
  public:
    /**
     * Producer-owned index line: the published producer index plus the
     * producer's private snapshot of the consumer index. Single writer
     * (the producer); the consumer acquire-loads only `head`.
     */
    struct alignas(kCacheLineSize) ProducerSide
    {
        std::atomic<size_t> head{0}; ///< next slot to fill (published)
        size_t cached_tail = 0;      ///< producer-local tail snapshot

        char pad[kCacheLineSize - sizeof(std::atomic<size_t>) -
                 sizeof(size_t)];
    };

    /** Consumer-owned index line, mirror of ProducerSide. */
    struct alignas(kCacheLineSize) ConsumerSide
    {
        std::atomic<size_t> tail{0}; ///< next slot to drain (published)
        size_t cached_head = 0;      ///< consumer-local head snapshot

        char pad[kCacheLineSize - sizeof(std::atomic<size_t>) -
                 sizeof(size_t)];
    };

    static_assert(sizeof(ProducerSide) == kCacheLineSize &&
                      alignof(ProducerSide) == kCacheLineSize,
                  "each ring end owns exactly one index line");
    static_assert(sizeof(ConsumerSide) == kCacheLineSize &&
                      alignof(ConsumerSide) == kCacheLineSize,
                  "each ring end owns exactly one index line");

    /** @param min_capacity minimum number of storable elements (>= 1). */
    explicit SpscRing(size_t min_capacity)
    {
        TQ_CHECK(min_capacity >= 1);
        size_t cap = 1;
        while (cap < min_capacity)
            cap <<= 1;
        mask_ = cap - 1;
        slots_.resize(cap);
    }

    SpscRing(const SpscRing &) = delete;
    SpscRing &operator=(const SpscRing &) = delete;

    /** Number of storable elements. */
    size_t capacity() const { return mask_ + 1; }

    /**
     * Enqueue @p value. Producer-side only.
     * @return false if the ring is full (value untouched).
     */
    bool
    push(T value)
    {
        const size_t head = prod_.head.load(std::memory_order_relaxed);
        if (head - prod_.cached_tail > mask_) {
            prod_.cached_tail = cons_.tail.load(std::memory_order_acquire);
            if (head - prod_.cached_tail > mask_)
                return false;
        }
        slots_[head & mask_] = std::move(value);
        prod_.head.store(head + 1, std::memory_order_release);
        return true;
    }

    /**
     * Dequeue the oldest element. Consumer-side only.
     * @return std::nullopt if the ring is empty.
     */
    std::optional<T>
    pop()
    {
        const size_t tail = cons_.tail.load(std::memory_order_relaxed);
        if (tail == cons_.cached_head) {
            cons_.cached_head = prod_.head.load(std::memory_order_acquire);
            if (tail == cons_.cached_head)
                return std::nullopt;
        }
        T value = std::move(slots_[tail & mask_]);
        cons_.tail.store(tail + 1, std::memory_order_release);
        return value;
    }

    /**
     * Dequeue the oldest element into @p out without the
     * std::optional<T> wrapper (no extra move/copy of T on the miss
     * path, no engaged-flag branch for the caller). Consumer-side only.
     * @return false when the ring is empty (@p out untouched).
     */
    bool
    pop_into(T &out)
    {
        const size_t tail = cons_.tail.load(std::memory_order_relaxed);
        if (tail == cons_.cached_head) {
            cons_.cached_head = prod_.head.load(std::memory_order_acquire);
            if (tail == cons_.cached_head)
                return false;
        }
        out = std::move(slots_[tail & mask_]);
        cons_.tail.store(tail + 1, std::memory_order_release);
        return true;
    }

    /**
     * Append everything published so far to @p out, acquiring the
     * producer index exactly once. Consumer-side only. Elements pushed
     * after that acquire stay for the next call, so a collector that
     * polls many rings pays one shared-index load per ring per poll.
     * @return number of elements appended (0 when empty), FIFO order.
     */
    size_t
    pop_all(std::vector<T> &out)
    {
        const size_t tail = cons_.tail.load(std::memory_order_relaxed);
        cons_.cached_head = prod_.head.load(std::memory_order_acquire);
        const size_t count = cons_.cached_head - tail;
        if (count == 0)
            return 0;
        // At most two contiguous runs: up to the end of the storage,
        // then from its start. Range insert grows @p out geometrically
        // and moves each element once.
        const size_t first = tail & mask_;
        const size_t run = std::min(count, capacity() - first);
        const auto src = std::make_move_iterator(slots_.begin());
        const auto at = static_cast<std::ptrdiff_t>(first);
        const auto len = static_cast<std::ptrdiff_t>(run);
        out.insert(out.end(), src + at, src + at + len);
        out.insert(out.end(), src,
                   src + static_cast<std::ptrdiff_t>(count - run));
        cons_.tail.store(tail + count, std::memory_order_release);
        return count;
    }

    /** Approximate occupancy; exact only when called by one of the ends. */
    size_t
    size() const
    {
        return prod_.head.load(std::memory_order_acquire) -
               cons_.tail.load(std::memory_order_acquire);
    }

    /** True when size() == 0 at the time of the loads. */
    bool empty() const { return size() == 0; }

  private:
    friend struct ::tq::LayoutAudit;

    /** Read-mostly after construction (both ends load, nobody stores). */
    std::vector<T> slots_;
    size_t mask_;

    ProducerSide prod_; ///< writer: producer thread only
    ConsumerSide cons_; ///< writer: consumer thread only
};

} // namespace tq

#endif // TQ_CONC_SPSC_RING_H
