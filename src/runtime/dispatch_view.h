/**
 * @file
 * Packed dispatcher-local JSQ/MSQ view (paper s. 4).
 *
 * The dispatcher's per-job decision used to scan a vector<uint64_t> of
 * queue lengths plus a parallel vector<uint32_t> of quanta — two
 * allocations, 8 bytes per worker for values that are small by
 * construction. This view packs both into contiguous, cache-line-aligned
 * `uint32_t` arrays so 16 workers' lengths fit in one line. The pick is
 * a single-pass scan at every width; the two-pass loop it replaced is
 * the property-test oracle (tests/layout_test.cc). SIMD and tournament
 * alternatives: docs/cache_line_analysis.md §"Picking the pick".
 *
 * Semantics are bit-identical to the two-pass loop:
 *  - lengths are clamped into [0, kLenMax]; real queue depth is bounded
 *    by ring_capacity + tasks_per_worker (default < 2^15), so the clamp
 *    is unreachable in practice and exists to make the uint32 narrowing
 *    safe by construction;
 *  - JSQ-MSQ tie-break: minimum length, then maximum current-quanta,
 *    then lowest worker index (DESIGN.md §4c);
 *  - JSQ-random consumes the RNG identically to the old loop (one
 *    `below(++tie_count)` per tied worker, ascending index), so seeded
 *    runs reproduce.
 *
 * Plain struct, no globals: RackSched-style inter-shard JSQ (PAPERS.md)
 * can instantiate one view per shard. Single-threaded by design — the
 * owning dispatcher both writes and reads it; nothing here is shared.
 */
#ifndef TQ_RUNTIME_DISPATCH_VIEW_H
#define TQ_RUNTIME_DISPATCH_VIEW_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>

#include "common/check.h"
#include "conc/cacheline.h"

namespace tq::runtime {

/** Packed per-shard JSQ/MSQ state for one dispatcher. */
class DispatchView
{
  public:
    /** Saturation bound for stored queue lengths (INT32_MAX). */
    static constexpr uint32_t kLenMax = 0x7fffffffu;

    /** uint32 lanes per cache line; arrays are padded to a multiple so
     *  each view owns whole lines. */
    static constexpr size_t kLanesPerLine = kCacheLineSize / sizeof(uint32_t);

    /** @param workers number of workers (>= 1) this view ranks. */
    explicit DispatchView(size_t workers)
        : n_(workers),
          padded_((workers + kLanesPerLine - 1) & ~(kLanesPerLine - 1)),
          len_(alloc_lanes(padded_)), quanta_(alloc_lanes(padded_))
    {
        TQ_CHECK(workers >= 1);
        for (size_t i = 0; i < padded_; ++i) {
            // Padding lanes hold kLenMax so they can never win the min
            // (pick loops additionally stop at n_, which covers the
            // all-workers-saturated corner).
            len_[i] = i < n_ ? 0 : kLenMax;
            quanta_[i] = 0;
        }
    }

    DispatchView(const DispatchView &) = delete;
    DispatchView &operator=(const DispatchView &) = delete;
    DispatchView(DispatchView &&) = default;
    DispatchView &operator=(DispatchView &&) = default;

    /** Workers ranked by this view. */
    size_t workers() const { return n_; }

    /** Allocated lanes (workers rounded up to a line multiple). */
    size_t padded_lanes() const { return padded_; }

    /** Store worker @p i's queue length, saturating at kLenMax. */
    void
    set_len(size_t i, uint64_t len)
    {
        len_[i] = len < kLenMax ? static_cast<uint32_t>(len) : kLenMax;
    }

    /** One more job assigned to worker @p i (saturating). */
    void
    bump_len(size_t i)
    {
        if (len_[i] < kLenMax)
            ++len_[i];
    }

    /** Stored (clamped) length of worker @p i. */
    uint32_t len(size_t i) const { return len_[i]; }

    /** Store worker @p i's current-jobs quanta sum (MSQ tie-break key). */
    void set_quanta(size_t i, uint32_t q) { quanta_[i] = q; }

    /** Stored quanta snapshot of worker @p i. */
    uint32_t quanta(size_t i) const { return quanta_[i]; }

    /** Smallest stored length across the real workers. */
    uint32_t
    min_len() const
    {
        uint32_t best = kLenMax;
        for (size_t i = 0; i < n_; ++i)
            best = len_[i] < best ? len_[i] : best;
        return best;
    }

    /**
     * JSQ pick with MSQ tie-breaking: the least-loaded worker; among
     * ties the one whose current jobs have received the most quanta
     * (it should finish them soonest, paper s. 3.2); among remaining
     * ties the lowest index. Does not mutate the view — callers bump
     * the winner via bump_len().
     *
     * One pass with the tie-break folded into the comparison: strictly
     * smaller length wins; equal length and strictly larger quanta
     * wins; otherwise the incumbent (lower index) stays. Equivalent to
     * the two-pass oracle by induction over the scan prefix.
     */
    int
    pick_jsq_msq() const
    {
        int best = 0;
        uint32_t best_len = len_[0];
        uint32_t best_quanta = quanta_[0];
        for (size_t i = 1; i < n_; ++i) {
            const uint32_t l = len_[i];
            const uint32_t q = quanta_[i];
            if (l < best_len || (l == best_len && q > best_quanta)) {
                best = static_cast<int>(i);
                best_len = l;
                best_quanta = q;
            }
        }
        return best;
    }

    /**
     * JSQ pick with uniform-random tie-breaking. Consumes @p rng exactly
     * like the loop it replaced — one `below(++tie_count)` per tied
     * worker in ascending index order — so seeded runs reproduce.
     */
    template <typename RngT>
    int
    pick_jsq_random(RngT &rng) const
    {
        const uint32_t best_len = min_len();
        int best = -1;
        uint64_t tie_count = 0;
        for (size_t i = 0; i < n_; ++i)
            if (len_[i] == best_len && rng.below(++tie_count) == 0)
                best = static_cast<int>(i);
        return best;
    }

    /** Two-pass reference for pick_jsq_msq(); the property-test oracle
     *  (the original dispatcher loop, verbatim). */
    int
    pick_jsq_msq_scalar() const
    {
        const uint32_t best_len = min_len();
        int best = -1;
        uint32_t best_quanta = 0;
        for (size_t i = 0; i < n_; ++i) {
            if (len_[i] != best_len)
                continue;
            const uint32_t q = quanta_[i];
            if (best < 0 || q > best_quanta) {
                best = static_cast<int>(i);
                best_quanta = q;
            }
        }
        return best;
    }

  private:
    struct LaneFree
    {
        void
        operator()(uint32_t *p) const
        {
            ::operator delete[](p, std::align_val_t{kCacheLineSize});
        }
    };
    using Lanes = std::unique_ptr<uint32_t[], LaneFree>;

    /** Line-aligned lane array: a 16-worker view's lengths occupy
     *  exactly one line. */
    static Lanes
    alloc_lanes(size_t count)
    {
        return Lanes(new (std::align_val_t{kCacheLineSize})
                         uint32_t[count]);
    }

    friend struct ::tq::LayoutAudit;

    size_t n_;
    size_t padded_;
    Lanes len_;
    Lanes quanta_;
};

} // namespace tq::runtime

#endif // TQ_RUNTIME_DISPATCH_VIEW_H
