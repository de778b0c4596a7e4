/**
 * @file
 * The dispatcher's load-balancing pick, shared by the real runtime and
 * the simulator (paper s. 3.2, 5.4; DESIGN.md §4c, §4i).
 *
 * One `DispatchView` per dispatcher shard holds the shard's view of its
 * workers: packed, cache-line-aligned `uint32_t` length and quanta
 * lanes (16 workers' lengths fit in one line). The owner refreshes the
 * lanes from the workers' counters at its own cadence — the runtime
 * once per RX batch, the simulator every `stats_refresh_period` — and
 * bumps the chosen lane after every pick, so the view is stale only in
 * what the workers finished since the refresh, never in what the
 * dispatcher assigned. `pick()` then runs one of the four policies over
 * the view; neither engine has a policy body of its own.
 *
 * Semantics:
 *  - lengths are clamped into [0, kLenMax]; real queue depth is bounded
 *    far below (ring capacity + tasks per worker in the runtime, the
 *    in-flight cap in the sim), so the clamp exists to make the uint32
 *    narrowing safe by construction;
 *  - JsqMsq: minimum length, then maximum current-quanta, then lowest
 *    index — a single-pass scan with the tie-break folded into the
 *    comparison; the two-pass loop it replaced is the property-test
 *    oracle (tests/layout_test.cc);
 *  - JsqRandom: one `below(ties)` per decision, drawn only when more
 *    than one worker ties for the minimum;
 *  - Random: one `below(n)`;
 *  - PowerOfTwo: `below(n)` and `below(n - 1)` for two distinct
 *    workers, the shorter wins, and a tie draws `bernoulli(0.5)`; a
 *    one-worker view returns 0 without drawing.
 * The draw order is the simulator's, so seeded sim runs reproduce.
 *
 * Plain struct, no globals, single-threaded by design: the owning
 * dispatcher both writes and reads it. SIMD and tournament alternatives
 * to the scan: docs/cache_line_analysis.md §"Picking the pick".
 */
#ifndef TQ_COMMON_DISPATCH_VIEW_H
#define TQ_COMMON_DISPATCH_VIEW_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>

#include "common/check.h"
#include "common/rng.h"
#include "conc/cacheline.h"

namespace tq {

/** Dispatcher load-balancing policies (paper sections 3.2, 5.4); one
 *  enum for both engines. */
enum class LbPolicy {
    JsqMsq,      ///< JSQ with Maximum-Serviced-Quanta ties (TQ default)
    JsqRandom,   ///< JSQ with random ties
    Random,      ///< uniform random worker
    PowerOfTwo,  ///< least-loaded of two random workers
};

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

    /**
     * Queue length from a worker's counters: jobs assigned minus jobs
     * finished, clamped at 0. The runtime bumps `assigned` after the
     * ring push, so a fast worker can transiently put `finished` ahead;
     * the clamp keeps it from ranking as infinitely loaded.
     */
    static uint64_t
    outstanding(uint64_t assigned, uint64_t finished)
    {
        return assigned > finished ? assigned - finished : 0;
    }

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
     * The policy's pick over the view: a view-local worker index.
     * Does not mutate the view — callers bump the winner via bump_len().
     * Consumes @p rng as the file comment states.
     */
    int
    pick(LbPolicy policy, Rng &rng) const
    {
        switch (policy) {
          case LbPolicy::JsqMsq:
            return pick_jsq_msq();
          case LbPolicy::JsqRandom:
            return pick_jsq_random(rng);
          case LbPolicy::Random:
            return static_cast<int>(rng.below(n_));
          case LbPolicy::PowerOfTwo:
            return pick_power_of_two(rng);
        }
        TQ_CHECK(false);
        return 0;
    }

    /**
     * JSQ pick with MSQ tie-breaking: the least-loaded worker; among
     * ties the one whose current jobs have received the most quanta
     * (it should finish them soonest, paper s. 3.2); among remaining
     * ties the lowest index.
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
    /** JSQ with a uniform pick among the tied minima: one pass counts
     *  the ties, and only a real tie draws. */
    int
    pick_jsq_random(Rng &rng) const
    {
        size_t first = 0;
        uint32_t best_len = len_[0];
        uint64_t ties = 1;
        for (size_t i = 1; i < n_; ++i) {
            if (len_[i] < best_len) {
                first = i;
                best_len = len_[i];
                ties = 1;
            } else if (len_[i] == best_len) {
                ++ties;
            }
        }
        if (ties == 1)
            return static_cast<int>(first);
        uint64_t k = rng.below(ties);
        for (size_t i = first;; ++i)
            if (len_[i] == best_len && k-- == 0)
                return static_cast<int>(i);
    }

    /** Least-loaded of two distinct uniformly drawn workers. */
    int
    pick_power_of_two(Rng &rng) const
    {
        if (n_ == 1)
            return 0; // no second worker to sample
        const size_t a = rng.below(n_);
        size_t b = rng.below(n_ - 1);
        if (b >= a)
            ++b;
        if (len_[a] != len_[b])
            return static_cast<int>(len_[a] < len_[b] ? a : b);
        return static_cast<int>(rng.bernoulli(0.5) ? a : b);
    }

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

} // namespace tq

#endif // TQ_COMMON_DISPATCH_VIEW_H
