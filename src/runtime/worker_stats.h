/**
 * @file
 * The dispatcher/worker statistics contract (paper section 4).
 *
 * Each worker owns one cache line of counters that the dispatcher reads
 * periodically: the number of finished jobs (for JSQ queue lengths, as
 * assigned-minus-finished) and the number of quanta serviced for the
 * worker's *current* jobs (for MSQ tie-breaking). Counters are free to
 * wrap: the dispatcher tracks deltas between reads, so their width does
 * not bound the totals (paper section 4).
 */
#ifndef TQ_RUNTIME_WORKER_STATS_H
#define TQ_RUNTIME_WORKER_STATS_H

#include <atomic>
#include <cstdint>

#include "conc/cacheline.h"

namespace tq::runtime {

/**
 * One worker's shared statistics cache line. Writer: the worker, and
 * only the worker, with relaxed load+store bumps (conc/single_writer.h)
 * — the dispatcher and stats readers load it but never
 * store, so the line ping-pongs at the worker's completion rate, not
 * the (much higher) dispatch rate. The three counters live together
 * deliberately: the dispatcher's JSQ/MSQ refresh wants `finished` and
 * `current_quanta` in the same load, and one line per worker keeps the
 * 16-worker refresh to 16 line reads. Field order is the read order of
 * refresh_dispatch_views(); the pad keeps neighbouring workers' lines
 * (e.g. in a bench's contiguous array) from false-sharing.
 */
struct alignas(kCacheLineSize) WorkerStatsLine
{
    /** Jobs completed (monotonic modulo wrap). */
    std::atomic<uint32_t> finished{0};

    /** Sum of serviced quanta across the jobs currently admitted to the
     *  worker (rises on each quantum, falls when a job completes).
     *  Counts *grants*, not cycles: under per-class quanta
     *  (runtime/quantum.h) a grant may be any class's budget, so MSQ
     *  tie-breaking keeps ranking by slices attained — exactly the
     *  blind signal the paper uses — without the dispatcher knowing
     *  per-class budgets. */
    std::atomic<uint32_t> current_quanta{0};

    /** Total quanta serviced (monotonic modulo wrap; stats/tests).
     *  Like current_quanta this counts grants, whatever each grant's
     *  per-class cycle budget was. */
    std::atomic<uint32_t> total_quanta{0};

    char pad[kCacheLineSize - 3 * sizeof(std::atomic<uint32_t>)];
};

static_assert(sizeof(WorkerStatsLine) == kCacheLineSize &&
                  alignof(WorkerStatsLine) == kCacheLineSize,
              "stats must occupy exactly one cache line");

/**
 * Dispatcher-side view of one worker's counters: tracks cumulative
 * totals across 32-bit wraps by accumulating deltas between reads.
 */
class WorkerStatsReader
{
  public:
    /** Refresh from the worker's line; returns cumulative finished. */
    uint64_t
    read_finished(const WorkerStatsLine &line)
    {
        const uint32_t now = line.finished.load(std::memory_order_relaxed);
        cumulative_finished_ += static_cast<uint32_t>(now - last_finished_);
        last_finished_ = now;
        return cumulative_finished_;
    }

    /** Current-jobs quanta sum (instantaneous, no wrap tracking). */
    static uint32_t
    read_current_quanta(const WorkerStatsLine &line)
    {
        return line.current_quanta.load(std::memory_order_relaxed);
    }

    /**
     * Refresh from the worker's line; returns cumulative total quanta.
     *
     * total_quanta is monotonic modulo 32-bit wrap, exactly like
     * finished: reading the raw atomic is wrap-unsafe once a worker has
     * serviced more than 2^32 quanta (under 2h at 1M quanta/s per the
     * paper's rates), so consumers — the telemetry snapshot, stats,
     * tests — must go through this delta-tracking reader instead.
     */
    uint64_t
    read_total_quanta(const WorkerStatsLine &line)
    {
        const uint32_t now = line.total_quanta.load(std::memory_order_relaxed);
        cumulative_quanta_ += static_cast<uint32_t>(now - last_quanta_);
        last_quanta_ = now;
        return cumulative_quanta_;
    }

  private:
    uint32_t last_finished_ = 0;
    uint64_t cumulative_finished_ = 0;
    uint32_t last_quanta_ = 0;
    uint64_t cumulative_quanta_ = 0;
};

} // namespace tq::runtime

#endif // TQ_RUNTIME_WORKER_STATS_H
