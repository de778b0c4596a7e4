/**
 * @file
 * Cycle-accurate metrics: padded per-thread counters and concurrently
 * readable log-bucketed histograms, aggregated by a MetricsRegistry.
 *
 * Layout follows the dispatcher/worker counter contract of the paper
 * (section 4): every writer owns its own cache line, readers only load,
 * and nothing on the hot path takes a lock or issues a locked RMW.
 * Every worker, dispatcher and client instrument has exactly one
 * writer, so it is bumped with a relaxed load plus a relaxed store
 * (conc/single_writer.h) rather than fetch_add, which on x86 is a
 * `lock xadd` even when relaxed.
 * Snapshots are therefore safe *while the runtime is running*: they are
 * per-counter linearizable (each value is a single relaxed load) but not
 * a cross-counter atomic cut — totals observed across counters may be
 * skewed by in-flight work. See OBSERVABILITY.md for the full contract.
 *
 * Histograms record raw cycle values into power-of-two buckets with an
 * exact running sum, so snapshots expose both exact means and the bucket
 * distribution (reusing common/histogram.h LogHistogram for rendering
 * and percentile queries).
 */
#ifndef TQ_TELEMETRY_METRICS_H
#define TQ_TELEMETRY_METRICS_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/cycles.h"
#include "common/histogram.h"
#include "conc/cacheline.h"
#include "conc/single_writer.h"
#include "telemetry/trace_ring.h"

namespace tq::telemetry {

/** Per-class instrument slots. Must match the runtime's quantum-table
 *  bound (runtime/quantum.h kMaxQuantumClasses; asserted in worker.cc):
 *  job classes at or beyond the limit share the last slot. */
inline constexpr int kMaxTrackedClasses = 8;

/**
 * Lock-free log2-bucketed histogram of cycle counts.
 *
 * Each instance has one writer thread, so add() is three relaxed
 * load+store pairs, no locked RMW; any thread may snapshot
 * concurrently. Bucket i counts values in
 * [2^i, 2^(i+1)), with values 0 and 1 sharing bucket 0 and values
 * >= 2^(kBuckets-1) clamped into the last bucket.
 */
class CycleHistogram
{
  public:
    /** Buckets cover [1, 2^40) cycles — beyond any per-event latency.
     *  Layout note: 42 uint64 atomics = 336 bytes (5.25 lines), not
     *  padded per bucket — every field has the same single writer (the
     *  owning thread), so internal sharing is free, and the enclosing
     *  WorkerTelemetry/DispatcherTelemetry objects group histograms by
     *  writer (docs/cache_line_analysis.md). */
    static constexpr int kBuckets = 40;

    /** Record one cycle-valued sample. The calling thread must be this
     *  instance's only writer. Wait-free. */
    void
    add(Cycles value)
    {
        single_writer_add(buckets_[bucket_of(value)], 1);
        single_writer_add(sum_, value);
        single_writer_add(count_, 1);
    }

    /** Bucket index a value lands in (exposed for tests). */
    static int
    bucket_of(Cycles value)
    {
        if (value < 2)
            return 0;
        const int log2 = 63 - __builtin_clzll(value);
        return log2 < kBuckets ? log2 : kBuckets - 1;
    }

    /** Number of recorded samples at the time of the load. */
    uint64_t count() const { return count_.load(std::memory_order_relaxed); }

    /** Exact sum of recorded cycle values. */
    Cycles sum() const { return sum_.load(std::memory_order_relaxed); }

    /**
     * Copy the bucket counts into a LogHistogram (base 1, kBuckets
     * buckets) for rendering / fraction_above queries. Safe while
     * writers are active; the copy is bucket-wise consistent.
     */
    LogHistogram snapshot() const;

  private:
    std::atomic<uint64_t> buckets_[kBuckets] = {};
    std::atomic<uint64_t> sum_{0};
    std::atomic<uint64_t> count_{0};
};

/**
 * One worker thread's event counters, alone on their cache line.
 *
 * Single writer (the owning worker); snapshot readers only load. Five
 * counters fit one line with 24 bytes of stated pad — room for two more
 * before the static_assert below forces a second (still worker-owned)
 * line. Each worker's WorkerTelemetry is a separate heap allocation, so
 * distinct workers' counters can never share a line regardless of
 * allocator behaviour (checked in tests/layout_test.cc).
 */
struct alignas(kCacheLineSize) WorkerCounters
{
    std::atomic<uint64_t> admitted{0};        ///< jobs pulled off the
                                              ///< dispatch ring
    std::atomic<uint64_t> quanta{0};          ///< task slices resumed
    std::atomic<uint64_t> yields{0};          ///< probe-forced preemptions
    std::atomic<uint64_t> guard_deferrals{0}; ///< expiries deferred by a
                                              ///< PreemptGuard
    std::atomic<uint64_t> finished{0};        ///< jobs completed

    /** Pad out the line so neighbouring workers never false-share. */
    char pad[kCacheLineSize - 5 * sizeof(std::atomic<uint64_t>)];
};

static_assert(sizeof(WorkerCounters) == kCacheLineSize &&
                  alignof(WorkerCounters) == kCacheLineSize,
              "one cache line per worker");

/** Everything one worker thread writes: counters, stage histograms,
 *  and its private trace ring. */
class WorkerTelemetry
{
  public:
    /** @param worker worker id (trace tid). @param trace_capacity ring
     *  size in events. */
    WorkerTelemetry(int worker, size_t trace_capacity)
        : trace(static_cast<uint8_t>(worker), trace_capacity)
    {
    }

    WorkerCounters counters;      ///< event counters (writer: the worker)
    CycleHistogram queue_cycles;  ///< dispatch -> first quantum start
    CycleHistogram service_cycles;///< per-job sum of slice durations
    CycleHistogram preempt_cycles;///< per-preemption overshoot past the
                                  ///< armed deadline (incl. switch-out)

    // Per-class quantum/deficit instruments (DESIGN.md §4i). Recorded
    // only while the per-class scheduler is active (non-empty
    // class_quantum_us or adaptive_quantum); all-zero otherwise, so the
    // snapshot's per_class block stays empty on the fixed-quantum path.
    // Same single-writer layout as everything above: only the owning
    // worker stores, snapshot readers only load.
    std::atomic<uint64_t> class_grants[kMaxTrackedClasses] = {};
    /** Sum of armed cycle budgets per class: mean granted budget =
     *  granted_cycles / grants, the runtime-side effective quantum the
     *  sim-parity test compares orderings against. */
    std::atomic<uint64_t> class_granted_cycles[kMaxTrackedClasses] = {};
    std::atomic<uint64_t> class_finished[kMaxTrackedClasses] = {};
    /** Last settled deficit per class (gauge, signed cycles). */
    std::atomic<int64_t> class_deficit[kMaxTrackedClasses] = {};
    CycleHistogram class_service[kMaxTrackedClasses]; ///< per-job attained
    CycleHistogram class_sojourn[kMaxTrackedClasses]; ///< arrival -> done

    TraceRing trace;              ///< typed event ring (producer: worker)
};

/** One dispatcher shard's telemetry: per-job dispatch cost, steal
 *  accounting, and its trace ring. An unsharded runtime has exactly
 *  one instance (shard 0, the historical dispatcher). */
class DispatcherTelemetry
{
  public:
    /** @param trace_capacity ring size in events.
     *  @param shard dispatcher shard index (trace tid
     *      dispatcher_tid(shard); 0 for the unsharded runtime). */
    explicit DispatcherTelemetry(size_t trace_capacity, int shard = 0)
        : trace(dispatcher_tid(shard), trace_capacity)
    {
    }

    /** Jobs forwarded to workers (writer: the dispatcher thread). */
    std::atomic<uint64_t> dispatched{0};

    /** Successful steal attempts: batches this shard pulled from a
     *  sibling's RX queue (writer: this shard's dispatcher). */
    std::atomic<uint64_t> steals{0};

    CycleHistogram dispatch_cycles; ///< RX arrival -> handed to a worker

    /** Requests per non-empty RX batch (CycleHistogram reused as a
     *  generic log2 value histogram: count = batches, sum = requests,
     *  so sum/count is the exact mean occupancy). Occupancy ~1 means
     *  the dispatcher is keeping up and batching is a no-op; rising
     *  occupancy is RX queue depth, i.e. dispatcher pressure. */
    CycleHistogram batch_occupancy;

    /** Jobs per successful steal (another generic log2 value
     *  histogram: count = steals, sum = jobs stolen, so sum/count is
     *  the mean rebalanced batch). Empty when stealing never fired. */
    CycleHistogram steal_batch;

    TraceRing trace;                ///< JobDispatched events
};

/** Client-side (load generator) telemetry. net::run_open_loop is its
 *  single writer: it records from its one thread, which is also the
 *  single response consumer Runtime::drain_responses requires. */
class ClientTelemetry
{
  public:
    std::atomic<uint64_t> submitted{0};     ///< requests accepted by RX
    std::atomic<uint64_t> send_failures{0}; ///< RX-full rejections
    std::atomic<uint64_t> completed{0};     ///< responses drained

    CycleHistogram sojourn_cycles; ///< dispatcher arrival -> completion

    /** Last-minus-first shard completion spread per gathered fan-out
     *  request (cycles); empty for single-shard traffic. */
    CycleHistogram fanout_spread_cycles;

    /** In-flight requests sampled at each arrival-process phase
     *  boundary (CycleHistogram reused as a generic log2 value
     *  histogram, like batch_occupancy: count = phases begun, sum =
     *  in-flight total, so sum/count is the mean per-phase burst
     *  occupancy). Empty under plain Poisson arrivals. */
    CycleHistogram burst_inflight;
};

/** Summary of one histogram-backed pipeline stage, in nanoseconds. */
struct StageStats
{
    uint64_t count = 0;  ///< samples recorded
    double mean_ns = 0;  ///< exact mean (from the running sum)
    double p99_ns = 0;   ///< bucket-resolution 99th percentile

    /** Bucket distribution (cycles; base 1, CycleHistogram::kBuckets). */
    LogHistogram hist{1, CycleHistogram::kBuckets};
};

/** One job class's folded per-class quantum instruments (§4i). */
struct ClassQuantaStats
{
    uint64_t grants = 0;        ///< slices granted to the class
    uint64_t finished = 0;      ///< jobs of the class completed
    double mean_granted_us = 0; ///< mean armed budget per grant (the
                                ///< runtime-side effective quantum)
    int64_t deficit_cycles = 0; ///< summed last-value deficit gauges
    StageStats service;         ///< per-job attained service
    StageStats sojourn;         ///< arrival -> completion
};

/** Point-in-time copy of every registry metric (values in ns). */
struct MetricsSnapshot
{
    uint64_t dispatched = 0;       ///< jobs forwarded by the dispatcher
    uint64_t admitted = 0;         ///< jobs admitted by workers
    uint64_t finished = 0;         ///< jobs completed
    uint64_t quanta = 0;           ///< task slices resumed
    uint64_t yields = 0;           ///< probe-forced preemptions
    uint64_t guard_deferrals = 0;  ///< guard-deferred expiries
    uint64_t trace_dropped = 0;    ///< events lost to ring overflow

    uint64_t dispatch_batches = 0;      ///< non-empty dispatcher RX polls
    double mean_dispatch_batch = 0;     ///< mean requests per such batch
    /** Batch-occupancy distribution (log2 buckets over request counts,
     *  not cycles; see DispatcherTelemetry::batch_occupancy). */
    LogHistogram dispatch_batch_hist{1, CycleHistogram::kBuckets};

    /** Jobs forwarded by each dispatcher shard, in shard order (one
     *  entry for the unsharded runtime; `dispatched` is its sum). */
    std::vector<uint64_t> per_shard_dispatched;

    uint64_t steal_count = 0;  ///< successful cross-shard steal batches
    uint64_t stolen_jobs = 0;  ///< jobs rebalanced by those steals
    double mean_steal_batch = 0; ///< stolen_jobs / steal_count
    /** Steal-batch-size distribution (log2 buckets over job counts,
     *  not cycles; see DispatcherTelemetry::steal_batch). */
    LogHistogram steal_batch_hist{1, CycleHistogram::kBuckets};

    /** Cumulative serviced quanta from the workers' WorkerStatsLine
     *  counters, read wrap-tolerantly (filled by
     *  Runtime::telemetry_snapshot(); 0 when taken registry-only). */
    uint64_t stats_total_quanta = 0;

    // Backpressure / lifecycle counters (filled by
    // Runtime::telemetry_snapshot(); 0 when taken registry-only). These
    // record in every build — including -DTQ_TELEMETRY=OFF — because
    // they only ever touch the cold overflow and shutdown paths. See
    // OBSERVABILITY.md section 1.4.
    uint64_t tx_ring_full_spins = 0;       ///< worker TX push spin waits
    uint64_t dispatch_ring_full_spins = 0; ///< dispatcher push spin waits
    uint64_t dropped_responses = 0;        ///< TX overflow-policy drops
    uint64_t abandoned_jobs = 0;           ///< jobs never finished (forced
                                           ///< stop or dispatch overflow)

    StageStats dispatch; ///< RX arrival -> handed to a worker
    StageStats queueing; ///< handed to a worker -> first quantum
    StageStats service;  ///< sum of slice durations per job
    StageStats preempt;  ///< per-preemption deadline overshoot
    StageStats sojourn;  ///< client-observed arrival -> completion
    /** Shard completion spread per gathered fan-out request (empty for
     *  single-shard traffic). */
    StageStats fanout_spread;

    /** Per-class quantum instruments, trimmed to the highest class with
     *  any grants — empty on the fixed-quantum path, so consumers of
     *  the default snapshot see no new fields light up. Classes index
     *  by quantum-table slot (kMaxTrackedClasses bound). */
    std::vector<ClassQuantaStats> per_class;

    /** Starvation-guard force-promotions across all workers (filled by
     *  Runtime::telemetry_snapshot(); records in every build — the
     *  guard is scheduler state, not telemetry). */
    uint64_t starvation_promotions = 0;

    uint64_t burst_phases = 0;      ///< arrival-process phases begun
    double mean_burst_inflight = 0; ///< mean in-flight at phase starts
    /** In-flight-at-phase-boundary distribution (log2 buckets over
     *  request counts, not cycles; ClientTelemetry::burst_inflight). */
    LogHistogram burst_inflight_hist{1, CycleHistogram::kBuckets};

    /** Multi-line human-readable rendering (used by benches/tools). */
    std::string to_string() const;
};

/**
 * Owner of all telemetry state for one Runtime: one WorkerTelemetry per
 * worker, the dispatcher's and the client's. Construction is the only
 * allocation; everything afterwards is wait-free on the writer side and
 * lock-free on the reader side.
 */
class MetricsRegistry
{
  public:
    /**
     * @param num_workers worker telemetry slots to create.
     * @param trace_capacity per-ring event capacity (workers and
     *     dispatcher shards each get their own ring of this size).
     * @param num_dispatchers dispatcher-shard slots (1 for the
     *     unsharded runtime).
     */
    MetricsRegistry(int num_workers, size_t trace_capacity,
                    int num_dispatchers = 1);

    /** Telemetry slot of worker @p i. */
    WorkerTelemetry &worker(int i) { return *workers_[static_cast<size_t>(i)]; }

    /** @copydoc worker(int) */
    const WorkerTelemetry &worker(int i) const
    {
        return *workers_[static_cast<size_t>(i)];
    }

    /** Dispatcher slot of shard 0 (the only one when unsharded). */
    DispatcherTelemetry &dispatcher() { return *dispatchers_[0]; }

    /** Dispatcher slot of shard @p shard. */
    DispatcherTelemetry &
    dispatcher(int shard)
    {
        return *dispatchers_[static_cast<size_t>(shard)];
    }

    /** Client/load-generator slot. */
    ClientTelemetry &client() { return client_; }

    /** Number of worker slots. */
    int num_workers() const { return static_cast<int>(workers_.size()); }

    /** Number of dispatcher-shard slots. */
    int
    num_dispatchers() const
    {
        return static_cast<int>(dispatchers_.size());
    }

    /**
     * Snapshot every counter and histogram without stopping writers.
     * Safe from any thread; see the header comment for the consistency
     * contract.
     */
    MetricsSnapshot snapshot() const;

    /**
     * Drain all trace rings (workers + dispatcher) into @p out, merged
     * and sorted by timestamp. Single consumer; callable while the
     * runtime runs, though a post-run drain sees a complete window.
     * @return number of events appended.
     */
    size_t drain_trace(std::vector<TraceEvent> &out);

  private:
    std::vector<std::unique_ptr<WorkerTelemetry>> workers_;
    std::vector<std::unique_ptr<DispatcherTelemetry>> dispatchers_;
    ClientTelemetry client_;
};

/** Summarize one histogram into StageStats (exact mean, bucket p99). */
StageStats summarize(const CycleHistogram &hist);

} // namespace tq::telemetry

#endif // TQ_TELEMETRY_METRICS_H
