/**
 * @file
 * The TQ runtime: dispatcher tier + worker threads (paper Figure 3).
 *
 * Datapath, matching the paper:
 *   client -> submit() -> RX queue -> dispatcher (JSQ+MSQ over the
 *   workers' counter cache lines) -> per-worker dispatch ring -> worker
 *   scheduler (PS quanta via forced multitasking) -> per-worker TX ring
 *   -> drain_responses() at the client.
 *
 * The dispatcher never touches job payloads beyond forwarding (blind
 * scheduling needs no parsing, section 3.2) and never sees responses.
 *
 * Sharded dispatch (DESIGN.md §4g): with `num_dispatchers = N > 1` the
 * datapath gains a front tier. The workers split into N contiguous
 * disjoint subsets (common/shard.h); each subset is owned by one
 * dispatcher shard with its own RX queue, packed JSQ view, RNG and
 * counters, so the per-job dispatch work scales with shard count
 * instead of serializing on one core. submit() steers each request
 * with a rotated approximate JSQ over the shards' advertised load
 * lines (shard_front.h), and an idle shard steals a bounded batch from
 * the most-loaded sibling's RX queue — the queues are MPMC, so a steal
 * is an ordinary atomic claim and every job is popped exactly once.
 * N = 1 (the default) is the paper's single-dispatcher runtime and
 * structurally bypasses all of the above: one shard owning every
 * worker, no load publishing, no front-tier pick, no stealing.
 *
 * Lifecycle (runtime/lifecycle.h; DESIGN.md "Lifecycle & shutdown"):
 * the runtime moves Created -> Running -> Draining -> Stopping ->
 * Stopped. drain() finishes queued and in-flight work within a
 * deadline; stop() is drain() with the configured deadline, after which
 * leftovers are abandoned (counted) and blocked ring pushes drop
 * (counted). Both are idempotent and safe to call from any thread. The
 * last dispatcher shard to exit sets lifecycle dispatcher_done;
 * stealing happens only in Running, so a draining shard's final RX
 * sweep races nothing.
 *
 * On this reproduction's host the threads timeshare cores, so absolute
 * throughput is not meaningful — functional behaviour, preemption and
 * counter semantics are; capacity curves come from tq::sim (DESIGN.md).
 */
#ifndef TQ_RUNTIME_RUNTIME_H
#define TQ_RUNTIME_RUNTIME_H

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/dispatch_view.h"
#include "common/rng.h"
#include "common/shard.h"
#include "conc/cacheline.h"
#include "conc/mpmc_queue.h"
#include "runtime/config.h"
#include "runtime/lifecycle.h"
#include "runtime/quantum.h"
#include "runtime/quantum_controller.h"
#include "runtime/shard_front.h"
#include "runtime/worker.h"
#include "telemetry/telemetry.h"

namespace tq::runtime {

/**
 * One dispatcher shard's always-on counters, alone on one line.
 *
 * `dispatched_total` is bumped per job; before this struct existed the
 * three atomics sat directly next to the LifecycleControl member, so
 * every dispatched job invalidated the lifecycle line all workers poll
 * at every loop boundary — real false sharing on the hottest read path
 * (docs/cache_line_analysis.md). Writer: the owning shard's dispatcher
 * thread (plus the drain()/stop() caller for `abandoned`, strictly
 * after the dispatchers have exited); readers: cold stats accessors.
 */
struct alignas(kCacheLineSize) DispatcherCounters
{
    /** Requests forwarded to workers (per-job increment). */
    std::atomic<uint64_t> dispatched_total{0};

    /** Worker-ring-full spin iterations (backpressure gauge). */
    std::atomic<uint64_t> full_spins{0};

    /** Jobs dropped by overflow policy or left queued at a forced stop. */
    std::atomic<uint64_t> abandoned{0};

    char pad[kCacheLineSize - 3 * sizeof(std::atomic<uint64_t>)];
};

static_assert(sizeof(DispatcherCounters) == kCacheLineSize &&
                  alignof(DispatcherCounters) == kCacheLineSize,
              "dispatcher counters must own exactly one line");

/**
 * One dispatcher shard: its RX queue, worker subset, dispatch-local
 * JSQ state, counters and advertised load line. Each shard is a
 * separate heap allocation (unique_ptr in the Runtime), so two shards'
 * members can never share a cache line regardless of allocator
 * behaviour; within a shard, the padded `counters` and `load_line`
 * members own their lines and everything above them is touched only by
 * the owning dispatcher thread (plus construction).
 *
 * The unsharded runtime is exactly one of these owning every worker.
 */
struct DispatcherShard
{
    DispatcherShard(const RuntimeConfig &cfg, int shard_index)
        : index(shard_index),
          span(shard_span(cfg.num_workers, cfg.num_dispatchers,
                          shard_index)),
          rx(cfg.ring_capacity),
          view(static_cast<size_t>(span.count > 0 ? span.count : 1)),
          readers(static_cast<size_t>(span.count)),
          rng(cfg.seed + static_cast<uint64_t>(shard_index))
    {
    }

    const int index;      ///< shard id in [0, num_dispatchers)
    const ShardSpan span; ///< owned workers [first, first + count)

    /** This shard's request queue. MPMC: many submitters; consumers
     *  are the owning dispatcher, stealing siblings (Running only) and
     *  the final drain sweep (after all threads joined). */
    MpmcQueue<Request> rx;

    /** Dispatcher-local packed view over the owned span
     *  (common/dispatch_view.h): refreshed from the workers' counter
     *  lines once per RX batch, then bumped incrementally as the
     *  batch's requests are assigned — per-request work inside a batch
     *  never touches a shared cache line, whatever the policy. Indices
     *  are span-local. */
    DispatchView view;

    /** Dispatcher-private wrap state; no other thread touches it. */
    std::vector<WorkerStatsReader> readers;

    /** The owned workers' stats lines as one contiguous pointer array
     *  so the per-batch refresh walks pointers, not unique_ptr<Worker>
     *  double indirections. Filled once at construction. */
    std::vector<WorkerStatsLine *> stat_lines;

    /** Randomized policies; seeded cfg.seed + index. */
    Rng rng;

    /** Owned-span queue-length sum as of the last view refresh
     *  (dispatcher-local; feeds the advertised load and the
     *  am-I-idle steal trigger). */
    uint64_t queue_sum = 0;

    /** Padded per-shard hot counters (own line, see above). */
    DispatcherCounters counters;

    /** Advertised aggregate load for the front tier and steal victim
     *  selection (own line; writer: this shard's dispatcher). */
    ShardLoadLine load_line;
};

/** A running TQ instance. */
class Runtime
{
  public:
    /**
     * @param handler application job body, executed inside task
     *     coroutines with probes armed (must call tq_probe() directly or
     *     through instrumented code to be preemptable).
     */
    Runtime(RuntimeConfig cfg, Handler handler);

    /** Equivalent to stop(). */
    ~Runtime();

    Runtime(const Runtime &) = delete;
    Runtime &operator=(const Runtime &) = delete;

    /** Launch dispatcher and worker threads (Created -> Running). */
    void start();

    /**
     * Quiesce then join with the configured deadline: equivalent to
     * drain(config().stop_deadline_sec) with the result ignored.
     * Idempotent and thread-safe.
     */
    void stop();

    /**
     * Graceful shutdown: stop accepting work, finish everything already
     * queued or in flight, then join all threads. If @p deadline_sec
     * elapses first, escalate to a forced stop: queued jobs are
     * abandoned and blocked TX pushes dropped, all of it counted
     * (abandoned_jobs(), dropped_responses()). Idempotent and
     * thread-safe; concurrent callers serialize and agree on the result.
     *
     * @return true when the shutdown was clean (nothing abandoned or
     *     dropped over the runtime's whole life).
     */
    bool drain(double deadline_sec);

    /** Current lifecycle phase. */
    Lifecycle lifecycle() const { return lc_.phase(); }

    /**
     * Submit one request (thread-safe; multiple clients allowed). With
     * more than one dispatcher shard the request is steered by the
     * front-tier JSQ over the shards' advertised load lines, rotated
     * by a submitter-local counter so tied (e.g. idle) shards receive
     * round-robin traffic (common/shard.h pick_min_rotated).
     * @return false when the target RX queue is full or the runtime is
     *     past Running (draining or stopped) — the client should back
     *     off or give up.
     */
    bool submit(const Request &req);

    /**
     * Submit one request directly to dispatcher shard @p shard,
     * bypassing the front-tier pick (affinity override; also how the
     * sharding tests construct deliberately skewed backlogs).
     * Same lifecycle/full semantics as submit().
     */
    bool submit_to_shard(const Request &req, int shard);

    /**
     * Collect available responses from every worker's TX ring into
     * @p out: what each ring had published when this call loaded its
     * producer index (once per ring per call). Single consumer. A
     * cycle-counter read the caller takes after the call returns is
     * ordered after those loads, so it never precedes a collected
     * response's done_cycles. @return number collected.
     */
    size_t drain_responses(std::vector<Response> &out);

    /**
     * Dispatched-minus-finished per worker. Thread-safe: external
     * callers have their own wrap-tracking stats readers and never touch
     * the dispatchers' JSQ views.
     */
    std::vector<uint64_t> queue_lengths();

    /** Total requests forwarded by the dispatcher tier. */
    uint64_t
    dispatched() const
    {
        uint64_t n = 0;
        for (const auto &sh : shards_)
            n += sh->counters.dispatched_total.load(
                std::memory_order_relaxed);
        return n;
    }

    /** Requests forwarded by dispatcher shard @p shard (includes jobs
     *  it stole from siblings — the forwarding shard counts the job). */
    uint64_t
    dispatched(int shard) const
    {
        return shards_[static_cast<size_t>(shard)]
            ->counters.dispatched_total.load(std::memory_order_relaxed);
    }

    /** Dispatcher shards in this runtime (config().num_dispatchers). */
    int
    num_dispatcher_shards() const
    {
        return static_cast<int>(shards_.size());
    }

    /** Dispatcher shard @p shard owns workers [first, first+count). */
    ShardSpan
    shard_workers(int shard) const
    {
        return shards_[static_cast<size_t>(shard)]->span;
    }

    /** Jobs accepted but never finished: dropped by the dispatcher's
     *  overflow policy, still queued at a forced stop, or admitted to a
     *  worker and abandoned there. */
    uint64_t abandoned_jobs() const;

    /** Responses dropped by the workers' TX overflow policy. */
    uint64_t dropped_responses() const;

    /** Worker TX-ring-full spin iterations (backpressure gauge). */
    uint64_t tx_ring_full_spins() const;

    /** Dispatcher ring-full spin iterations (backpressure gauge). */
    uint64_t
    dispatch_ring_full_spins() const
    {
        uint64_t n = 0;
        for (const auto &sh : shards_)
            n += sh->counters.full_spins.load(std::memory_order_relaxed);
        return n;
    }

    const RuntimeConfig &config() const { return cfg_; }

    /** Direct access for tests and examples. */
    Worker &worker(int i) { return *workers_[static_cast<size_t>(i)]; }

    /**
     * This runtime's telemetry registry (counters, stage histograms,
     * trace rings). Always present; in `-DTQ_TELEMETRY=OFF` builds the
     * hot paths record nothing, so everything reads zero.
     */
    telemetry::MetricsRegistry &metrics() { return *metrics_; }

    /**
     * Snapshot all metrics without stopping the runtime, folding in the
     * wrap-tolerant cumulative quanta read from each worker's stats
     * cache line (WorkerStatsReader::read_total_quanta()) and the
     * backpressure counters (which record in every build).
     *
     * Thread-safe: concurrent snapshots serialize on an internal mutex,
     * and running workers/dispatchers are never disturbed.
     */
    telemetry::MetricsSnapshot telemetry_snapshot();

    /**
     * One tick of the adaptive quantum controller (DESIGN.md §4i),
     * piggybacked on the telemetry snapshot path: digest a snapshot's
     * per-class observations through the blind control law
     * (runtime/quantum_controller.h) and republish the per-class
     * quantum table. Workers resolve budgets at admission, so new
     * quanta reach jobs admitted after this call, never a job
     * mid-service. Call it at snapshot rate (hertz) — it is a low-rate
     * loop by design, never on a data path.
     *
     * @return true when any class budget changed. Always false — the
     *     static fallback — when adaptive_quantum is off, the runtime
     *     is on the fixed-quantum path, or the build is
     *     -DTQ_TELEMETRY=OFF (no observations exist; the table keeps
     *     its configured values).
     */
    bool adapt_quanta();

    /**
     * The quantum currently published for @p job_class, in
     * microseconds: the adapted table value in per-class mode, or
     * config().quantum_us on the fixed path.
     */
    double class_quantum_us(int job_class) const;

    /**
     * Drain every trace ring into @p out, merged and sorted by
     * timestamp (see MetricsRegistry::drain_trace()). Single consumer.
     * @return events appended.
     */
    size_t drain_trace(std::vector<telemetry::TraceEvent> &out);

  private:
    friend struct ::tq::LayoutAudit;

    void dispatcher_main(int shard_index);
    void dispatch_batch(DispatcherShard &sh, Request *reqs, size_t n);
    int pick_shard();
    void refresh_dispatch_views(DispatcherShard &sh);
    bool push_request(DispatcherShard &sh, int target, const Request &req);
    void publish_load(DispatcherShard &sh, uint64_t just_pushed);
    size_t steal_into(DispatcherShard &sh, Request *buf, size_t buf_len);

    RuntimeConfig cfg_;
    std::unique_ptr<telemetry::MetricsRegistry> metrics_;

    /** Per-class quantum table (DESIGN.md §4i); null on the fixed path
     *  (empty class_quantum_us, no adaptation, or FCFS). Declared
     *  before workers_: the workers capture the raw pointer. */
    std::unique_ptr<ClassQuantumTable> quantum_table_;
    /** Adaptive control law; constructed only in telemetry builds with
     *  adaptive_quantum set. Guarded by stats_mu_ (snapshot-rate). */
    std::unique_ptr<QuantumController> controller_;

    std::vector<std::unique_ptr<Worker>> workers_;

    /** The dispatcher tier; exactly one entry when unsharded. */
    std::vector<std::unique_ptr<DispatcherShard>> shards_;

    /** Per-worker assigned counts. Writer: the owning shard's
     *  dispatcher; readers: queue_lengths() callers (relaxed — the JSQ
     *  view is approximate by design, paper section 4). Workers are
     *  owned by exactly one shard, so each slot has one writer. */
    std::unique_ptr<std::atomic<uint64_t>[]> assigned_;

    /** External readers' wrap state, guarded by stats_mu_. */
    std::vector<WorkerStatsReader> query_readers_;
    std::vector<WorkerStatsReader> snapshot_readers_;
    std::mutex stats_mu_;

    /** Read-hot by every thread, written almost never; owns its line
     *  (LifecycleControl is alignas(kCacheLineSize)). */
    LifecycleControl lc_;
    std::atomic<int> live_threads_{0};
    /** Dispatcher shards still running; the last one out sets
     *  lc_.dispatcher_done (workers key their drain exit on it). */
    std::atomic<int> dispatchers_live_{0};
    std::vector<std::thread> threads_;

    /** Serializes start/drain/stop; protects started_, threads_,
     *  drained_clean_. */
    std::mutex lifecycle_mu_;
    bool started_ = false;
    bool drained_clean_ = true;
};

} // namespace tq::runtime

#endif // TQ_RUNTIME_RUNTIME_H
