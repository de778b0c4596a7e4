/**
 * @file
 * TQ worker: a scheduler loop multiplexing task coroutines in quanta
 * (paper sections 3.2, 4).
 *
 * Each worker owns a fixed set of task coroutines, an SPSC dispatch ring
 * filled by the dispatcher, and an SPSC TX ring it pushes responses to
 * (responses bypass the dispatcher, as in the paper). The scheduler
 * keeps idle/busy task lists; before resuming a task it binds the
 * probe runtime's call_the_yield to that task's coroutine and arms the
 * quantum, so compiler-style probes inside the handler preempt the task
 * back to the scheduler.
 *
 * Admissions drain the dispatch ring in batches (SpscRing::pop_n — one
 * shared-index acquire/release pair per batch). Run-queue selection and
 * the per-class ledger are the per-core scheduling core shared with the
 * simulator (common/run_queue.h): PS rotates a FIFO ring, FCFS runs its
 * front to completion, LAS pops the (quanta, admit_seq) minimum — the
 * fewest serviced quanta, FIFO among equals.
 *
 * The loop is lifecycle-aware (runtime/lifecycle.h): in Draining it
 * finishes admitted jobs and exits once the dispatcher is done and the
 * dispatch ring is empty; in Stopping it abandons what is left. The TX
 * push is bounded backpressure — spin with a stop check, then a counted
 * drop — so a collector that stops draining can never wedge shutdown.
 */
#ifndef TQ_RUNTIME_WORKER_H
#define TQ_RUNTIME_WORKER_H

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/run_queue.h"
#include "conc/spsc_ring.h"
#include "coro/coroutine.h"
#include "runtime/config.h"
#include "runtime/lifecycle.h"
#include "runtime/quantum.h"
#include "runtime/request.h"
#include "runtime/worker_stats.h"
#include "telemetry/telemetry.h"

namespace tq::runtime {

/** Application job handler; runs inside a task coroutine, probed. */
using Handler = std::function<uint64_t(const Request &)>;

/** One worker core's scheduler and execution state. */
class Worker
{
  public:
    /**
     * @param id worker index (trace thread id).
     * @param cfg runtime configuration (quantum, policies, ring sizes).
     * @param handler application job body.
     * @param telem this worker's telemetry slot; recording happens only
     *     in TQ_TELEMETRY builds, but the slot is always wired so
     *     snapshots work in every configuration.
     * @param lc the runtime's shared lifecycle control block; read at
     *     loop boundaries and inside every backpressure loop.
     * @param quanta the runtime's shared per-class quantum table, or
     *     nullptr for the fixed-quantum path (empty class_quantum_us and
     *     no adaptation): with no table the worker carries zero
     *     per-class state and behaves exactly as before the table
     *     existed (DESIGN.md §4i, byte-identical fallback).
     */
    Worker(int id, const RuntimeConfig &cfg, Handler handler,
           telemetry::WorkerTelemetry *telem, const LifecycleControl *lc,
           const ClassQuantumTable *quanta = nullptr);

    /** Dispatcher-side input ring (single producer: the dispatcher). */
    SpscRing<Request> &dispatch_ring() { return dispatch_ring_; }

    /** Response output ring (single consumer: the client/collector). */
    SpscRing<Response> &tx_ring() { return tx_ring_; }

    /** The shared statistics cache line (paper section 4). */
    WorkerStatsLine &stats_line() { return stats_; }

    /** Jobs admitted but not finished (readable from any thread). */
    size_t
    active_jobs() const
    {
        return busy_count_.load(std::memory_order_relaxed);
    }

    /** TX-ring-full spin iterations (backpressure pressure gauge). */
    uint64_t
    tx_full_spins() const
    {
        return tx_full_spins_.load(std::memory_order_relaxed);
    }

    /** Responses dropped by the overflow policy (force-stop with a full
     *  TX ring, or a push that exceeded cfg.push_spin_limit). */
    uint64_t
    dropped_responses() const
    {
        return dropped_responses_.load(std::memory_order_relaxed);
    }

    /** Jobs abandoned at forced shutdown: admitted-but-unfinished tasks
     *  plus requests still in the dispatch ring when the worker exited. */
    uint64_t
    abandoned_jobs() const
    {
        return abandoned_jobs_.load(std::memory_order_relaxed);
    }

    /**
     * Thread body: schedule until the lifecycle either drains this
     * worker dry (Draining + dispatcher done + empty ring + no busy
     * tasks) or force-stops it (Stopping; leftovers are counted
     * abandoned).
     */
    void run();

    /**
     * Count still-admitted tasks and dispatch-ring leftovers as
     * abandoned. Idempotent. run() calls it on exit, and the runtime
     * calls it once more after joining every thread: the dispatcher can
     * push into this ring after a force-stopped worker's own final
     * sweep, and that request must not vanish from the accounting.
     * Safe only from the worker thread or after it has been joined.
     */
    void abandon_remaining();

    /** Worker index within the runtime. */
    int id() const { return id_; }

    /** Grants the starvation guard forced ahead of the policy order
     *  (0 on the fixed-quantum path or with the guard disabled). */
    uint64_t
    starvation_promotions() const
    {
        return starvation_promotions_.load(std::memory_order_relaxed);
    }

    /** One class's scheduling account (per-class mode only). Plain
     *  fields, written only by the worker thread: read them after the
     *  thread has been joined (tests, post-drain reports). */
    struct ClassSched
    {
        int64_t deficit = 0;          ///< banked cycles, clamped to
                                      ///< +-deficit_clamp (DESIGN.md §4i)
        uint64_t skipped = 0;         ///< consecutive grants that went to
                                      ///< other classes while runnable
        uint32_t runnable = 0;        ///< admitted, unfinished tasks
        uint64_t grants = 0;          ///< slices granted
        uint64_t granted_cycles = 0;  ///< sum of armed budgets (effective-
                                      ///< quantum parity with the sim)
    };

    /** Class @p slot's account. Zeros on the fixed-quantum path. Safe
     *  only from the worker thread or after it has been joined. */
    ClassSched
    class_sched(int slot) const
    {
        if (!ledger_)
            return {};
        const int s = ClassQuantumTable::slot_of(slot);
        const auto &a = ledger_->account(s);
        const GrantTally &t = tally_[static_cast<size_t>(s)];
        return {a.deficit, a.skipped, a.runnable, t.grants, t.cycles};
    }

  private:
    /** One task coroutine slot and its current job's bookkeeping. */
    struct Task
    {
        Request req;               ///< job currently bound to the slot
        uint64_t result = 0;       ///< handler return value
        uint32_t quanta = 0;       ///< quanta consumed by the current job
        uint64_t admit_seq = 0;    ///< admission order (LAS FIFO ties)
        Cycles budget_cycles = 0;  ///< quantum resolved at admission (one
                                   ///< table load; the probe deadline
                                   ///< compares against this precomputed
                                   ///< cycle budget, DESIGN.md §4i)
        uint8_t cls = 0;           ///< quantum-table slot of req.job_class
        Cycles service_cycles = 0; ///< accumulated slice time (telemetry)
        bool started = false;      ///< first slice already ran
        bool has_job = false;      ///< a job is admitted to this slot
        bool job_done = false;     ///< handler returned; response pending
        std::unique_ptr<Coroutine> coro; ///< persistent task coroutine
    };

    /** LAS order over (quanta, admit_seq): the fewest serviced quanta
     *  first, admission order among equals. Neither field changes while
     *  the task is queued. */
    struct TaskOrder
    {
        static bool
        before(const Task *a, const Task *b)
        {
            return a->quanta < b->quanta ||
                   (a->quanta == b->quanta && a->admit_seq < b->admit_seq);
        }
        static int cls(const Task *t) { return t->cls; }
    };

    /** Grants per class, for class_sched(); per-class mode only. */
    struct GrantTally
    {
        uint64_t grants = 0;
        Cycles cycles = 0;
    };

    /** Admission batch: enough to refill every default task slot in one
     *  ring round trip without outgrowing the stack buffer. */
    static constexpr size_t kAdmitBatch = 32;

    void poll_admissions();
    void run_one_slice();
    void complete(Task *task);
    bool push_response(const Response &resp);

    /** Pop the next task per policy, or the most-starved class's best
     *  task when the starvation guard fires (per-class mode only). */
    Task *select_task();

    int id_;
    const RuntimeConfig cfg_;
    Handler handler_;
    telemetry::WorkerTelemetry *telem_;
    const LifecycleControl *lc_;
    Cycles quantum_cycles_;

    /** Per-class scheduling (DESIGN.md §4i). The table and ledger are
     *  unset, and tally_ untouched, on the fixed path (no table, or
     *  FCFS where probes never fire): then run_one_slice() arms the
     *  same quantum_cycles_ budget as before the table existed and
     *  reads the clock no extra time. */
    const ClassQuantumTable *quanta_table_;
    std::optional<ClassLedger<Cycles, int64_t>> ledger_;
    GrantTally tally_[kMaxQuantumClasses] = {};

    SpscRing<Request> dispatch_ring_;
    SpscRing<Response> tx_ring_;
    WorkerStatsLine stats_;

    std::vector<std::unique_ptr<Task>> tasks_;
    std::vector<Task *> idle_;
    /** Admitted, unfinished, not running: FIFO ring (PS/FCFS) or the
     *  (quanta, admit_seq) min-heap (LAS). */
    RunQueue<Task *, TaskOrder> runq_;
    uint64_t admit_seq_next_ = 0;
    std::atomic<size_t> busy_count_{0};

    // Backpressure / shutdown accounting. Always recorded (unlike the
    // TQ_TELEMETRY counters): every touch is on the cold overflow or
    // shutdown path, never on the per-job fast path.
    std::atomic<uint64_t> tx_full_spins_{0};
    std::atomic<uint64_t> dropped_responses_{0};
    std::atomic<uint64_t> abandoned_jobs_{0};
    /** Starvation-guard force-promotions (cold path; always recorded
     *  so the guard is observable in -DTQ_TELEMETRY=OFF builds too). */
    std::atomic<uint64_t> starvation_promotions_{0};
};

} // namespace tq::runtime

#endif // TQ_RUNTIME_WORKER_H
