#include "runtime/worker.h"

#include <thread>

#include "common/check.h"
#include "common/cycles.h"
#include "conc/single_writer.h"
#include "fault/fault.h"
#include "probe/probe.h"

namespace tq::runtime {

static_assert(kMaxQuantumClasses == telemetry::kMaxTrackedClasses,
              "quantum-table slots and per-class telemetry slots must "
              "stay in one-to-one correspondence");

Worker::Worker(int id, const RuntimeConfig &cfg, Handler handler,
               telemetry::WorkerTelemetry *telem, const LifecycleControl *lc,
               const ClassQuantumTable *quanta)
    : id_(id),
      cfg_(cfg),
      handler_(std::move(handler)),
      telem_(telem),
      lc_(lc),
      quantum_cycles_(ns_to_cycles(cfg.quantum_us * 1e3)),
      // FCFS never arms probes, so per-class budgets cannot apply: the
      // table is dropped and the fixed path runs (DESIGN.md §4i).
      quanta_table_(cfg.work == WorkPolicy::Fcfs ? nullptr : quanta),
      dispatch_ring_(cfg.ring_capacity),
      tx_ring_(cfg.ring_capacity),
      runq_(cfg.work)
{
    TQ_CHECK(cfg_.tasks_per_worker > 0);
    TQ_CHECK(handler_);
    TQ_CHECK(lc_ != nullptr);
    if (quanta_table_ != nullptr)
        ledger_.emplace(
            kMaxQuantumClasses,
            static_cast<int64_t>(ns_to_cycles(cfg.deficit_clamp_us * 1e3)),
            cfg.starvation_promote_after);
    for (int t = 0; t < cfg_.tasks_per_worker; ++t) {
        auto task = std::make_unique<Task>();
        Task *raw = task.get();
        // Persistent coroutine body: serve jobs forever, yielding back to
        // the scheduler after each one (paper section 4: task coroutines
        // are created once and recycled between idle and busy states).
        task->coro = std::make_unique<Coroutine>([this, raw](Coroutine &self) {
            for (;;) {
                if (!raw->has_job) {
                    self.yield();
                    continue;
                }
                raw->result = handler_(raw->req);
                raw->has_job = false;
                raw->job_done = true;
                self.yield();
            }
        });
        idle_.push_back(raw);
        tasks_.push_back(std::move(task));
    }
}

void
Worker::poll_admissions()
{
    // Pop straight into idle task slots: one copy per request and no
    // staging buffer to construct per poll (idle polls included). The
    // producer index is acquired only when the consumer's cached
    // snapshot of it runs out (SpscRing::pop_into), so a burst still
    // costs one shared-index round trip.
    while (!idle_.empty()) {
        Task *task = idle_.back();
        if (!dispatch_ring_.pop_into(task->req))
            return; // ring drained
        idle_.pop_back();
        task->quanta = 0;
        task->admit_seq = admit_seq_next_++;
        task->service_cycles = 0;
        task->started = false;
        task->job_done = false;
        task->has_job = true;
        if (ledger_) {
            // Quantum resolution point (DESIGN.md §4i): one relaxed
            // table load per job, here at admission. Every later
            // probe/yield decision compares against the Task's
            // precomputed cycle budget — a controller update never
            // reaches a job mid-service.
            const int slot = ClassQuantumTable::slot_of(task->req.job_class);
            task->cls = static_cast<uint8_t>(slot);
            task->budget_cycles = quanta_table_->load(slot);
            ledger_->admit(slot);
        } else {
            task->budget_cycles = quantum_cycles_;
        }
        runq_.push(task);
        single_writer_add(busy_count_, 1);
#if defined(TQ_TELEMETRY_ENABLED)
        single_writer_add(telem_->counters.admitted, 1);
#endif
    }
}

Worker::Task *
Worker::select_task()
{
    if (ledger_) {
        // Starvation guard (DESIGN.md §4i): a class passed over for
        // starvation_promote_after consecutive grants while runnable is
        // force-promoted ahead of the policy order. The scan is eight
        // worker-private loads; the extract below is the cold path.
        const int starved = ledger_->starved();
        Task *task = nullptr;
        if (starved >= 0 && runq_.extract_class(starved, task)) {
            single_writer_add(starvation_promotions_, 1);
            return task;
        }
    }
    return runq_.pop();
}

void
Worker::run_one_slice()
{
    TQ_FAULT_SITE(WorkerSlice);
    Task *task = select_task();

    // The paper's call_the_yield binding: before resuming, point the
    // thread-local yield hook at this task's coroutine so probes in the
    // handler switch back here.
    bind_yield(
        [](void *coro) { static_cast<Coroutine *>(coro)->yield(); },
        task->coro.get());
    // Budget for this grant: the admission-resolved quantum, deficit-
    // adjusted in per-class mode (the grant also ages the other
    // classes' starvation clocks). On the fixed path budget_cycles is
    // exactly quantum_cycles_, so the armed deadline is unchanged.
    Cycles budget = task->budget_cycles;
    if (ledger_) {
        budget = ledger_->grant(task->cls, task->budget_cycles);
        ++tally_[task->cls].grants;
        tally_[task->cls].cycles += budget;
    }
#if defined(TQ_TELEMETRY_ENABLED)
    bind_telemetry(telem_, task->req.id);
    // One clock read per slice edge: slice_start arms the deadline and
    // stamps QuantumStart; slice_end (below) ends the slice and, when
    // the job is done, is its Response::done_cycles and JobFinished
    // stamp.
    const Cycles slice_start = rdcycles();
    if (!task->started) {
        task->started = true;
        // Queueing stage: dispatcher handoff -> first quantum start.
        telem_->queue_cycles.add(slice_start - task->req.dispatch_cycles);
    }
    single_writer_add(telem_->counters.quanta, 1);
    telem_->trace.record_at(slice_start, telemetry::EventKind::QuantumStart,
                            task->req.id, task->quanta);
    if (ledger_) {
        single_writer_add(telem_->class_grants[task->cls], 1);
        single_writer_add(telem_->class_granted_cycles[task->cls], budget);
    }
#else
    // Deficit accounting is scheduler state, not telemetry: it needs
    // the slice duration in every build, but only in per-class mode —
    // the fixed path stays free of extra rdcycles() reads.
    Cycles slice_start = 0;
    if (ledger_)
        slice_start = rdcycles();
#endif
    if (cfg_.work == WorkPolicy::Fcfs) {
        disarm_quantum(); // FCFS: probes never fire
    } else {
#if defined(TQ_TELEMETRY_ENABLED)
        arm_quantum_at(slice_start, budget);
#else
        arm_quantum(budget); // a fresh read: the fixed path took none
#endif
    }
    task->coro->resume();
    disarm_quantum();
#if defined(TQ_TELEMETRY_ENABLED)
    const Cycles slice_end = rdcycles();
    const Cycles slice = slice_end - slice_start;
    task->service_cycles += slice;
    if (!task->job_done && cfg_.work != WorkPolicy::Fcfs) {
        // Preemption overhead: how far the slice ran past the armed
        // deadline before a probe fired and the switch-out completed.
        telem_->preempt_cycles.add(slice > budget ? slice - budget : 0);
    }
#else
    Cycles slice = 0;
    if (ledger_)
        slice = rdcycles() - slice_start;
#endif
    if (ledger_) {
        // Deficit settlement: a class that completes inside its budget
        // accrues credit (its next grants run a little longer); one
        // whose probes overrun the deadline goes into debt and pays the
        // overshoot back (DESIGN.md §4i invariants).
        ledger_->settle(task->cls, budget, slice);
#if defined(TQ_TELEMETRY_ENABLED)
        telem_->class_deficit[task->cls].store(
            ledger_->account(task->cls).deficit, std::memory_order_relaxed);
#endif
    }

    if (task->job_done) {
#if defined(TQ_TELEMETRY_ENABLED)
        complete(task, slice_end);
#else
        complete(task, rdcycles());
#endif
    } else {
        // Preempted: account the serviced quantum and requeue — tail of
        // the PS ring, or LAS reinsert with the bumped quanta.
        ++task->quanta;
        single_writer_add(stats_.current_quanta, 1);
        single_writer_add(stats_.total_quanta, 1);
        runq_.push(task);
    }
}

bool
Worker::push_response(const Response &resp)
{
    // Response leaves directly from the worker (paper section 3.2). If
    // the TX ring is full the collector is behind: bounded backpressure —
    // spin with a stop check, then a counted drop — so a collector that
    // stopped draining can never wedge this thread (or shutdown) forever.
    TQ_FAULT_SITE(WorkerComplete);
    const size_t limit = cfg_.push_spin_limit;
    size_t spins = 0;
    while (!tx_ring_.push(resp)) {
        if (lc_->force_stop() || (limit != 0 && spins >= limit)) {
            dropped_responses_.fetch_add(1, std::memory_order_relaxed);
            return false;
        }
        ++spins;
        tx_full_spins_.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::yield();
    }
    return true;
}

void
Worker::complete(Task *task, Cycles done)
{
    Response resp;
    resp.id = task->req.id;
    resp.gen_cycles = task->req.gen_cycles;
    resp.arrival_cycles = task->req.arrival_cycles;
    resp.done_cycles = done;
    resp.job_class = task->req.job_class;
    resp.worker = id_;
    resp.result = task->result;
    resp.fanout = task->req.fanout;
    resp.shard = task->req.shard;
    push_response(resp);

    // Publish to the dispatcher's cache line even when the response was
    // dropped: the job *did* finish, and the JSQ view must not leak
    // queue length.
    single_writer_add(stats_.finished, 1);
    single_writer_sub(stats_.current_quanta, task->quanta);
    if (ledger_)
        ledger_->retire(task->cls);
#if defined(TQ_TELEMETRY_ENABLED)
    single_writer_add(telem_->counters.finished, 1);
    telem_->service_cycles.add(task->service_cycles);
    telem_->trace.record_at(resp.done_cycles,
                            telemetry::EventKind::JobFinished, task->req.id);
    if (ledger_) {
        // Per-class controller feed (DESIGN.md §4i): attained service
        // and sojourn keyed by the quantum-table slot.
        single_writer_add(telem_->class_finished[task->cls], 1);
        telem_->class_service[task->cls].add(task->service_cycles);
        telem_->class_sojourn[task->cls].add(resp.done_cycles -
                                             task->req.arrival_cycles);
    }
#endif
    single_writer_sub(busy_count_, 1);
    idle_.push_back(task);
}

void
Worker::abandon_remaining()
{
    // Clear the run queue so a second sweep only sees what arrived
    // since — the tasks' coroutines are suspended mid-job and are never
    // resumed again; tasks_ still owns them for destruction.
    const size_t queued = runq_.size();
    uint64_t abandoned = static_cast<uint64_t>(queued);
    busy_count_.fetch_sub(queued, std::memory_order_relaxed);
    runq_.clear([this](Task *task) {
        if (ledger_)
            ledger_->retire(task->cls);
    });
    while (dispatch_ring_.pop())
        ++abandoned;
    if (abandoned != 0)
        abandoned_jobs_.fetch_add(abandoned, std::memory_order_relaxed);
}

void
Worker::run()
{
    int empty_polls = 0;
    for (;;) {
        TQ_FAULT_SITE(WorkerPoll);
        const Lifecycle phase = lc_->phase();
        if (phase >= Lifecycle::Stopping)
            break;
        poll_admissions();
        if (!runq_.empty()) {
            empty_polls = 0;
            run_one_slice();
            continue;
        }
        // Idle. Fully drained once the dispatcher has forwarded its last
        // request (acquire pairs with its release store) and nothing is
        // left in the ring.
        if (phase == Lifecycle::Draining &&
            lc_->dispatcher_done.load(std::memory_order_acquire) &&
            dispatch_ring_.empty())
            break;
        // On dedicated cores this would busy-poll; on shared hosts
        // let other threads (dispatcher, client) make progress.
        if (++empty_polls >= 8) {
            empty_polls = 0;
            std::this_thread::yield();
        } else {
            cpu_relax();
        }
    }
    abandon_remaining();
}

} // namespace tq::runtime
