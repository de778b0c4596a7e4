#include "runtime/runtime.h"

#include <algorithm>

#include "common/check.h"
#include "common/cycles.h"
#include "conc/single_writer.h"
#include "fault/fault.h"
#include "telemetry/events.h"

namespace tq::runtime {

namespace {

/**
 * Sharded-mode dispatch backpressure (num_dispatchers > 1 only): a
 * shard stops forwarding RX -> worker rings once its outstanding
 * (assigned-but-unfinished) jobs reach this many per owned worker,
 * keeping the excess in its MPMC RX. Without the window a shard runs
 * arbitrarily far ahead of its workers and buries the backlog in
 * private SPSC rings where siblings cannot steal it — stealing only
 * rebalances work that is still in an RX queue. A single dispatcher
 * forwards as fast as the rings accept.
 */
constexpr uint64_t kShardWindow = 64;

} // namespace

Runtime::Runtime(RuntimeConfig cfg, Handler handler)
    : cfg_(cfg),
      metrics_(std::make_unique<telemetry::MetricsRegistry>(
          cfg.num_workers,
          telemetry::kEnabled ? cfg.telemetry_trace_capacity : 1,
          cfg.num_dispatchers)),
      assigned_(std::make_unique<std::atomic<uint64_t>[]>(
          static_cast<size_t>(cfg.num_workers))),
      query_readers_(static_cast<size_t>(cfg.num_workers)),
      snapshot_readers_(static_cast<size_t>(cfg.num_workers))
{
    TQ_CHECK(cfg_.num_workers > 0);
    TQ_CHECK(cfg_.dispatch_batch >= 1);
    TQ_CHECK(cfg_.num_dispatchers >= 1 &&
             cfg_.num_dispatchers <= cfg_.num_workers &&
             cfg_.num_dispatchers <= telemetry::kMaxDispatcherShards);
    // Per-class mode (DESIGN.md §4i): a populated quantum table, or an
    // adaptive controller that needs one even with an empty config
    // table. FCFS never arms probes — its workers drop the table and
    // run the fixed path regardless.
    const bool per_class = (!cfg_.class_quantum_us.empty() ||
                            cfg_.adaptive_quantum) &&
                           cfg_.work != WorkPolicy::Fcfs;
    if (per_class) {
        quantum_table_ = std::make_unique<ClassQuantumTable>(
            ns_to_cycles(cfg_.quantum_us * 1e3));
        std::vector<double> initial(
            static_cast<size_t>(kMaxQuantumClasses), cfg_.quantum_us);
        for (size_t c = 0; c < cfg_.class_quantum_us.size() &&
                           c < static_cast<size_t>(kMaxQuantumClasses);
             ++c) {
            TQ_CHECK(cfg_.class_quantum_us[c] > 0);
            initial[c] = cfg_.class_quantum_us[c];
            quantum_table_->store(
                static_cast<int>(c),
                ns_to_cycles(cfg_.class_quantum_us[c] * 1e3));
        }
        if (cfg_.adaptive_quantum && telemetry::kEnabled)
            controller_ = std::make_unique<QuantumController>(
                QuantumControllerConfig{}, std::move(initial));
    }
    for (int w = 0; w < cfg_.num_workers; ++w)
        workers_.push_back(std::make_unique<Worker>(
            w, cfg_, handler, &metrics_->worker(w), &lc_,
            quantum_table_.get()));
    for (int d = 0; d < cfg_.num_dispatchers; ++d) {
        shards_.push_back(std::make_unique<DispatcherShard>(cfg_, d));
        DispatcherShard &sh = *shards_.back();
        TQ_CHECK(sh.span.count >= 1);
        for (int i = 0; i < sh.span.count; ++i)
            sh.stat_lines.push_back(
                &workers_[static_cast<size_t>(sh.span.first + i)]
                     ->stats_line());
    }
}

Runtime::~Runtime()
{
    stop();
}

void
Runtime::start()
{
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    TQ_CHECK(!started_);
    started_ = true;
    TQ_CHECK(lc_.advance(Lifecycle::Created, Lifecycle::Running));
    live_threads_.store(static_cast<int>(shards_.size()) +
                            cfg_.num_workers,
                        std::memory_order_relaxed);
    dispatchers_live_.store(static_cast<int>(shards_.size()),
                            std::memory_order_relaxed);
    for (size_t d = 0; d < shards_.size(); ++d)
        threads_.emplace_back([this, d] {
            dispatcher_main(static_cast<int>(d));
            live_threads_.fetch_sub(1, std::memory_order_acq_rel);
        });
    for (auto &w : workers_)
        threads_.emplace_back([&w, this] {
            w->run();
            live_threads_.fetch_sub(1, std::memory_order_acq_rel);
        });
}

void
Runtime::stop()
{
    (void)drain(cfg_.stop_deadline_sec);
}

bool
Runtime::drain(double deadline_sec)
{
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (lc_.phase() == Lifecycle::Stopped)
        return drained_clean_; // idempotent: repeat the first outcome
    if (!started_) {
        // Never started: there are no threads to quiesce, but submit()
        // accepts in Created so clients may have pre-queued into RX.
        // Those requests will never be forwarded — count them abandoned
        // instead of letting them vanish from the accounting (the early
        // return here used to report a clean drain while losing them).
        lc_.escalate(Lifecycle::Stopped);
        for (auto &sh : shards_)
            while (sh->rx.pop())
                sh->counters.abandoned.fetch_add(
                    1, std::memory_order_relaxed);
        drained_clean_ =
            abandoned_jobs() == 0 && dropped_responses() == 0;
        return drained_clean_;
    }

    // Running -> Draining: submit() starts rejecting, each dispatcher
    // shard forwards what is queued and exits, workers finish and exit.
    // (A no-op if a concurrent caller already moved the state forward.)
    lc_.advance(Lifecycle::Running, Lifecycle::Draining);

    const Cycles deadline =
        rdcycles() + ns_to_cycles(deadline_sec * 1e9);
    while (live_threads_.load(std::memory_order_acquire) > 0 &&
           rdcycles() < deadline)
        std::this_thread::yield();

    if (live_threads_.load(std::memory_order_acquire) > 0) {
        // Deadline expired: escalate. Every spin loop in the datapath
        // checks this phase, so the joins below are bounded.
        lc_.escalate(Lifecycle::Stopping);
#if defined(TQ_FAULT_INJECTION_ENABLED)
        // Frozen fault sites model hung threads; the forced stop is the
        // point where the machinery reclaims them, so let them go or
        // the joins below would inherit the hang.
        fault::FaultInjector::instance().release_all();
#endif
    }
    for (auto &t : threads_)
        t.join();
    threads_.clear();
    lc_.escalate(Lifecycle::Stopped);

    // Submissions that raced the Running -> Draining transition can land
    // in an RX queue after its shard's final sweep; they were never
    // forwarded, so count them abandoned. Every thread is joined, so
    // the sweep races nothing (stealing stops at Draining).
    for (auto &sh : shards_)
        while (sh->rx.pop())
            sh->counters.abandoned.fetch_add(1,
                                             std::memory_order_relaxed);
    // Likewise a dispatcher can push into a worker's ring after that
    // (force-stopped) worker's own final sweep; a second sweep is safe
    // now and closes the accounting.
    for (auto &w : workers_)
        w->abandon_remaining();

    drained_clean_ = abandoned_jobs() == 0 && dropped_responses() == 0;
    return drained_clean_;
}

int
Runtime::pick_shard()
{
    // Front-tier JSQ: snapshot the shards' advertised load lines (one
    // relaxed load each; the lines are shard-written, submitter-read)
    // and take the rotated minimum. The rotation counter is
    // submitter-local, so concurrent clients spread tied picks without
    // sharing any tie-break state (common/shard.h).
    static thread_local uint64_t rotation = 0;
    uint32_t loads[telemetry::kMaxDispatcherShards];
    const size_t n = shards_.size();
    for (size_t s = 0; s < n; ++s)
        loads[s] =
            shards_[s]->load_line.load.load(std::memory_order_relaxed);
    return pick_min_rotated(loads, n, rotation++);
}

bool
Runtime::submit(const Request &req)
{
    // Created is accepted so clients may pre-queue before start().
    if (lc_.phase() > Lifecycle::Running)
        return false;
    if (shards_.size() == 1)
        return shards_[0]->rx.push(req);
    return shards_[static_cast<size_t>(pick_shard())]->rx.push(req);
}

bool
Runtime::submit_to_shard(const Request &req, int shard)
{
    TQ_CHECK(shard >= 0 && shard < static_cast<int>(shards_.size()));
    if (lc_.phase() > Lifecycle::Running)
        return false;
    return shards_[static_cast<size_t>(shard)]->rx.push(req);
}

size_t
Runtime::drain_responses(std::vector<Response> &out)
{
    // One acquire of each TX ring's producer index per call: pop_all
    // takes what was published at that load and leaves later pushes for
    // the next call.
    const size_t before = out.size();
    for (auto &w : workers_)
        w->tx_ring().pop_all(out);
#if defined(__x86_64__)
    // RDTSC is not ordered after earlier loads: without this fence the
    // caller's next rdcycles() can execute before the index loads above
    // complete and stamp a response as collected before the worker
    // stamped it done. LFENCE waits for them — once per call, not per
    // response.
    _mm_lfence();
#endif
    return out.size() - before;
}

uint64_t
Runtime::abandoned_jobs() const
{
    uint64_t n = 0;
    for (const auto &sh : shards_)
        n += sh->counters.abandoned.load(std::memory_order_relaxed);
    for (const auto &w : workers_)
        n += w->abandoned_jobs();
    return n;
}

uint64_t
Runtime::dropped_responses() const
{
    uint64_t n = 0;
    for (const auto &w : workers_)
        n += w->dropped_responses();
    return n;
}

uint64_t
Runtime::tx_ring_full_spins() const
{
    uint64_t n = 0;
    for (const auto &w : workers_)
        n += w->tx_full_spins();
    return n;
}

std::vector<uint64_t>
Runtime::queue_lengths()
{
    std::lock_guard<std::mutex> lock(stats_mu_);
    std::vector<uint64_t> lens(workers_.size());
    for (size_t w = 0; w < workers_.size(); ++w) {
        lens[w] = DispatchView::outstanding(
            assigned_[w].load(std::memory_order_relaxed),
            query_readers_[w].read_finished(workers_[w]->stats_line()));
    }
    return lens;
}

void
Runtime::refresh_dispatch_views(DispatcherShard &sh)
{
    // Refresh the shard's view from its workers' counter lines: queue
    // length = assigned - finished (delta-tracked across wraps, clamped
    // at 0 by DispatchView::outstanding). This is the only place a
    // dispatcher touches shared cache lines for load balancing;
    // everything downstream works on the packed view until the next
    // batch boundary. stat_lines keeps the walk over the workers' lines
    // pointer-chase-free. The length sum doubles as the shard's
    // aggregate-load input (shard_front.h).
    const size_t n = static_cast<size_t>(sh.span.count);
    uint64_t sum = 0;
    for (size_t i = 0; i < n; ++i) {
        const uint64_t fin = sh.readers[i].read_finished(*sh.stat_lines[i]);
        const uint64_t len = DispatchView::outstanding(
            assigned_[static_cast<size_t>(sh.span.first) + i].load(
                std::memory_order_relaxed),
            fin);
        sh.view.set_len(i, len);
        sum += len;
        if (cfg_.dispatch == DispatchPolicy::JsqMsq)
            sh.view.set_quanta(
                i, WorkerStatsReader::read_current_quanta(*sh.stat_lines[i]));
    }
    sh.queue_sum = sum;
}

void
Runtime::publish_load(DispatcherShard &sh, uint64_t just_pushed)
{
    // Advertised load = owned-span queue sum as of the last refresh,
    // plus what this batch just pushed (the refresh predates those
    // assignments), plus the RX backlog. Saturate into the uint32 the
    // front tier compares.
    const uint64_t load = sh.queue_sum + just_pushed + sh.rx.size();
    sh.load_line.load.store(load > UINT32_MAX
                                ? UINT32_MAX
                                : static_cast<uint32_t>(load),
                            std::memory_order_relaxed);
}

telemetry::MetricsSnapshot
Runtime::telemetry_snapshot()
{
    telemetry::MetricsSnapshot snap = metrics_->snapshot();
    {
        std::lock_guard<std::mutex> lock(stats_mu_);
        // Cross-check against the dispatcher/worker stats contract: the
        // shared 32-bit total_quanta counters, read wrap-tolerantly.
        for (size_t w = 0; w < workers_.size(); ++w)
            snap.stats_total_quanta +=
                snapshot_readers_[w].read_total_quanta(
                    workers_[w]->stats_line());
    }
    // Backpressure/lifecycle counters record in every build (cold paths
    // only), so fold them in even when TQ_TELEMETRY is off.
    snap.tx_ring_full_spins = tx_ring_full_spins();
    snap.dispatch_ring_full_spins = dispatch_ring_full_spins();
    snap.dropped_responses = dropped_responses();
    snap.abandoned_jobs = abandoned_jobs();
    for (const auto &w : workers_)
        snap.starvation_promotions += w->starvation_promotions();
    return snap;
}

bool
Runtime::adapt_quanta()
{
    if (!controller_ || !quantum_table_)
        return false; // static fallback: fixed path, adaptation off, or
                      // a -DTQ_TELEMETRY=OFF build (no controller made)
    const telemetry::MetricsSnapshot snap = telemetry_snapshot();
    std::vector<ClassObservation> obs(snap.per_class.size());
    for (size_t c = 0; c < snap.per_class.size(); ++c) {
        const telemetry::ClassQuantaStats &pc = snap.per_class[c];
        obs[c].completed = pc.finished;
        obs[c].mean_service_us = pc.service.mean_ns / 1e3;
        obs[c].p99_sojourn_us = pc.sojourn.p99_ns / 1e3;
    }
    bool changed;
    {
        // Same mutex as the snapshot's wrap-state: controller updates
        // serialize with each other at snapshot rate.
        std::lock_guard<std::mutex> lock(stats_mu_);
        changed = controller_->update(obs);
        if (changed) {
            const std::vector<double> &q = controller_->quanta_us();
            for (size_t c = 0;
                 c < q.size() &&
                 c < static_cast<size_t>(kMaxQuantumClasses);
                 ++c)
                quantum_table_->store(static_cast<int>(c),
                                      ns_to_cycles(q[c] * 1e3));
        }
    }
    return changed;
}

double
Runtime::class_quantum_us(int job_class) const
{
    if (!quantum_table_)
        return cfg_.quantum_us;
    return cycles_to_ns(quantum_table_->load(
               ClassQuantumTable::slot_of(job_class))) /
           1e3;
}

size_t
Runtime::drain_trace(std::vector<telemetry::TraceEvent> &out)
{
    return metrics_->drain_trace(out);
}

bool
Runtime::push_request(DispatcherShard &sh, int target, const Request &req)
{
    TQ_FAULT_SITE(DispatcherPush);
    auto &ring = workers_[static_cast<size_t>(target)]->dispatch_ring();
    // Worker ring full: bounded backpressure — spin with a stop check,
    // then a counted drop — mirroring the worker's TX policy.
    const size_t limit = cfg_.push_spin_limit;
    size_t spins = 0;
    while (!ring.push(req)) {
        if (lc_.force_stop() || (limit != 0 && spins >= limit)) {
            sh.counters.abandoned.fetch_add(1, std::memory_order_relaxed);
            return false;
        }
        ++spins;
        sh.counters.full_spins.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::yield();
    }
    return true;
}

size_t
Runtime::steal_into(DispatcherShard &sh, Request *buf, size_t buf_len)
{
    // Victim selection off the advertised load lines: the most-loaded
    // sibling at or above the steal trigger. The estimate can be stale
    // — worst case the pop below comes home empty, which costs one
    // failed CAS round on an idle path.
    int victim = -1;
    uint32_t best = 0;
    for (const auto &other : shards_) {
        if (other->index == sh.index)
            continue;
        const uint32_t load =
            other->load_line.load.load(std::memory_order_relaxed);
        if (load >= cfg_.steal_min_load && load > best) {
            best = load;
            victim = other->index;
        }
    }
    if (victim < 0)
        return 0;
    const size_t want = std::min(cfg_.steal_max_batch, buf_len);
    const size_t got =
        shards_[static_cast<size_t>(victim)]->rx.pop_n(buf, want);
#if defined(TQ_TELEMETRY_ENABLED)
    if (got > 0) {
        telemetry::DispatcherTelemetry &dt =
            metrics_->dispatcher(sh.index);
        single_writer_add(dt.steals, 1);
        dt.steal_batch.add(got);
    }
#endif
    return got;
}

void
Runtime::dispatch_batch(DispatcherShard &sh, Request *reqs, size_t n)
{
    // One arrival stamp covers the batch: the requests were all in
    // RX when the batch was claimed, and per-request RDTSC is
    // exactly the kind of per-job cost batching amortizes away.
    const Cycles arrived_at = rdcycles();
    // Every policy picks from the batch-boundary view (with a batch
    // of 1 this is exactly the unbatched policy); the chosen lane is
    // bumped per pick, so the view is stale only in what workers
    // finished since the refresh. Ties use the boundary snapshot of
    // current_quanta.
    refresh_dispatch_views(sh);
    uint64_t pushed = 0;
    for (size_t i = 0; i < n; ++i) {
        Request &req = reqs[i];
        req.arrival_cycles = arrived_at;
        // Scatter-gather expansion: a request with fanout k becomes
        // k shard pushes, each placed by its own policy pick (the
        // incremental bump_len spreads the shards naturally). The
        // degenerate k=1 loop is exactly the classic per-request
        // path. Per-shard counters: dispatched_total/assigned_ move
        // in worker-job units everywhere downstream.
        const uint32_t fanout = req.fanout == 0 ? 1 : req.fanout;
        for (uint32_t s = 0; s < fanout; ++s) {
            req.shard = s;
            const int local = sh.view.pick(cfg_.dispatch, sh.rng);
            sh.view.bump_len(static_cast<size_t>(local));
            const int target = sh.span.first + local;
#if defined(TQ_TELEMETRY_ENABLED)
            // Stamp the handoff *before* the push: once the request
            // is in the ring the worker may already be reading it.
            // The same read stamps JobDispatched, so the event is
            // taken before the worker can see the request.
            const Cycles dispatched_at = rdcycles();
            req.dispatch_cycles = dispatched_at;
#endif
            if (!push_request(sh, target, req))
                continue; // dropped (counted); the outer loop
                          // re-checks the phase per batch
            // Single writer: only this shard dispatches to its span.
            single_writer_add(assigned_[static_cast<size_t>(target)], 1);
            single_writer_add(sh.counters.dispatched_total, 1);
            ++pushed;
#if defined(TQ_TELEMETRY_ENABLED)
            telemetry::DispatcherTelemetry &dt =
                metrics_->dispatcher(sh.index);
            single_writer_add(dt.dispatched, 1);
            dt.dispatch_cycles.add(dispatched_at - req.arrival_cycles);
            dt.trace.record_at(dispatched_at,
                               telemetry::EventKind::JobDispatched, req.id,
                               static_cast<uint32_t>(target));
#endif
        }
    }
#if defined(TQ_TELEMETRY_ENABLED)
    metrics_->dispatcher(sh.index).batch_occupancy.add(n);
#endif
    if (shards_.size() > 1)
        publish_load(sh, pushed);
}

void
Runtime::dispatcher_main(int shard_index)
{
    DispatcherShard &sh = *shards_[static_cast<size_t>(shard_index)];
    // RX is popped in batches: one batch dequeue (one contended RMW on
    // the MPMC cursor), one JSQ view refresh (one pass over the shared
    // counter lines), then per-request work against local state only.
    // Under light load batches degenerate to size 1 and the path is the
    // classic per-request one; under pressure the shared-line traffic
    // is divided by the batch occupancy (DESIGN.md "Batched hot path").
    const bool sharded = shards_.size() > 1;
    std::vector<Request> batch(
        std::max(cfg_.dispatch_batch, cfg_.steal_max_batch));
    int empty_polls = 0;
    for (;;) {
        TQ_FAULT_SITE(DispatcherPoll);
        const Lifecycle phase = lc_.phase();
        if (phase >= Lifecycle::Stopping)
            break;
        if (sharded) {
            // Backpressure: past the window, hold the backlog in RX
            // (where siblings can steal it) instead of burying it in
            // the workers' private rings. queue_sum is the view from
            // the last refresh, so the first test is free; only a full
            // window pays for a re-read before deciding to wait.
            const uint64_t window =
                kShardWindow * static_cast<uint64_t>(sh.span.count);
            if (sh.queue_sum >= window) {
                refresh_dispatch_views(sh);
                publish_load(sh, 0);
                if (sh.queue_sum >= window) {
                    std::this_thread::yield();
                    continue;
                }
            }
        }
        const size_t n = sh.rx.pop_n(batch.data(), cfg_.dispatch_batch);
        if (n == 0) {
            if (phase == Lifecycle::Draining)
                break; // everything queued here has been forwarded
            if (++empty_polls >= 8) {
                empty_polls = 0;
                if (sharded) {
                    // Idle housekeeping, off the hot path: re-advertise
                    // the decaying load (workers keep finishing while
                    // RX is empty) and, with nothing of our own left,
                    // try one bounded steal from the most-loaded
                    // sibling. Stealing only runs in Running, so a
                    // draining shard's final sweep races nothing.
                    refresh_dispatch_views(sh);
                    publish_load(sh, 0);
                    if (phase == Lifecycle::Running &&
                        cfg_.steal_max_batch > 0 && sh.queue_sum == 0) {
                        const size_t stolen =
                            steal_into(sh, batch.data(), batch.size());
                        if (stolen > 0) {
                            dispatch_batch(sh, batch.data(), stolen);
                            continue;
                        }
                    }
                }
                std::this_thread::yield();
            } else {
                cpu_relax();
            }
            continue;
        }
        empty_polls = 0;
        dispatch_batch(sh, batch.data(), n);
    }
    // Force-stopped with requests still queued: they will never be
    // forwarded — count them abandoned before announcing completion.
    while (sh.rx.pop())
        sh.counters.abandoned.fetch_add(1, std::memory_order_relaxed);
    // The workers key their drain exit on dispatcher_done; with a
    // sharded tier it means *every* shard is finished, so the last one
    // out sets it.
    if (dispatchers_live_.fetch_sub(1, std::memory_order_acq_rel) == 1)
        lc_.dispatcher_done.store(true, std::memory_order_release);
}

} // namespace tq::runtime
