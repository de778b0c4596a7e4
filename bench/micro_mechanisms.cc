/**
 * @file
 * Microbenchmarks of TQ's real mechanisms (google-benchmark).
 *
 * These numbers calibrate the simulator's Overheads (DESIGN.md): the
 * coroutine yield cost backs switch_overhead; the probe cost backs the
 * forced-multitasking overhead model; ring and JSQ-scan costs back
 * dispatch_cost. The paper's corresponding claims: stackful coroutine
 * yields in tens of ns (section 3.1), probes cost a partially-hidden
 * RDTSC, and the dispatcher does only per-job work (section 3.2).
 *
 * The BM_Telemetry* group prices the observability layer's hot-path
 * operations; OBSERVABILITY.md quotes these as the per-event overhead
 * budget. Build with -DTQ_TELEMETRY=OFF and compare BM_ProbeNotExpired
 * to bound the probe-cost regression of the always-compiled state.
 */
#include <benchmark/benchmark.h>

#include <atomic>
#include <vector>

#include "common/cycles.h"
#include "conc/mpmc_queue.h"
#include "conc/single_writer.h"
#include "conc/spsc_ring.h"
#include "coro/coroutine.h"
#include "probe/probe.h"
#include "common/dispatch_view.h"
#include "runtime/worker_stats.h"
#include "telemetry/telemetry.h"

namespace {

using namespace tq;

void
BM_Rdcycles(benchmark::State &state)
{
    for (auto _ : state)
        benchmark::DoNotOptimize(rdcycles());
}
BENCHMARK(BM_Rdcycles);

void
BM_ProbeNotExpired(benchmark::State &state)
{
    // The fast path every instrumented job pays at each probe site.
    probe_state() = ProbeState{};
    arm_quantum(~Cycles{0} >> 1);
    for (auto _ : state)
        tq_probe();
    disarm_quantum();
}
BENCHMARK(BM_ProbeNotExpired);

void
BM_CoroutineYieldResume(benchmark::State &state)
{
    // One scheduler->task->scheduler round trip (two context switches):
    // the cost of a preemption under forced multitasking.
    Coroutine co([](Coroutine &self) {
        for (;;)
            self.yield();
    });
    for (auto _ : state)
        co.resume();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoroutineYieldResume);

void
BM_CoroutineCreateDestroy(benchmark::State &state)
{
    for (auto _ : state) {
        Coroutine co([](Coroutine &) {});
        co.resume();
        benchmark::DoNotOptimize(co.done());
    }
}
BENCHMARK(BM_CoroutineCreateDestroy);

void
BM_SpscRingPushPop(benchmark::State &state)
{
    SpscRing<uint64_t> ring(1024);
    uint64_t v = 0;
    for (auto _ : state) {
        ring.push(v++);
        benchmark::DoNotOptimize(ring.pop());
    }
}
BENCHMARK(BM_SpscRingPushPop);

void
BM_MpmcQueuePushPop(benchmark::State &state)
{
    MpmcQueue<uint64_t> q(1024);
    uint64_t v = 0;
    for (auto _ : state) {
        q.push(v++);
        benchmark::DoNotOptimize(q.pop());
    }
}
BENCHMARK(BM_MpmcQueuePushPop);

void
BM_RingPopAll(benchmark::State &state)
{
    // Batched SPSC collection: Arg scalar pushes, then one pop_all that
    // takes them with a single producer-index acquire and consumer-index
    // release (the TX-ring drain of Runtime::drain_responses). Per-item
    // cost vs BM_SpscRingPushPop (a push and a pop per item) is the
    // collection win; Arg 1 prices pop_all's own overhead.
    const size_t k = static_cast<size_t>(state.range(0));
    SpscRing<uint64_t> ring(1024);
    std::vector<uint64_t> dst;
    dst.reserve(k);
    uint64_t v = 0;
    for (auto _ : state) {
        for (size_t i = 0; i < k; ++i)
            ring.push(v++);
        dst.clear();
        benchmark::DoNotOptimize(ring.pop_all(dst));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(k));
}
BENCHMARK(BM_RingPopAll)->Arg(1)->Arg(8)->Arg(32);

void
BM_RingPopInto(benchmark::State &state)
{
    // In-place scalar pop: no std::optional wrapper on the hot path.
    SpscRing<uint64_t> ring(1024);
    uint64_t v = 0, out = 0;
    for (auto _ : state) {
        ring.push(v++);
        ring.pop_into(out);
        benchmark::DoNotOptimize(out);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RingPopInto);

void
BM_MpmcPopN(benchmark::State &state)
{
    // Batched MPMC dequeue: one CAS on the contended cursor per batch
    // (the dispatcher's RX pop). Arg is the batch size.
    const size_t k = static_cast<size_t>(state.range(0));
    MpmcQueue<uint64_t> q(1024);
    std::vector<uint64_t> dst(k);
    uint64_t v = 0;
    for (auto _ : state) {
        for (size_t i = 0; i < k; ++i)
            q.push(v++);
        benchmark::DoNotOptimize(q.pop_n(dst.data(), k));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(k));
}
BENCHMARK(BM_MpmcPopN)->Arg(1)->Arg(8)->Arg(32);

void
BM_JsqScan16Workers(benchmark::State &state)
{
    // The dispatcher's per-job decision: scan 16 counter cache lines for
    // the shortest queue with MSQ tie-breaking (paper section 4).
    runtime::WorkerStatsLine lines[16];
    runtime::WorkerStatsReader readers[16];
    uint64_t assigned[16] = {};
    for (int i = 0; i < 16; ++i)
        lines[i].finished.store(static_cast<uint32_t>(i * 3));
    for (auto _ : state) {
        uint64_t best_len = ~0ULL;
        int best = 0;
        uint32_t best_q = 0;
        for (int i = 0; i < 16; ++i) {
            const uint64_t len =
                assigned[i] - readers[i].read_finished(lines[i]);
            const uint32_t q =
                runtime::WorkerStatsReader::read_current_quanta(lines[i]);
            if (len < best_len || (len == best_len && q > best_q)) {
                best_len = len;
                best = i;
                best_q = q;
            }
        }
        benchmark::DoNotOptimize(best);
        ++assigned[best];
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JsqScan16Workers);

void
BM_DispatchBatchAmortized(benchmark::State &state)
{
    // The batched dispatcher's per-request decision (runtime.cc): the
    // 16 shared counter lines are read once per batch into a local
    // view; each request then scans/bumps only that local view. Arg is
    // the batch size; Arg 1 reproduces the per-request refresh cost of
    // the unbatched path (compare BM_JsqScan16Workers).
    const size_t k = static_cast<size_t>(state.range(0));
    constexpr int kWorkers = 16;
    runtime::WorkerStatsLine lines[kWorkers];
    runtime::WorkerStatsReader readers[kWorkers];
    uint64_t assigned[kWorkers] = {};
    uint64_t len_view[kWorkers] = {};
    uint32_t quanta_view[kWorkers] = {};
    for (int i = 0; i < kWorkers; ++i)
        lines[i].finished.store(static_cast<uint32_t>(i * 3));
    for (auto _ : state) {
        // Batch boundary: one pass over the shared lines.
        for (int i = 0; i < kWorkers; ++i) {
            const uint64_t fin = readers[i].read_finished(lines[i]);
            len_view[i] = assigned[i] > fin ? assigned[i] - fin : 0;
            quanta_view[i] =
                runtime::WorkerStatsReader::read_current_quanta(lines[i]);
        }
        // Per-request work: local-view JSQ+MSQ scan + incremental bump.
        for (size_t j = 0; j < k; ++j) {
            uint64_t best_len = ~0ULL;
            int best = 0;
            uint32_t best_q = 0;
            for (int i = 0; i < kWorkers; ++i) {
                if (len_view[i] < best_len ||
                    (len_view[i] == best_len && quanta_view[i] > best_q)) {
                    best_len = len_view[i];
                    best = i;
                    best_q = quanta_view[i];
                }
            }
            benchmark::DoNotOptimize(best);
            ++len_view[best];
            ++assigned[best];
            lines[best].finished.fetch_add(1, std::memory_order_relaxed);
        }
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(k));
}
BENCHMARK(BM_DispatchBatchAmortized)->Arg(1)->Arg(8)->Arg(32);

void
BM_JsqPickPacked(benchmark::State &state)
{
    // The packed per-request decision (common/dispatch_view.h), pick +
    // bump. Arg is the worker count: at 16 the lengths are exactly one
    // line; at 64 the single-pass scan spans four.
    const size_t n = static_cast<size_t>(state.range(0));
    DispatchView view(n);
    for (size_t i = 0; i < n; ++i) {
        view.set_len(i, i % 4);
        view.set_quanta(i, static_cast<uint32_t>(i));
    }
    for (auto _ : state) {
        const int best = view.pick_jsq_msq();
        benchmark::DoNotOptimize(best);
        view.bump_len(static_cast<size_t>(best));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JsqPickPacked)->Arg(16)->Arg(64);

void
BM_JsqPickPackedScalar(benchmark::State &state)
{
    // The portable two-pass oracle over the same packed lanes: the
    // property-test reference every shipped pick must match exactly.
    const size_t n = static_cast<size_t>(state.range(0));
    DispatchView view(n);
    for (size_t i = 0; i < n; ++i) {
        view.set_len(i, i % 4);
        view.set_quanta(i, static_cast<uint32_t>(i));
    }
    for (auto _ : state) {
        const int best = view.pick_jsq_msq_scalar();
        benchmark::DoNotOptimize(best);
        view.bump_len(static_cast<size_t>(best));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JsqPickPackedScalar)->Arg(16)->Arg(64);

/**
 * The tournament-tree alternative the issue asked to bench against: an
 * implicit binary tree of winner indices over the leaves, O(log n)
 * replay per update instead of an O(n) sweep. Kept bench-local: it
 * loses at one-line width (the paper's 16-worker configuration) and
 * only wins from ~64 lanes, and it would force stateful updates into
 * DispatchView's refresh path (see BENCH_dispatch.json and
 * docs/cache_line_analysis.md §"Picking the pick").
 */
class TournamentPick
{
  public:
    explicit TournamentPick(size_t n) : n_(n)
    {
        leaves_ = 1;
        while (leaves_ < n)
            leaves_ <<= 1;
        len_.assign(leaves_, ~0u);
        quanta_.assign(leaves_, 0);
        winner_.assign(2 * leaves_, 0);
        for (size_t i = 0; i < n_; ++i)
            len_[i] = 0;
        for (size_t i = 0; i < leaves_; ++i)
            winner_[leaves_ + i] = i;
        for (size_t node = leaves_ - 1; node >= 1; --node)
            winner_[node] =
                better(winner_[2 * node], winner_[2 * node + 1]);
    }

    size_t pick() const { return winner_[1]; }

    void
    update(size_t i, uint32_t len, uint32_t quanta)
    {
        len_[i] = len;
        quanta_[i] = quanta;
        for (size_t node = (leaves_ + i) / 2; node >= 1; node /= 2)
            winner_[node] =
                better(winner_[2 * node], winner_[2 * node + 1]);
    }

    uint32_t len(size_t i) const { return len_[i]; }
    uint32_t quanta(size_t i) const { return quanta_[i]; }

  private:
    size_t
    better(size_t a, size_t b) const
    {
        if (len_[a] != len_[b])
            return len_[a] < len_[b] ? a : b;
        if (quanta_[a] != quanta_[b])
            return quanta_[a] > quanta_[b] ? a : b;
        return a < b ? a : b;
    }

    size_t n_;
    size_t leaves_;
    std::vector<uint32_t> len_;
    std::vector<uint32_t> quanta_;
    std::vector<size_t> winner_;
};

void
BM_JsqPickTournament(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    TournamentPick tree(n);
    for (size_t i = 0; i < n; ++i)
        tree.update(i, static_cast<uint32_t>(i % 4),
                    static_cast<uint32_t>(i));
    for (auto _ : state) {
        const size_t best = tree.pick();
        benchmark::DoNotOptimize(best);
        tree.update(best, tree.len(best) + 1, tree.quanta(best));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JsqPickTournament)->Arg(16)->Arg(64);

void
BM_DispatchBatchPacked(benchmark::State &state)
{
    // BM_DispatchBatchAmortized with the packed view: one counter-line
    // refresh into DispatchView per batch, then packed picks. This is the
    // shipped dispatcher_main() hot path; Arg is the batch size.
    const size_t k = static_cast<size_t>(state.range(0));
    constexpr int kWorkers = 16;
    runtime::WorkerStatsLine lines[kWorkers];
    runtime::WorkerStatsReader readers[kWorkers];
    uint64_t assigned[kWorkers] = {};
    DispatchView view(kWorkers);
    for (int i = 0; i < kWorkers; ++i)
        lines[i].finished.store(static_cast<uint32_t>(i * 3));
    for (auto _ : state) {
        // Batch boundary: one pass over the shared lines.
        for (int i = 0; i < kWorkers; ++i) {
            const size_t i_w = static_cast<size_t>(i);
            const uint64_t fin = readers[i].read_finished(lines[i]);
            view.set_len(i_w,
                         assigned[i] > fin ? assigned[i] - fin : 0);
            view.set_quanta(
                i_w,
                runtime::WorkerStatsReader::read_current_quanta(lines[i]));
        }
        // Per-request work: packed pick + saturating bump.
        for (size_t j = 0; j < k; ++j) {
            const int best = view.pick_jsq_msq();
            benchmark::DoNotOptimize(best);
            view.bump_len(static_cast<size_t>(best));
            ++assigned[best];
            lines[best].finished.fetch_add(1, std::memory_order_relaxed);
        }
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(k));
}
BENCHMARK(BM_DispatchBatchPacked)->Arg(1)->Arg(8)->Arg(32);

void
BM_PreemptGuard(benchmark::State &state)
{
    probe_state() = ProbeState{};
    for (auto _ : state) {
        PreemptGuard guard;
        benchmark::DoNotOptimize(&guard);
    }
}
BENCHMARK(BM_PreemptGuard);

void
BM_TelemetryCounterInc(benchmark::State &state)
{
    // One single-writer bump (relaxed load + relaxed store) on a
    // cache-line-padded per-worker counter: what a recording site pays
    // besides the branch on telem != nullptr.
    telemetry::WorkerCounters counters;
    for (auto _ : state)
        single_writer_add(counters.quanta, 1);
    benchmark::DoNotOptimize(
        counters.quanta.load(std::memory_order_relaxed));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryCounterInc);

void
BM_TelemetryHistogramAdd(benchmark::State &state)
{
    // Bucket index (clz) + three single-writer load+store bumps: the
    // add every worker and dispatcher histogram takes.
    telemetry::CycleHistogram hist;
    uint64_t v = 1;
    for (auto _ : state) {
        hist.add(v);
        v = v * 2862933555777941757ULL + 3037000493ULL; // cheap LCG
    }
    benchmark::DoNotOptimize(hist.count());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryHistogramAdd);

void
BM_TelemetryHistogramAddLocked(benchmark::State &state)
{
    // Reference for BM_TelemetryHistogramAdd, same layout and value
    // stream: the locked add (clz + three relaxed fetch_adds, each a
    // `lock xadd` on x86) that every histogram took before the
    // single-writer rule. CI's perf-smoke gate requires the
    // single-writer add to stay under 0.8x of this, measured in the
    // same process.
    struct LockedHistogram
    {
        std::atomic<uint64_t> buckets[telemetry::CycleHistogram::kBuckets]{};
        std::atomic<uint64_t> sum{0};
        std::atomic<uint64_t> count{0};

        void
        add(Cycles value)
        {
            const int b = telemetry::CycleHistogram::bucket_of(value);
            buckets[b].fetch_add(1, std::memory_order_relaxed);
            sum.fetch_add(value, std::memory_order_relaxed);
            count.fetch_add(1, std::memory_order_relaxed);
        }
    } hist;
    uint64_t v = 1;
    for (auto _ : state) {
        hist.add(v);
        v = v * 2862933555777941757ULL + 3037000493ULL; // cheap LCG
    }
    benchmark::DoNotOptimize(hist.count.load(std::memory_order_relaxed));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryHistogramAddLocked);

void
BM_TelemetryTraceRecord(benchmark::State &state)
{
    // RDTSC stamp + SPSC push. Sized so the ring never fills: this is
    // the fast-path cost, not the drop path.
    telemetry::TraceRing ring(0, 1 << 20);
    uint64_t job = 0;
    std::vector<telemetry::TraceEvent> sink;
    for (auto _ : state) {
        ring.record(telemetry::EventKind::QuantumStart, job++);
        if ((job & ((1u << 19) - 1)) == 0) { // drain before wrap
            state.PauseTiming();
            sink.clear();
            ring.drain(sink);
            state.ResumeTiming();
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryTraceRecord);

void
BM_TelemetryTraceRecordFull(benchmark::State &state)
{
    // Overflow path: ring stays full, every record drops. Must stay
    // cheap and never block (the runtime keeps running blind).
    telemetry::TraceRing ring(0, 8);
    for (int i = 0; i < 8; ++i)
        ring.record(telemetry::EventKind::QuantumStart, 0);
    for (auto _ : state)
        ring.record(telemetry::EventKind::QuantumStart, 1);
    benchmark::DoNotOptimize(ring.dropped());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryTraceRecordFull);

void
BM_TelemetrySnapshot(benchmark::State &state)
{
    // Full registry snapshot with populated histograms: the cost the
    // *observer* pays, amortised over however often it polls. Workers
    // pay nothing.
    telemetry::MetricsRegistry reg(16, 64);
    for (int w = 0; w < 16; ++w) {
        auto &wt = reg.worker(w);
        for (uint64_t i = 0; i < 1000; ++i) {
            wt.queue_cycles.add(i * 97);
            wt.service_cycles.add(i * 13);
        }
    }
    for (auto _ : state) {
        const telemetry::MetricsSnapshot snap = reg.snapshot();
        benchmark::DoNotOptimize(snap.quanta);
    }
}
BENCHMARK(BM_TelemetrySnapshot);

} // namespace

BENCHMARK_MAIN();
