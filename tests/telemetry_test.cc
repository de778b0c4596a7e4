/**
 * @file
 * Tests for the telemetry layer: histogram bucketing edge cases,
 * trace-ring overflow semantics, snapshot-while-running races, the
 * Chrome trace exporter (golden file), the wrap-tolerant total-quanta
 * reader, and end-to-end recording through the real runtime.
 */
#include <atomic>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "conc/single_writer.h"
#include "runtime/runtime.h"
#include "runtime/worker_stats.h"
#include "telemetry/telemetry.h"
#include "workloads/spin.h"

namespace tq::telemetry {
namespace {

TEST(CycleHistogram, BucketEdges)
{
    // Bucket i covers [2^i, 2^(i+1)); 0 and 1 share bucket 0; huge
    // values clamp into the last bucket instead of being lost.
    EXPECT_EQ(CycleHistogram::bucket_of(0), 0);
    EXPECT_EQ(CycleHistogram::bucket_of(1), 0);
    EXPECT_EQ(CycleHistogram::bucket_of(2), 1);
    EXPECT_EQ(CycleHistogram::bucket_of(3), 1);
    EXPECT_EQ(CycleHistogram::bucket_of(4), 2);
    EXPECT_EQ(CycleHistogram::bucket_of((uint64_t{1} << 39) - 1), 38);
    EXPECT_EQ(CycleHistogram::bucket_of(uint64_t{1} << 39),
              CycleHistogram::kBuckets - 1);
    EXPECT_EQ(CycleHistogram::bucket_of(~uint64_t{0}),
              CycleHistogram::kBuckets - 1);
}

TEST(CycleHistogram, SnapshotCountsAndExactMean)
{
    CycleHistogram h;
    const uint64_t values[] = {0, 1, 2, 3, 4, 1024, ~uint64_t{0}};
    uint64_t sum = 0;
    for (uint64_t v : values) {
        h.add(v);
        sum += v;
    }
    EXPECT_EQ(h.count(), 7u);
    EXPECT_EQ(h.sum(), sum);

    const LogHistogram snap = h.snapshot();
    EXPECT_EQ(snap.total(), 7u);
    EXPECT_EQ(snap.bucket_count(0), 2u); // 0 and 1
    EXPECT_EQ(snap.bucket_count(1), 2u); // 2 and 3
    EXPECT_EQ(snap.bucket_count(2), 1u); // 4
    EXPECT_EQ(snap.bucket_count(10), 1u); // 1024
    EXPECT_EQ(snap.bucket_count(CycleHistogram::kBuckets - 1), 1u);

    const StageStats stats = summarize(h);
    EXPECT_EQ(stats.count, 7u);
    EXPECT_DOUBLE_EQ(stats.mean_ns, cycles_to_ns(sum) / 7.0);
    EXPECT_GT(stats.p99_ns, 0.0);
}

TEST(CycleHistogram, EmptySummarizesToZero)
{
    CycleHistogram h;
    const StageStats stats = summarize(h);
    EXPECT_EQ(stats.count, 0u);
    EXPECT_EQ(stats.mean_ns, 0.0);
    EXPECT_EQ(stats.p99_ns, 0.0);
}

TEST(TraceRing, OverflowDropsInsteadOfBlocking)
{
    TraceRing ring(3, 8);
    ASSERT_EQ(ring.capacity(), 8u);
    for (uint64_t job = 0; job < 20; ++job)
        ring.record(EventKind::QuantumStart, job);
    EXPECT_EQ(ring.dropped(), 12u);

    std::vector<TraceEvent> out;
    EXPECT_EQ(ring.drain(out), 8u);
    ASSERT_EQ(out.size(), 8u);
    for (uint64_t i = 0; i < 8; ++i) {
        EXPECT_EQ(out[i].job, i) << "FIFO order: oldest events survive";
        EXPECT_EQ(out[i].tid, 3u);
        EXPECT_EQ(out[i].kind, EventKind::QuantumStart);
    }

    // After a drain the ring accepts events again.
    ring.record(EventKind::JobFinished, 99);
    out.clear();
    EXPECT_EQ(ring.drain(out), 1u);
    EXPECT_EQ(out[0].job, 99u);
}

TEST(TraceRing, ConcurrentDrainAccountsForEveryRecordedEvent)
{
    // One producer overflows a small ring while a consumer drains it
    // concurrently: every recorded event is either drained or counted
    // dropped — exactly, with the drop counter bumped by its single
    // writer's load+store — and what is drained stays in FIFO order.
    constexpr uint64_t kEvents = 200'000;
    TraceRing ring(1, 64);
    std::atomic<bool> done{false};
    std::thread producer([&] {
        for (uint64_t job = 0; job < kEvents; ++job)
            ring.record_at(job, EventKind::QuantumStart, job);
        done.store(true, std::memory_order_release);
    });

    std::vector<TraceEvent> out;
    uint64_t dropped_seen = 0;
    while (!done.load(std::memory_order_acquire)) {
        ring.drain(out);
        const uint64_t d = ring.dropped();
        EXPECT_GE(d, dropped_seen) << "the drop count never goes back";
        dropped_seen = d;
        std::this_thread::yield(); // let the producer overrun the ring
    }
    producer.join();
    ring.drain(out);

    EXPECT_EQ(out.size() + ring.dropped(), kEvents);
    EXPECT_GT(ring.dropped(), 0u) << "the ring never overflowed";
    for (size_t i = 1; i < out.size(); ++i)
        ASSERT_LT(out[i - 1].job, out[i].job) << "FIFO order at " << i;
    for (const TraceEvent &ev : out)
        ASSERT_EQ(ev.tsc, ev.job) << "record_at keeps the given stamp";
}

TEST(MetricsRegistry, SnapshotWhileRunning)
{
    // One writer per worker slot hammers counters and histograms while
    // the main thread snapshots continuously: snapshots must never
    // tear (decreasing totals) and the final snapshot must be exact.
    // Run under TSan too: the single-writer load+store must not race
    // the concurrent readers.
    constexpr int kWorkers = 2;
    constexpr uint64_t kIters = 200'000;
    MetricsRegistry reg(kWorkers, 64);

    std::atomic<bool> go{false};
    std::vector<std::thread> writers;
    for (int w = 0; w < kWorkers; ++w) {
        writers.emplace_back([&reg, &go, w] {
            while (!go.load())
                std::this_thread::yield();
            WorkerTelemetry &wt = reg.worker(w);
            // The runtime's own single-writer bump: a relaxed load plus
            // a relaxed store per counter, no locked RMW.
            for (uint64_t i = 0; i < kIters; ++i) {
                single_writer_add(wt.counters.quanta, 1);
                single_writer_add(wt.counters.finished, 1);
                wt.queue_cycles.add(i & 0xffff);
                wt.service_cycles.add(i & 0xff);
            }
        });
    }

    go.store(true);
    uint64_t last_quanta = 0;
    uint64_t last_finished = 0;
    for (int i = 0; i < 200; ++i) {
        const MetricsSnapshot snap = reg.snapshot();
        EXPECT_GE(snap.quanta, last_quanta);
        EXPECT_GE(snap.finished, last_finished);
        EXPECT_LE(snap.quanta, kWorkers * kIters);
        last_quanta = snap.quanta;
        last_finished = snap.finished;
    }
    for (auto &t : writers)
        t.join();

    const MetricsSnapshot fin = reg.snapshot();
    EXPECT_EQ(fin.quanta, kWorkers * kIters);
    EXPECT_EQ(fin.finished, kWorkers * kIters);
    EXPECT_EQ(fin.queueing.count, kWorkers * kIters);
    EXPECT_EQ(fin.service.count, kWorkers * kIters);
    EXPECT_FALSE(fin.to_string().empty());
}

TEST(MetricsRegistry, DrainTraceMergesSortedByTimestamp)
{
    MetricsRegistry reg(2, 64);
    // Interleave recording across three rings; rdcycles() stamps give a
    // globally meaningful order on an invariant-TSC host.
    for (uint64_t i = 0; i < 10; ++i) {
        reg.dispatcher().trace.record(EventKind::JobDispatched, i, 0);
        reg.worker(static_cast<int>(i % 2))
            .trace.record(EventKind::QuantumStart, i);
    }
    std::vector<TraceEvent> out;
    EXPECT_EQ(reg.drain_trace(out), 20u);
    for (size_t i = 1; i < out.size(); ++i)
        EXPECT_LE(out[i - 1].tsc, out[i].tsc);
}

std::vector<TraceEvent>
golden_events()
{
    // A fixed two-thread scenario: job 7 is dispatched, runs one full
    // quantum (ended by a probe yield), defers one expiry inside a
    // guard, and finishes in its second quantum.
    const auto ev = [](Cycles tsc, uint64_t job, uint32_t arg,
                       EventKind kind, uint8_t tid) {
        TraceEvent e;
        e.tsc = tsc;
        e.job = job;
        e.arg = arg;
        e.kind = kind;
        e.tid = tid;
        return e;
    };
    return {
        ev(1000, 7, 0, EventKind::JobDispatched, kDispatcherTid),
        ev(1100, 7, 0, EventKind::QuantumStart, 0),
        ev(3100, 7, 0, EventKind::ProbeYield, 0),
        ev(3200, 7, 1, EventKind::QuantumStart, 0),
        ev(4000, 7, 0, EventKind::GuardDeferredYield, 0),
        ev(4200, 7, 0, EventKind::JobFinished, 0),
    };
}

TEST(ChromeTrace, MatchesGoldenFile)
{
    ChromeTraceOptions opts;
    opts.cycles_per_ns = 1.0; // deterministic cycles -> us conversion
    std::ostringstream os;
    write_chrome_trace(os, golden_events(), opts);

    const std::string path =
        std::string(TQ_TEST_DATA_DIR) + "/trace_golden.json";
    std::ifstream golden(path);
    ASSERT_TRUE(golden.is_open()) << "missing golden file " << path;
    std::stringstream expected;
    expected << golden.rdbuf();
    EXPECT_EQ(os.str(), expected.str());
}

TEST(ChromeTrace, EmptyTraceIsValidJson)
{
    std::ostringstream os;
    write_chrome_trace(os, {}, ChromeTraceOptions{1.0});
    EXPECT_NE(os.str().find("\"traceEvents\""), std::string::npos);
    EXPECT_EQ(os.str().back(), '\n');
}

TEST(WorkerStatsReader, TotalQuantaSurvivesWrap)
{
    // The shared counter is 32-bit and free to wrap (paper section 4);
    // the reader must keep a 64-bit cumulative total across the wrap.
    runtime::WorkerStatsLine line;
    runtime::WorkerStatsReader reader;

    line.total_quanta.store(0xffff'fffau);
    EXPECT_EQ(reader.read_total_quanta(line), 0xffff'fffaull);

    line.total_quanta.store(4u); // +10 with a 32-bit wrap in between
    EXPECT_EQ(reader.read_total_quanta(line), 0xffff'fffaull + 10);

    line.total_quanta.store(5u);
    EXPECT_EQ(reader.read_total_quanta(line), 0xffff'fffaull + 11);
}

TEST(RuntimeTelemetry, EndToEndSnapshotAndTrace)
{
    constexpr int kJobs = 24;
    runtime::RuntimeConfig cfg;
    cfg.num_workers = 2;
    cfg.quantum_us = 2.0;
    runtime::Runtime rt(cfg, [](const runtime::Request &req) {
        workloads::spin_for(static_cast<double>(req.payload));
        return req.id;
    });
    rt.start();

    for (uint64_t i = 0; i < kJobs; ++i) {
        runtime::Request r;
        r.id = i;
        r.gen_cycles = rdcycles();
        r.payload = 20'000; // 20us: several quanta under PS
        ASSERT_TRUE(rt.submit(r));
    }
    std::vector<runtime::Response> responses;
    while (responses.size() < kJobs) {
        rt.drain_responses(responses);
        std::this_thread::yield();
    }
    rt.stop();

    const MetricsSnapshot snap = rt.telemetry_snapshot();
    std::vector<TraceEvent> events;
    rt.drain_trace(events);

    if (!kEnabled) {
        EXPECT_EQ(snap.finished, 0u);
        EXPECT_EQ(events.size(), 0u);
        return;
    }

    EXPECT_EQ(snap.dispatched, kJobs);
    EXPECT_EQ(snap.admitted, kJobs);
    EXPECT_EQ(snap.finished, kJobs);
    EXPECT_GE(snap.quanta, kJobs); // 20us jobs need > 1 quantum each
    EXPECT_EQ(snap.quanta, snap.yields + snap.finished)
        << "every slice ends in a probe yield or a completion";
    // The wrap-tolerant stats-line view counts *preempted* quanta, which
    // is exactly the probe-yield count.
    EXPECT_EQ(snap.stats_total_quanta, snap.yields);
    EXPECT_EQ(snap.dispatch.count, kJobs);
    EXPECT_EQ(snap.queueing.count, kJobs);
    EXPECT_EQ(snap.service.count, kJobs);
    EXPECT_GT(snap.service.mean_ns, 0.0);

    int dispatched = 0, starts = 0, finishes = 0;
    for (const TraceEvent &ev : events) {
        switch (ev.kind) {
          case EventKind::JobDispatched:
            ++dispatched;
            EXPECT_EQ(ev.tid, kDispatcherTid);
            break;
          case EventKind::QuantumStart:
            ++starts;
            break;
          case EventKind::JobFinished:
            ++finishes;
            break;
          default:
            break;
        }
    }
    EXPECT_EQ(dispatched, kJobs);
    EXPECT_EQ(finishes, kJobs);
    EXPECT_EQ(static_cast<uint64_t>(starts), snap.quanta);
}

TEST(RuntimeTelemetry, SliceEdgesShareOneClockRead)
{
    // The worker reads the clock once per slice edge: the slice-start
    // read stamps QuantumStart (and arms the deadline), the slice-end
    // read of a job's last slice is both its Response::done_cycles and
    // its JobFinished stamp, and the dispatcher's handoff read stamps
    // JobDispatched. So, per job: JobFinished.tsc == done_cycles, and
    // every QuantumStart falls between JobDispatched and done_cycles.
    //
    // The last bound compares reads on two cores. The dispatcher stamps
    // before its release push, but RDTSC is not ordered after earlier
    // loads, so the worker's slice-start read may execute before its
    // acquire of the ring index completes (the same reordering
    // Runtime::drain_responses fences against, measured there at up to
    // ~280 cycles), and cross-core TSCs may differ slightly. The bound
    // allows kCrossCoreSlack for that; the same-thread checks are exact.
    constexpr Cycles kCrossCoreSlack = 2000;
    if (!kEnabled)
        GTEST_SKIP() << "no trace events in -DTQ_TELEMETRY=OFF builds";
    constexpr uint64_t kJobs = 40;
    runtime::RuntimeConfig cfg;
    cfg.num_workers = 2;
    cfg.quantum_us = 2.0;
    runtime::Runtime rt(cfg, [](const runtime::Request &req) {
        workloads::spin_for(static_cast<double>(req.payload));
        return req.id;
    });
    rt.start();
    for (uint64_t i = 0; i < kJobs; ++i) {
        runtime::Request r;
        r.id = i;
        r.gen_cycles = rdcycles();
        r.payload = i % 4 == 0 ? 9'000 : 500; // some jobs span quanta
        ASSERT_TRUE(rt.submit(r));
    }
    std::vector<runtime::Response> responses;
    while (responses.size() < kJobs) {
        rt.drain_responses(responses);
        std::this_thread::yield();
    }
    rt.stop();

    std::vector<TraceEvent> events;
    rt.drain_trace(events);
    ASSERT_EQ(rt.telemetry_snapshot().trace_dropped, 0u);

    std::vector<Cycles> done(kJobs, 0), dispatched(kJobs, 0);
    for (const runtime::Response &r : responses)
        done[r.id] = r.done_cycles;
    std::vector<int> finished(kJobs, 0), starts(kJobs, 0);
    for (const TraceEvent &ev : events) {
        ASSERT_LT(ev.job, kJobs);
        if (ev.kind == EventKind::JobDispatched)
            dispatched[ev.job] = ev.tsc;
    }
    for (const TraceEvent &ev : events) {
        const uint64_t j = ev.job;
        if (ev.kind == EventKind::JobFinished) {
            ++finished[j];
            EXPECT_EQ(ev.tsc, done[j])
                << "job " << j << ": JobFinished and done_cycles come "
                << "from one clock read";
        } else if (ev.kind == EventKind::QuantumStart) {
            ++starts[j];
            EXPECT_GE(ev.tsc + kCrossCoreSlack, dispatched[j])
                << "job " << j << " started before it was dispatched";
            EXPECT_LE(ev.tsc, done[j])
                << "job " << j << " started after it was done";
        }
    }
    for (uint64_t j = 0; j < kJobs; ++j) {
        EXPECT_EQ(finished[j], 1) << "job " << j;
        EXPECT_GE(starts[j], 1) << "job " << j;
        EXPECT_NE(dispatched[j], 0u) << "job " << j;
    }
}

} // namespace
} // namespace tq::telemetry
