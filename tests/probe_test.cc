/**
 * @file
 * Tests for the forced-multitasking probe runtime: quantum arming, yield
 * dispatch through call_the_yield, critical sections, and end-to-end
 * preemption of an instrumented job running in a coroutine.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/cycles.h"
#include "coro/coroutine.h"
#include "probe/probe.h"

namespace tq {
namespace {

/// Reset this thread's probe state between tests.
void
reset_probe_state()
{
    ProbeState &s = probe_state();
    s = ProbeState{};
}

TEST(Probe, NoYieldBeforeDeadline)
{
    reset_probe_state();
    bool yielded = false;
    bind_yield([](void *arg) { *static_cast<bool *>(arg) = true; },
               &yielded);
    arm_quantum(ns_to_cycles(1e9)); // 1 second: will not expire
    for (int i = 0; i < 1000; ++i)
        tq_probe();
    EXPECT_FALSE(yielded);
    EXPECT_EQ(probe_state().yields, 0u);
}

TEST(Probe, YieldsOnceDeadlinePasses)
{
    reset_probe_state();
    int yields = 0;
    bind_yield([](void *arg) { ++*static_cast<int *>(arg); }, &yields);
    arm_quantum(0); // expires immediately
    tq_probe();
    EXPECT_EQ(yields, 1);
    // The slow path disarms; further probes do not re-yield until re-armed.
    tq_probe();
    tq_probe();
    EXPECT_EQ(yields, 1);
    arm_quantum(0);
    tq_probe();
    EXPECT_EQ(yields, 2);
    EXPECT_EQ(probe_state().yields, 2u);
}

TEST(Probe, ArmQuantumAtCountsFromTheGivenReading)
{
    // The scheduler arms from the clock read it already took for the
    // slice-start stamp: the deadline is that reading plus the budget,
    // not a later fresh read plus the budget.
    reset_probe_state();
    int yields = 0;
    bind_yield([](void *arg) { ++*static_cast<int *>(arg); }, &yields);
    const Cycles start = rdcycles();
    arm_quantum_at(start, 1000);
    EXPECT_EQ(probe_state().deadline, start + 1000);
    // A reading far in the past arms an already-expired quantum.
    arm_quantum_at(0, 1);
    tq_probe();
    EXPECT_EQ(yields, 1);
}

TEST(Probe, DisarmPreventsYield)
{
    reset_probe_state();
    int yields = 0;
    bind_yield([](void *arg) { ++*static_cast<int *>(arg); }, &yields);
    arm_quantum(0);
    disarm_quantum();
    tq_probe();
    EXPECT_EQ(yields, 0);
}

TEST(Probe, PreemptGuardDefersYield)
{
    reset_probe_state();
    int yields = 0;
    bind_yield([](void *arg) { ++*static_cast<int *>(arg); }, &yields);
    arm_quantum(0);
    {
        PreemptGuard guard;
        tq_probe(); // expired, but inside critical section
        EXPECT_EQ(yields, 0);
        EXPECT_TRUE(probe_state().yield_pending);
    }
    tq_probe(); // first probe after the section performs the yield
    EXPECT_EQ(yields, 1);
}

TEST(Probe, NestedGuardsAllMustRelease)
{
    reset_probe_state();
    int yields = 0;
    bind_yield([](void *arg) { ++*static_cast<int *>(arg); }, &yields);
    arm_quantum(0);
    {
        PreemptGuard outer;
        {
            PreemptGuard inner;
            tq_probe();
            EXPECT_EQ(yields, 0);
        }
        tq_probe(); // still guarded by outer
        EXPECT_EQ(yields, 0);
    }
    tq_probe();
    EXPECT_EQ(yields, 1);
}

/// The real wiring: a job coroutine instrumented with probes, preempted by
/// the scheduler whenever its quantum expires.
TEST(Probe, PreemptsInstrumentedCoroutineJob)
{
    reset_probe_state();
    constexpr uint64_t kWorkItems = 2000;
    uint64_t done_items = 0;

    Coroutine job([&](Coroutine &) {
        for (uint64_t i = 0; i < kWorkItems; ++i) {
            // ~50ns of "work" between probe sites.
            volatile uint64_t sink = 0;
            for (int j = 0; j < 20; ++j)
                sink = sink + j;
            ++done_items;
            tq_probe();
        }
    });

    bind_yield([](void *arg) { static_cast<Coroutine *>(arg)->yield(); },
               &job);

    const Cycles quantum = ns_to_cycles(5000); // 5us
    int quanta_used = 0;
    while (!job.done()) {
        arm_quantum(quantum);
        job.resume();
        disarm_quantum();
        ++quanta_used;
        ASSERT_LT(quanta_used, 100000);
    }
    EXPECT_EQ(done_items, kWorkItems);
    EXPECT_GE(quanta_used, 1);
    // The job yields mid-execution iff it was actually preempted at least
    // once (timing dependent, but 2000*50ns = 100us across 5us quanta
    // should preempt many times).
    EXPECT_GT(quanta_used, 2);
}

TEST(Probe, QuantumTimingAccuracy)
{
    // Probes every ~100ns with a 20us quantum must yield within a few
    // hundred ns of the target on a mostly-idle machine. Allow generous
    // slack: this asserts sanity, not a performance claim.
    reset_probe_state();
    Coroutine job([&](Coroutine &) {
        for (;;) {
            volatile uint64_t sink = 0;
            for (int j = 0; j < 40; ++j)
                sink = sink + j;
            tq_probe();
        }
    });
    bind_yield([](void *arg) { static_cast<Coroutine *>(arg)->yield(); },
               &job);

    const double target_ns = 20000;
    std::vector<double> errors;
    for (int q = 0; q < 50; ++q) {
        const Cycles start = rdcycles();
        arm_quantum(ns_to_cycles(target_ns));
        job.resume();
        const double elapsed = cycles_to_ns(rdcycles() - start);
        errors.push_back(elapsed - target_ns);
    }
    disarm_quantum();
    // Median error below 20% of the quantum (overshoot only: elapsed must
    // be at least the quantum since a probe never yields early).
    std::sort(errors.begin(), errors.end());
    EXPECT_GE(errors[0], -1000.0) << "yield fired before the deadline";
    EXPECT_LT(errors[errors.size() / 2], 0.2 * target_ns);
}

TEST(Probe, DynamicQuantaPerResume)
{
    // LAS-style policies re-arm with different quanta per resume; verify
    // each resume honors its own deadline rather than a fixed one.
    reset_probe_state();
    Coroutine job([&](Coroutine &) {
        for (;;)
            tq_probe();
    });
    bind_yield([](void *arg) { static_cast<Coroutine *>(arg)->yield(); },
               &job);
    for (double q_ns : {1000.0, 8000.0, 2000.0}) {
        const Cycles start = rdcycles();
        arm_quantum(ns_to_cycles(q_ns));
        job.resume();
        const double elapsed = cycles_to_ns(rdcycles() - start);
        EXPECT_GE(elapsed, q_ns * 0.9) << "quantum " << q_ns;
    }
    disarm_quantum();
}

} // namespace
} // namespace tq
