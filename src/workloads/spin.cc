#include "workloads/spin.h"

#include "probe/probe.h"

namespace tq::workloads {

namespace {

/** ~20-40ns of ALU work between probes. */
inline uint64_t
work_chunk(uint64_t x)
{
    for (int i = 0; i < 12; ++i)
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x;
}

} // namespace

void
spin_cycles(Cycles cycles)
{
    // Consumed-cycle accounting: count everything the loop does (work,
    // clock reads, probes — all genuine service time), but exclude the
    // time spent preempted. A yield is detected through the probe
    // runtime's yield counter; the iteration it happens in counts up to
    // the probe's yield timestamp. Dropping that iteration instead
    // livelocks a slice budget shorter than one chunk: every slice
    // would yield in its first iteration and count nothing.
    ProbeState &ps = probe_state();
    Cycles consumed = 0;
    volatile uint64_t sink = 0;
    uint64_t x = 88172645463325252ULL;
    Cycles last = rdcycles();
    while (consumed < cycles) {
        x = work_chunk(x);
        const uint64_t yields_before = ps.yields;
        tq_probe(); // may yield; time away must not count
        const Cycles now = rdcycles();
        consumed += (ps.yields == yields_before ? now : ps.yielded_at) - last;
        last = now;
    }
    sink = x;
    (void)sink;
}

void
spin_for(SimNanos duration)
{
    spin_cycles(ns_to_cycles(duration));
}

} // namespace tq::workloads
