#include "probe/probe.h"

#include "common/check.h"

namespace tq {

ProbeState &
probe_state()
{
    thread_local ProbeState state;
    return state;
}

namespace detail {

void
probe_expired(ProbeState &s, Cycles now)
{
    if (s.preempt_disabled > 0) {
        // Inside a critical section: remember, yield at the next probe
        // that runs outside any guard (paper section 4).
#if defined(TQ_TELEMETRY_ENABLED)
        // Record the deferral once per expiry, not once per probe that
        // re-observes the already-passed deadline inside the guard.
        // Stamped with the probe's own read, like ProbeYield below.
        if (!s.yield_pending && s.telem != nullptr) {
            single_writer_add(s.telem->counters.guard_deferrals, 1);
            s.telem->trace.record_at(
                now, telemetry::EventKind::GuardDeferredYield, s.telem_job);
        }
#endif
        s.yield_pending = true;
        return;
    }
    s.yield_pending = false;
    TQ_CHECK(s.call_the_yield != nullptr);
    ++s.yields;
    s.yielded_at = now;
#if defined(TQ_TELEMETRY_ENABLED)
    if (s.telem != nullptr) {
        single_writer_add(s.telem->counters.yields, 1);
        s.telem->trace.record_at(now, telemetry::EventKind::ProbeYield,
                                 s.telem_job);
    }
#endif
    // Push the deadline out so nested probes reached while unwinding to
    // the yield do not recurse; the scheduler re-arms before resuming.
    s.deadline = ~Cycles{0};
    s.call_the_yield(s.yield_arg);
}

} // namespace detail
} // namespace tq
