#include "sim/two_level.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <vector>

#include "common/check.h"
#include "common/dispatch_view.h"
#include "common/run_queue.h"
#include "common/shard.h"
#include "sim/event_core.h"

namespace tq::sim {

namespace {

constexpr uint32_t kNone = ~0u;

enum EventKind : uint32_t { kArrival, kDispatchDone, kCoreDone, kFrontDone };

/** Per-class account of one core, in simulated nanoseconds. */
using Ledger = ClassLedger<SimNanos, SimNanos>;

/** A queued unit with its class and LAS key. */
struct Queued
{
    uint32_t unit;
    int cls;
    double attained; ///< service received; fixed while queued
    uint64_t seq;    ///< the core's push count
};

/** LAS order on (attained ns, push count): the queue only appends, so
 *  the push-order minimum is the first strict minimum a scan in queue
 *  order would find. */
struct QueuedOrder
{
    static bool
    before(const Queued &a, const Queued &b)
    {
        return a.attained < b.attained ||
               (!(b.attained < a.attained) && a.seq < b.seq);
    }
    static int cls(const Queued &q) { return q.cls; }
};

/** Per-core scheduler state. */
struct Core
{
    explicit Core(CorePolicy policy) : runq(policy) {}

    /** Admitted, not currently running. */
    RunQueue<Queued, QueuedOrder> runq;
    uint64_t pushes = 0;         ///< LAS tie sequence
    uint32_t running = kNone;
    SimNanos slice = 0;          ///< service granted to `running`
    uint64_t quanta_sum = 0;     ///< MSQ metric: serviced quanta of
                                 ///< currently admitted jobs
    int jobs = 0;                ///< assigned - finished (queue length)
    // Figure-16 style effective-quantum accounting.
    double grant_intervals = 0;
    uint64_t grants = 0;
    SimNanos granted = 0;        ///< budget granted to `running` (the
                                 ///< deficit charges granted - used)
    /** Per-class ledger (DESIGN.md §4i): present only with a per-class
     *  quantum table on slicing cores, like the runtime worker's. */
    std::optional<Ledger> ledger;
};

struct Dispatcher
{
    std::deque<uint32_t> q;
    bool busy = false;
    uint32_t in_hand = kNone;
};

class TwoLevelSim
{
  public:
    TwoLevelSim(const TwoLevelConfig &cfg, const ServiceDist &dist,
                double rate)
        : cfg_(cfg),
          core_(dist, rate, cfg.seed, cfg.duration, cfg.max_in_flight,
                cfg.stop_when_saturated, cfg.warmup),
          fanout_(static_cast<uint32_t>(cfg.fanout))
    {
        TQ_CHECK(cfg.num_cores > 0);
        TQ_CHECK(cfg.num_dispatchers > 0);
        TQ_CHECK(cfg.num_dispatchers <= cfg.num_cores);
        TQ_CHECK(cfg.fanout >= 1);
        core_.set_arrival(cfg.arrival);
        core_.set_arrival_trace(cfg.arrival_trace);
        dispatchers_.resize(static_cast<size_t>(cfg.num_dispatchers));
        front_pending_.resize(static_cast<size_t>(cfg.num_dispatchers));
        front_loads_.resize(static_cast<size_t>(cfg.num_dispatchers), 0);
        for (int d = 0; d < cfg.num_dispatchers; ++d) {
            spans_.push_back(
                shard_span(cfg.num_cores, cfg.num_dispatchers, d));
            views_.emplace_back(static_cast<size_t>(spans_.back().count));
        }
        if (!cfg_.class_quantum.empty())
            TQ_CHECK(cfg_.class_quantum.size() ==
                     dist.class_names().size());
        num_classes_ = dist.class_names().size();
        class_grant_intervals_.resize(num_classes_, 0);
        class_grants_.resize(num_classes_, 0);
        // Per-class state exists where the runtime has it: a per-class
        // quantum table on cores that slice (FCFS never does).
        const bool per_class = !cfg_.class_quantum.empty() &&
                               cfg_.core_policy != CorePolicy::Fcfs;
        cores_.reserve(static_cast<size_t>(cfg.num_cores));
        for (int c = 0; c < cfg.num_cores; ++c) {
            Core &core = cores_.emplace_back(cfg.core_policy);
            if (per_class)
                core.ledger.emplace(num_classes_, cfg_.deficit_clamp,
                                    cfg_.starvation_promote_after);
        }
    }

    SimResult
    run()
    {
        core_.schedule(core_.next_arrival_after(0), kArrival, -1);
        core_.drive([this](uint32_t kind, int c) {
            switch (kind) {
              case kArrival:
                on_arrival();
                break;
              case kDispatchDone:
                on_dispatch_done(c);
                break;
              case kCoreDone:
                on_core_done(c);
                break;
              case kFrontDone:
                on_front_done(c);
                break;
            }
        });

        SimResult result;
        core_.finalize(result);
        double intervals = 0;
        uint64_t grants = 0;
        for (const auto &core : cores_) {
            intervals += core.grant_intervals;
            grants += core.grants;
        }
        result.avg_effective_quantum =
            grants ? intervals / static_cast<double>(grants) : 0;
        result.class_effective_quantum.resize(num_classes_, 0);
        for (size_t c = 0; c < num_classes_; ++c)
            if (class_grants_[c])
                result.class_effective_quantum[c] =
                    class_grant_intervals_[c] /
                    static_cast<double>(class_grants_[c]);
        result.starvation_promotions = starvation_promotions_;
        return result;
    }

  private:
    Job &job(uint32_t idx) { return core_.job(idx); }

    // --------------------------------------------------------- units --
    // Queues and core slots hold *units*: unit = idx * fanout + shard,
    // with per-unit remaining service and quanta kept in side arrays
    // and the logical job completing when its last unit drains
    // (scatter-gather, last-response-wins). At fanout 1 a unit is the
    // arena index and divisions by 1 are exact, so the classic path's
    // arithmetic is unchanged.
    uint32_t idx_of(uint32_t unit) const { return unit / fanout_; }

    // ------------------------------------------------------- arrivals --
    void
    on_arrival()
    {
        const uint32_t idx =
            core_.try_admit(1.0 + cfg_.probe_overhead_frac);
        if (idx != EngineCore::kNoJob) {
            split_into_units(idx);
            if (cfg_.num_dispatchers == 1) {
                // Single dispatcher: the paper's configuration, and
                // byte-identical to the pre-sharding simulator — no
                // front tier exists, arrivals enqueue directly. A
                // fanned-out request's units all cross the one
                // dispatcher (one serial dispatch_cost each, like the
                // real dispatcher's per-shard pick+push loop).
                for (uint32_t s = 0; s < fanout_; ++s)
                    dispatchers_[0].q.push_back(idx * fanout_ + s);
                maybe_start_dispatch(0);
            } else {
                // Sharded tier (DESIGN.md §4g): the front tier steers
                // the whole request to one shard by rotated JSQ over
                // the shards' load estimates, charging front_tier_cost
                // as pure latency (submitters are parallel, so the
                // steering pick adds delay but no serial bottleneck —
                // each shard's dispatch_cost stays the serial
                // resource). The constant delay preserves FIFO order
                // per shard, so a deque models the in-flight picks.
                const int d = pick_shard();
                for (uint32_t s = 0; s < fanout_; ++s)
                    front_pending_[static_cast<size_t>(d)].push_back(
                        idx * fanout_ + s);
                core_.schedule(core_.now() +
                                   cfg_.overheads.front_tier_cost,
                               kFrontDone, d);
            }
        }
        const SimNanos t = core_.next_arrival_after(core_.now());
        if (t < cfg_.duration)
            core_.schedule(t, kArrival, -1);
    }

    /** Front-tier pick latency elapsed: the request's units land in
     *  shard @p d's dispatch queue. */
    void
    on_front_done(int d)
    {
        auto &pending = front_pending_[static_cast<size_t>(d)];
        for (uint32_t s = 0; s < fanout_; ++s) {
            TQ_DCHECK(!pending.empty());
            dispatchers_[static_cast<size_t>(d)].q.push_back(
                pending.front());
            pending.pop_front();
        }
        maybe_start_dispatch(d);
    }

    /**
     * Front-tier JSQ (common/shard.h): steer to the shard with the
     * smallest aggregate load — dispatch backlog (queued + in hand +
     * still crossing the front latency) plus the owned cores' queue
     * lengths in the shard's dispatch view, the same periodically
     * refreshed view the shard's dispatcher picks from, mirroring the
     * staleness of the runtime's advertised load lines. Rotation by
     * arrival count spreads tied picks like the runtime's
     * submitter-local counter.
     */
    int
    pick_shard()
    {
        refresh_stats_if_due();
        const int n = cfg_.num_dispatchers;
        for (int d = 0; d < n; ++d) {
            const Dispatcher &disp = dispatchers_[static_cast<size_t>(d)];
            uint64_t load =
                disp.q.size() + (disp.busy ? 1 : 0) +
                front_pending_[static_cast<size_t>(d)].size();
            const DispatchView &view = views_[static_cast<size_t>(d)];
            for (size_t i = 0; i < view.workers(); ++i)
                load += view.len(i);
            front_loads_[static_cast<size_t>(d)] =
                load > UINT32_MAX ? UINT32_MAX
                                  : static_cast<uint32_t>(load);
        }
        return pick_min_rotated(front_loads_.data(),
                                static_cast<size_t>(n), core_.arrivals());
    }

    void
    split_into_units(uint32_t idx)
    {
        const size_t need = static_cast<size_t>(idx + 1) * fanout_;
        if (unit_remaining_.size() < need) {
            unit_remaining_.resize(need, 0);
            unit_quanta_.resize(need, 0);
        }
        if (units_live_.size() <= idx)
            units_live_.resize(static_cast<size_t>(idx) + 1, 0);
        units_live_[idx] = fanout_;
        const double per_unit = job(idx).remaining / fanout_;
        for (uint32_t s = 0; s < fanout_; ++s) {
            unit_remaining_[idx * fanout_ + s] = per_unit;
            unit_quanta_[idx * fanout_ + s] = 0;
        }
    }

    void
    maybe_start_dispatch(int d)
    {
        Dispatcher &disp = dispatchers_[static_cast<size_t>(d)];
        if (disp.busy || disp.q.empty())
            return;
        disp.busy = true;
        disp.in_hand = disp.q.front();
        disp.q.pop_front();
        core_.schedule(core_.now() + cfg_.overheads.dispatch_cost,
                       kDispatchDone, d);
    }

    void
    on_dispatch_done(int d)
    {
        Dispatcher &disp = dispatchers_[static_cast<size_t>(d)];
        const uint32_t unit = disp.in_hand;
        disp.in_hand = kNone;
        disp.busy = false;

        const int target = pick_core(d);
        const size_t shard = static_cast<size_t>(d);
        views_[shard].bump_len(
            static_cast<size_t>(target - spans_[shard].first));
        Core &core = cores_[static_cast<size_t>(target)];
        enqueue(core, unit);
        ++core.jobs;
        core.quanta_sum += unit_quanta_[unit]; // 0 for fresh units
        if (core.ledger)
            core.ledger->admit(class_of(unit));
        if (core.running == kNone)
            start_slice(target);

        maybe_start_dispatch(d);
    }

    // -------------------------------------------------- load balancing --
    /**
     * Refresh every shard's dispatch view from its cores' counters
     * (paper section 4: the shared cache lines are "periodically read
     * by the dispatcher"). Between refreshes a view misses what cores
     * finished but, through bump_len, never what its dispatcher
     * assigned.
     */
    void
    refresh_stats_if_due()
    {
        if (cfg_.stats_refresh_period > 0 &&
            core_.now() - last_refresh_ < cfg_.stats_refresh_period)
            return;
        last_refresh_ = core_.now();
        for (size_t d = 0; d < views_.size(); ++d) {
            DispatchView &view = views_[d];
            const int first = spans_[d].first;
            for (size_t i = 0; i < view.workers(); ++i) {
                const Core &core = cores_[static_cast<size_t>(first) + i];
                view.set_len(i, static_cast<uint64_t>(core.jobs));
                view.set_quanta(i, static_cast<uint32_t>(std::min<uint64_t>(
                                       core.quanta_sum, UINT32_MAX)));
            }
        }
    }

    /** Dispatcher @p d's policy pick over its owned span (common/
     *  dispatch_view.h); returns a global core id. */
    int
    pick_core(int d)
    {
        refresh_stats_if_due();
        return spans_[static_cast<size_t>(d)].first +
               views_[static_cast<size_t>(d)].pick(cfg_.lb, core_.rng());
    }

    // ------------------------------------------------------- workers --
    /** Service received so far (LAS priority key), per unit. */
    double
    attained(uint32_t unit)
    {
        const Job &j = job(idx_of(unit));
        return j.demand * (1.0 + cfg_.probe_overhead_frac) / fanout_ -
               unit_remaining_[unit];
    }

    SimNanos
    quantum_for(const Job &j) const
    {
        if (!cfg_.class_quantum.empty())
            return cfg_.class_quantum[static_cast<size_t>(j.job_class)];
        return cfg_.quantum;
    }

    int
    class_of(uint32_t unit)
    {
        return job(idx_of(unit)).job_class;
    }

    /** Append @p unit to @p core's run queue; LAS keys it on its
     *  attained service, which stays fixed while it waits. */
    void
    enqueue(Core &core, uint32_t unit)
    {
        const double key =
            cfg_.core_policy == CorePolicy::Las ? attained(unit) : 0;
        core.runq.push(Queued{unit, class_of(unit), key, core.pushes++});
    }

    void
    start_slice(int c)
    {
        Core &core = cores_[static_cast<size_t>(c)];
        TQ_CHECK(core.running == kNone);
        if (core.runq.empty())
            return;
        // Starvation guard first (a passed-over class's best unit),
        // else the policy order.
        const int starved = core.ledger ? core.ledger->starved() : -1;
        Queued next{};
        if (starved >= 0) {
            const bool found = core.runq.extract_class(starved, next);
            TQ_CHECK(found); // the class is runnable and not running
            ++starvation_promotions_;
        } else {
            next = core.runq.pop();
        }
        core.running = next.unit;
        const int cls = next.cls;
        const SimNanos remaining = unit_remaining_[core.running];
        SimNanos budget = quantum_for(job(idx_of(core.running)));
        if (core.ledger)
            budget = core.ledger->grant(cls, budget);
        const SimNanos slice = cfg_.core_policy == CorePolicy::Fcfs
                                   ? remaining
                                   : std::min(budget, remaining);
        TQ_DCHECK(slice > 0);
        core.slice = slice;
        core.granted = budget;
        const SimNanos busy = slice + cfg_.overheads.switch_overhead;
        // Effective-quantum metric (Figure 16): spacing between grants
        // net of the constant per-slice mechanism overhead.
        core.grant_intervals += slice;
        ++core.grants;
        if (num_classes_ != 0) {
            class_grant_intervals_[static_cast<size_t>(cls)] += slice;
            ++class_grants_[static_cast<size_t>(cls)];
        }
        core_.schedule(core_.now() + busy, kCoreDone, c);
    }

    void
    on_core_done(int c)
    {
        Core &core = cores_[static_cast<size_t>(c)];
        const uint32_t unit = core.running;
        core.running = kNone;
        double &remaining = unit_remaining_[unit];
        remaining -= core.slice;

        if (core.ledger)
            core.ledger->settle(class_of(unit), core.granted, core.slice);

        if (remaining <= 1e-9) {
            // Unit done: the response leaves directly from the worker
            // once the request's LAST unit drains (a fanned-out request
            // gathers at the client).
            --core.jobs;
            core.quanta_sum -= unit_quanta_[unit];
            if (core.ledger)
                core.ledger->retire(class_of(unit));
            const uint32_t idx = idx_of(unit);
            if (--units_live_[idx] == 0)
                core_.complete(idx,
                               core_.now() + cfg_.overheads.response_cost);
        } else {
            ++unit_quanta_[unit];
            ++core.quanta_sum;
            enqueue(core, unit); // PS: back of the round-robin queue
        }
        start_slice(c);
    }

    const TwoLevelConfig &cfg_;
    EngineCore core_;
    uint32_t fanout_;

    /** Per-unit state, indexed by unit. */
    std::vector<double> unit_remaining_;
    std::vector<uint64_t> unit_quanta_;
    std::vector<uint32_t> units_live_; ///< per job index

    std::vector<Dispatcher> dispatchers_;
    /** Shard d's owned core span; one all-cores span when unsharded. */
    std::vector<ShardSpan> spans_;
    /** Shard d's dispatch view over its span (span-local lanes). */
    std::vector<DispatchView> views_;
    /** Units steered to shard d, still crossing the front-tier pick
     *  latency (constant delay => FIFO per shard). */
    std::vector<std::deque<uint32_t>> front_pending_;
    /** Scratch for the front tier's per-shard load estimates. */
    std::vector<uint32_t> front_loads_;
    std::vector<Core> cores_;
    SimNanos last_refresh_ = -1;

    // Per-class grant statistics (SimResult::class_effective_quantum).
    size_t num_classes_ = 0;
    std::vector<double> class_grant_intervals_;
    std::vector<uint64_t> class_grants_;
    uint64_t starvation_promotions_ = 0;
};

} // namespace

SimResult
run_two_level(const TwoLevelConfig &cfg, const ServiceDist &dist, double rate)
{
    TwoLevelSim sim(cfg, dist, rate);
    return sim.run();
}

} // namespace tq::sim
