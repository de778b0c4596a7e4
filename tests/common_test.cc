/**
 * @file
 * Unit tests for tq_common: RNG, distributions, percentiles, histograms,
 * unit conversions, the cycle clock, and the per-core scheduling core
 * (run queue + per-class ledger) shared by the runtime and the sim.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <tuple>
#include <vector>

#include "common/arrival.h"
#include "common/cycles.h"
#include "common/dist.h"
#include "common/histogram.h"
#include "common/percentile.h"
#include "common/rng.h"
#include "common/run_queue.h"
#include "common/shard.h"
#include "common/units.h"
#include "common/zipf.h"

namespace tq {
namespace {

TEST(Units, Conversions)
{
    EXPECT_DOUBLE_EQ(us(2.0), 2000.0);
    EXPECT_DOUBLE_EQ(ms(1.0), 1e6);
    EXPECT_DOUBLE_EQ(sec(1.0), 1e9);
    EXPECT_DOUBLE_EQ(to_us(us(3.5)), 3.5);
    EXPECT_DOUBLE_EQ(to_sec(sec(2.0)), 2.0);
    // 1 Mrps = 1e-3 requests per nanosecond.
    EXPECT_DOUBLE_EQ(mrps(1.0), 1e-3);
    EXPECT_DOUBLE_EQ(to_mrps(mrps(4.5)), 4.5);
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42), c(43);
    bool diverged = false;
    for (int i = 0; i < 100; ++i) {
        const uint64_t va = a();
        EXPECT_EQ(va, b());
        diverged |= (va != c());
    }
    EXPECT_TRUE(diverged);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(1);
    double sum = 0;
    for (int i = 0; i < 100000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 100000, 0.5, 0.01);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    std::vector<int> counts(10, 0);
    for (int i = 0; i < 100000; ++i)
        ++counts[rng.below(10)];
    for (int c : counts)
        EXPECT_NEAR(c, 10000, 600); // ~6 sigma
}

TEST(Rng, ExponentialMean)
{
    Rng rng(3);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.exponential(5.0);
        ASSERT_GE(x, 0.0);
        sum += x;
    }
    EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(11);
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        hits += rng.bernoulli(0.25);
    EXPECT_NEAR(hits / 100000.0, 0.25, 0.01);
}

TEST(FixedDist, AlwaysSameValue)
{
    FixedDist d(us(3), "spin");
    Rng rng(1);
    for (int i = 0; i < 10; ++i) {
        const auto s = d.sample(rng);
        EXPECT_DOUBLE_EQ(s.demand, us(3));
        EXPECT_EQ(s.job_class, 0);
    }
    EXPECT_DOUBLE_EQ(d.mean(), us(3));
    EXPECT_EQ(d.class_names().size(), 1u);
}

TEST(ExponentialDist, MeanMatches)
{
    ExponentialDist d(us(1));
    Rng rng(2);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += d.sample(rng).demand;
    EXPECT_NEAR(sum / n, us(1), us(0.02));
    EXPECT_DOUBLE_EQ(d.mean(), us(1));
}

TEST(MixtureDist, ClassFrequenciesMatchWeights)
{
    auto d = workload_table::extreme_bimodal();
    Rng rng(5);
    int longs = 0;
    const int n = 400000;
    for (int i = 0; i < n; ++i) {
        const auto s = d->sample(rng);
        if (s.job_class == 1) {
            EXPECT_DOUBLE_EQ(s.demand, us(500));
            ++longs;
        } else {
            EXPECT_DOUBLE_EQ(s.demand, us(0.5));
        }
    }
    EXPECT_NEAR(longs / static_cast<double>(n), 0.005, 0.0012);
}

TEST(MixtureDist, MeanIsWeightedAverage)
{
    auto d = workload_table::high_bimodal();
    EXPECT_NEAR(d->mean(), 0.5 * us(1) + 0.5 * us(100), 1e-9);
}

TEST(MixtureDist, TpccHasFiveClasses)
{
    auto d = workload_table::tpcc();
    EXPECT_EQ(d->class_names().size(), 5u);
    EXPECT_EQ(d->class_names()[0], "Payment");
    EXPECT_EQ(d->class_names()[4], "StockLevel");
    // Mean of Table 1: .44*5.7 + .04*6 + .44*20 + .04*88 + .04*100
    EXPECT_NEAR(to_us(d->mean()), 19.068, 1e-6);
}

TEST(MixtureDist, RocksdbScanFraction)
{
    auto d = workload_table::rocksdb(0.5);
    Rng rng(6);
    int scans = 0;
    for (int i = 0; i < 100000; ++i)
        scans += d->sample(rng).job_class == 1;
    EXPECT_NEAR(scans / 100000.0, 0.5, 0.01);
}

TEST(PercentileTracker, ExactQuantilesOfKnownData)
{
    PercentileTracker t;
    for (int i = 1; i <= 1000; ++i)
        t.add(i);
    EXPECT_EQ(t.count(), 1000u);
    EXPECT_DOUBLE_EQ(t.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(t.quantile(0.5), 501.0);
    EXPECT_DOUBLE_EQ(t.quantile(0.999), 1000.0);
    EXPECT_DOUBLE_EQ(t.quantile(1.0), 1000.0);
}

TEST(PercentileTracker, WarmupDiscardsPrefix)
{
    PercentileTracker t;
    // First 10% are huge outliers that warm-up should remove.
    for (int i = 0; i < 100; ++i)
        t.add(1e9);
    for (int i = 0; i < 900; ++i)
        t.add(1.0);
    EXPECT_DOUBLE_EQ(t.quantile(0.99, 0.1), 1.0);
    EXPECT_DOUBLE_EQ(t.mean(0.1), 1.0);
    EXPECT_DOUBLE_EQ(t.max(0.1), 1.0);
}

TEST(PercentileTracker, EmptyReturnsZero)
{
    PercentileTracker t;
    EXPECT_TRUE(t.empty());
    EXPECT_DOUBLE_EQ(t.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(t.mean(), 0.0);
}

TEST(PercentileTracker, BatchQuantilesMatchSingleCalls)
{
    Rng rng(11);
    PercentileTracker t;
    t.reserve(4000);
    for (int i = 0; i < 4000; ++i)
        t.add(rng.exponential(3.0));
    const double qs[] = {0.0, 0.5, 0.99, 0.999, 1.0};
    const auto batch = t.quantiles(qs);
    const auto warm = t.quantiles(qs, 0.1);
    ASSERT_EQ(batch.size(), std::size(qs));
    for (size_t i = 0; i < std::size(qs); ++i) {
        EXPECT_DOUBLE_EQ(batch[i], t.quantile(qs[i]));
        EXPECT_DOUBLE_EQ(warm[i], t.quantile(qs[i], 0.1));
    }
    EXPECT_EQ(PercentileTracker().quantiles(qs),
              std::vector<double>(std::size(qs), 0.0));
}

TEST(PercentileTracker, MatchesSortOracleOnRandomData)
{
    Rng rng(9);
    PercentileTracker t;
    std::vector<double> oracle;
    for (int i = 0; i < 5000; ++i) {
        const double v = rng.uniform(0, 1000);
        t.add(v);
        oracle.push_back(v);
    }
    std::sort(oracle.begin(), oracle.end());
    for (double q : {0.1, 0.5, 0.9, 0.99, 0.999}) {
        size_t rank = static_cast<size_t>(q * oracle.size());
        if (rank >= oracle.size())
            rank = oracle.size() - 1;
        EXPECT_DOUBLE_EQ(t.quantile(q), oracle[rank]) << "q=" << q;
    }
}

TEST(LogHistogram, BucketEdges)
{
    LogHistogram h(64, 8); // 64..16384 in 8 buckets
    EXPECT_EQ(h.bucket_lo(0), 64u);
    EXPECT_EQ(h.bucket_hi(0), 128u);
    EXPECT_EQ(h.bucket_lo(7), 8192u);
    EXPECT_EQ(h.bucket_hi(7), 16384u);
}

TEST(LogHistogram, CountsLandInRightBuckets)
{
    LogHistogram h(64, 8);
    h.add(10);      // underflow
    h.add(64);      // bucket 0
    h.add(127);     // bucket 0
    h.add(128);     // bucket 1
    h.add(16383);   // bucket 7
    h.add(16384);   // overflow
    EXPECT_EQ(h.total(), 6u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.bucket_count(0), 2u);
    EXPECT_EQ(h.bucket_count(1), 1u);
    EXPECT_EQ(h.bucket_count(7), 1u);
    EXPECT_EQ(h.overflow(), 1u);
}

TEST(LogHistogram, FractionAbove)
{
    LogHistogram h(1, 20);
    for (int i = 0; i < 90; ++i)
        h.add(100); // bucket [64,128)
    for (int i = 0; i < 10; ++i)
        h.add(100000);
    EXPECT_NEAR(h.fraction_above(8192), 0.10, 1e-9);
    EXPECT_NEAR(h.fraction_above(64), 1.0, 1e-9); // bucket straddles
}

TEST(OnOffProcess, DeterministicForSameSeed)
{
    OnOffConfig cfg; // defaults: exponential phases (2-state MMPP)
    OnOffProcess a(1e-3, cfg), b(1e-3, cfg);
    Rng ra(7), rb(7);
    double ta = 0, tb = 0;
    for (int i = 0; i < 5000; ++i) {
        ta = a.next(ta, ra);
        tb = b.next(tb, rb);
        ASSERT_DOUBLE_EQ(ta, tb);
        ASSERT_GT(ta, 0.0);
    }
    EXPECT_EQ(a.phases_begun(), b.phases_begun());
    EXPECT_GT(a.phases_begun(), 0u);
}

// Regression (zero-rate phases): a fully silent OFF phase used to be a
// division hazard for gap-based samplers (gap = exp / rate with
// rate = 0). The inversion sampler steps over zero-capacity phases
// without dividing: every draw must come back finite, strictly
// increasing, and inside an ON window.
TEST(OnOffProcess, ZeroRateOffPhasesAreSkippedWithoutDivision)
{
    OnOffConfig cfg;
    cfg.on_mult = 1.0;
    cfg.off_mult = 0.0; // fully silent
    cfg.on_ns = 100.0;
    cfg.off_ns = 900.0;
    cfg.exponential_phases = false; // deterministic windows
    OnOffProcess p(1.0, cfg);       // ~100 arrivals per ON window
    Rng rng(3);
    double t = 0;
    for (int i = 0; i < 20000; ++i) {
        const double prev = t;
        t = p.next(t, rng);
        ASSERT_TRUE(std::isfinite(t));
        ASSERT_GT(t, prev);
        // ON windows are [1000k, 1000k + 100).
        const double in_cycle = std::fmod(t, 1000.0);
        ASSERT_LT(in_cycle, 100.0) << "arrival in a silent phase at " << t;
    }
}

// Near-zero (subnormal-adjacent) OFF rates must neither spin for an
// unbounded number of phases nor emit bursts inside the OFF windows.
TEST(OnOffProcess, NearZeroOffRateStaysFiniteAndOrdered)
{
    OnOffConfig cfg;
    cfg.on_mult = 2.0;
    cfg.off_mult = 1e-300;
    cfg.on_ns = 50e3;
    cfg.off_ns = 50e3;
    OnOffProcess p(1e-3, cfg);
    Rng rng(11);
    double t = 0;
    for (int i = 0; i < 5000; ++i) {
        const double prev = t;
        t = p.next(t, rng);
        ASSERT_TRUE(std::isfinite(t));
        ASSERT_GT(t, prev);
    }
}

// Full-amplitude diurnal ramp: the trough multiplier touches zero
// (phase rate 0) — the sampler must step over trough phases exactly
// like silent OFF phases.
TEST(OnOffProcess, FullAmplitudeRampTroughDoesNotStall)
{
    OnOffConfig cfg;
    cfg.on_mult = 1.0;
    cfg.off_mult = 1.0; // pure diurnal modulation
    cfg.on_ns = 1e3;
    cfg.off_ns = 1e3;
    cfg.exponential_phases = false;
    cfg.ramp_period_ns = 100e3;
    cfg.ramp_amplitude = 1.0;
    OnOffProcess p(1e-2, cfg);
    Rng rng(5);
    double t = 0;
    for (int i = 0; i < 10000; ++i) {
        const double prev = t;
        t = p.next(t, rng);
        ASSERT_TRUE(std::isfinite(t));
        ASSERT_GT(t, prev);
    }
}

TEST(OnOffProcess, LongRunRateMatchesDutyCycleMean)
{
    OnOffConfig cfg;
    cfg.on_mult = 3.0;
    cfg.off_mult = 0.5;
    cfg.on_ns = 20e3;
    cfg.off_ns = 60e3;
    OnOffProcess p(1e-3, cfg);
    // mean = 1e-3 * (3 * 20 + 0.5 * 60) / 80 = 1.125e-3
    EXPECT_NEAR(p.mean_rate(), 1.125e-3, 1e-12);
    Rng rng(17);
    double t = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        t = p.next(t, rng);
    const double empirical = n / t;
    EXPECT_NEAR(empirical, p.mean_rate(), 0.05 * p.mean_rate());
}

TEST(ArrivalSpec, FactoryBuildsTheRequestedProcess)
{
    ArrivalSpec spec; // default Poisson
    const auto poisson = make_arrival_process(spec, 2e-3);
    EXPECT_DOUBLE_EQ(poisson->mean_rate(), 2e-3);
    EXPECT_EQ(poisson->phases_begun(), 0u);
    // Poisson draws are value-for-value the historical inline code:
    // one exponential at the mean gap (500ns at 2e-3/ns).
    Rng a(9), b(9);
    double t = 0, u = 0;
    for (int i = 0; i < 100; ++i) {
        t = poisson->next(t, a);
        u += b.exponential(500.0);
        ASSERT_DOUBLE_EQ(t, u);
    }
    spec.kind = ArrivalSpec::Kind::OnOff;
    const auto onoff = make_arrival_process(spec, 2e-3);
    Rng c(1);
    onoff->next(0.0, c);
    EXPECT_GT(onoff->phases_begun(), 0u);
}

TEST(Zipf, FrequenciesMatchPmf)
{
    const uint64_t n = 16;
    Zipf z(n, 1.2);
    Rng rng(23);
    std::vector<uint64_t> counts(n, 0);
    const int samples = 200000;
    for (int i = 0; i < samples; ++i) {
        const uint64_t r = z.sample(rng);
        ASSERT_LT(r, n);
        ++counts[r];
    }
    double pmf_sum = 0;
    for (uint64_t r = 0; r < n; ++r) {
        const double expected = z.pmf(r);
        pmf_sum += expected;
        const double observed =
            static_cast<double>(counts[r]) / samples;
        EXPECT_NEAR(observed, expected, 0.05 * expected + 0.002)
            << "rank " << r;
    }
    EXPECT_NEAR(pmf_sum, 1.0, 1e-9);
    // Monotone popularity: rank 0 is the hottest.
    for (uint64_t r = 1; r < n; ++r)
        EXPECT_GE(counts[r - 1], counts[r] / 2);
}

// Regression (s -> 1 precision): the naive h-integral
// (x^(1-s) - 1) / (1 - s) is 0/0 at s = 1. The rejection-inversion
// helpers switch to expm1/log1p forms, so the distribution must vary
// continuously through s = 1 instead of collapsing or NaN-ing.
TEST(Zipf, ContinuousThroughSEqualsOne)
{
    const uint64_t n = 1024;
    const double eps = 1e-12; // well inside double rounding of 1 - s
    Zipf below(n, 1.0 - eps), at(n, 1.0), above(n, 1.0 + eps);
    for (uint64_t r : {uint64_t{0}, uint64_t{1}, uint64_t{7},
                       uint64_t{511}, n - 1}) {
        const double p = at.pmf(r);
        ASSERT_TRUE(std::isfinite(p));
        ASSERT_GT(p, 0.0);
        EXPECT_NEAR(below.pmf(r), p, 1e-6 * p);
        EXPECT_NEAR(above.pmf(r), p, 1e-6 * p);
    }
    // Sampling at exactly s = 1 stays in range and hits the head hard.
    Rng rng(31);
    uint64_t head = 0;
    const int samples = 20000;
    for (int i = 0; i < samples; ++i) {
        const uint64_t r = at.sample(rng);
        ASSERT_LT(r, n);
        head += r == 0;
    }
    // pmf(0) at s=1, n=1024 is 1/H_1024 ~ 0.133.
    EXPECT_NEAR(static_cast<double>(head) / samples, at.pmf(0),
                0.25 * at.pmf(0));
}

TEST(Zipf, DegenerateCases)
{
    Zipf one(1, 0.99);
    EXPECT_DOUBLE_EQ(one.pmf(0), 1.0);
    Rng rng(1);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(one.sample(rng), 0u);
    // s = 0 is the uniform distribution.
    Zipf uniform(64, 0.0);
    for (uint64_t r = 0; r < 64; ++r)
        EXPECT_NEAR(uniform.pmf(r), 1.0 / 64, 1e-12);
}

TEST(ShardSpan, PartitionIsContiguousDisjointAndEven)
{
    // Every (workers, shards) pair up to the runtime's limits: the
    // spans must tile [0, W) exactly, differ by at most one worker, and
    // shard_of_worker must invert the mapping.
    for (int workers = 1; workers <= 64; ++workers) {
        for (int shards = 1; shards <= std::min(workers, 16); ++shards) {
            int next = 0;
            int min_count = workers, max_count = 0;
            for (int s = 0; s < shards; ++s) {
                const ShardSpan span = shard_span(workers, shards, s);
                ASSERT_EQ(span.first, next)
                    << workers << "w/" << shards << "s shard " << s;
                ASSERT_GE(span.count, 1);
                min_count = std::min(min_count, span.count);
                max_count = std::max(max_count, span.count);
                for (int w = span.first; w < span.first + span.count; ++w)
                    ASSERT_EQ(shard_of_worker(workers, shards, w), s)
                        << workers << "w/" << shards << "s worker " << w;
                next = span.first + span.count;
            }
            ASSERT_EQ(next, workers);
            ASSERT_LE(max_count - min_count, 1);
        }
    }
}

TEST(PickMinRotated, MatchesScalarOracleUnderRandomLoads)
{
    // Property test for the front-tier JSQ pick: against a brute-force
    // oracle, the winner must be the *earliest shard in rotated order*
    // holding the global minimum load (strictly-smaller-wins contract,
    // common/shard.h). Small load ranges force heavy tying so the
    // tie-break path dominates the trials.
    Rng rng(2024);
    for (int trial = 0; trial < 20000; ++trial) {
        const size_t n = 1 + rng.below(16);
        uint32_t loads[16];
        for (size_t i = 0; i < n; ++i)
            loads[i] = static_cast<uint32_t>(rng.below(trial % 2 ? 4 : 1000));
        const uint64_t start = rng() % 1000;
        const int got = pick_min_rotated(loads, n, start);

        uint32_t min_load = loads[0];
        for (size_t i = 1; i < n; ++i)
            min_load = std::min(min_load, loads[i]);
        int oracle = -1;
        for (size_t step = 0; step < n; ++step) {
            const size_t i = (static_cast<size_t>(start % n) + step) % n;
            if (loads[i] == min_load) {
                oracle = static_cast<int>(i);
                break;
            }
        }
        ASSERT_EQ(got, oracle) << "trial " << trial << " n=" << n
                               << " start=" << start;
        ASSERT_EQ(loads[static_cast<size_t>(got)], min_load);
    }
}

TEST(PickMinRotated, RotationRoundRobinsTiedShards)
{
    // At idle every load estimate reads zero; successive rotated starts
    // must spread picks round-robin instead of piling onto shard 0.
    const uint32_t idle[4] = {0, 0, 0, 0};
    for (uint64_t k = 0; k < 64; ++k)
        EXPECT_EQ(pick_min_rotated(idle, 4, k),
                  static_cast<int>(k % 4));
}

// ---------------------------------------------------------------------
// Per-core scheduling core (common/run_queue.h).
// ---------------------------------------------------------------------

/** A queued test job: id, class and LAS (key, seq), all stored. */
template <typename Key>
struct Item
{
    int id;
    int cls;
    Key key;
    uint64_t seq;
};

template <typename Key>
struct ItemOrder
{
    static bool
    before(const Item<Key> &a, const Item<Key> &b)
    {
        return a.key < b.key || (!(b.key < a.key) && a.seq < b.seq);
    }
    static int cls(const Item<Key> &x) { return x.cls; }
};

template <typename Key>
using ItemQueue = RunQueue<Item<Key>, ItemOrder<Key>>;

template <typename Q>
std::vector<int>
drain_all(Q &q)
{
    std::vector<int> out;
    while (!q.empty())
        out.push_back(q.pop().id);
    return out;
}

TEST(RunQueue, FifoForPsAndFcfsKeySeqForLas)
{
    for (WorkPolicy p : {WorkPolicy::ProcessorSharing, WorkPolicy::Fcfs}) {
        ItemQueue<uint32_t> q(p); // keys and sequences are ignored
        q.push({10, 0, 9, 5});
        q.push({11, 1, 0, 4});
        EXPECT_EQ(q.pop().id, 10);
        q.push({10, 0, 1, 6}); // a preempted job rejoins at the tail
        EXPECT_EQ(drain_all(q), (std::vector<int>{11, 10}));
    }
    ItemQueue<uint32_t> las(WorkPolicy::Las);
    for (auto [item, key, seq] : {std::tuple{1, 2u, 0}, {2, 0u, 3},
                                  {3, 0u, 1}, {4, 1u, 2}, {5, 0u, 7}})
        las.push({item, 0, key, static_cast<uint64_t>(seq)});
    EXPECT_EQ(las.size(), 5u);
    EXPECT_EQ(drain_all(las), (std::vector<int>{3, 2, 5, 4, 1}));
    // The sim's floating keys: equal keys fall back to the sequence.
    ItemQueue<double> d(WorkPolicy::Las);
    for (auto [item, key] : {std::pair{1, 250.5}, {2, 0.0}, {3, 250.5},
                             {4, 0.0}})
        d.push({item, 0, key, static_cast<uint64_t>(item)});
    EXPECT_EQ(drain_all(d), (std::vector<int>{2, 4, 1, 3}));
}

TEST(RunQueue, ExtractClassTakesTheClassBestAndClearVisitsAll)
{
    for (WorkPolicy p : {WorkPolicy::ProcessorSharing, WorkPolicy::Las}) {
        ItemQueue<uint32_t> q(p);
        const uint32_t keys[] = {0, 3, 1, 2, 1};
        for (int i = 0; i < 5; ++i)
            q.push({i + 1, i == 0 || i == 3 ? 0 : 1, keys[i],
                    static_cast<uint64_t>(i)});
        Item<uint32_t> out{-1, -1, 0, 0};
        EXPECT_FALSE(q.extract_class(2, out));
        ASSERT_TRUE(q.extract_class(1, out));
        // PS: the class's first queued entry; LAS: its (key, seq) min.
        EXPECT_EQ(out.id, p == WorkPolicy::Las ? 3 : 2);
        int sum = 0, class1 = 0;
        q.clear([&](const Item<uint32_t> &item) {
            sum += item.id;
            class1 += item.cls;
        });
        EXPECT_EQ(sum, 15 - out.id);
        EXPECT_EQ(class1, 2);
        EXPECT_TRUE(q.empty());
    }
}

TEST(ClassLedger, DeficitIsClampedAndTheBudgetFloored)
{
    ClassLedger<uint64_t, int64_t> l(2, /*clamp=*/8, /*promote_after=*/0);
    l.admit(0);
    EXPECT_EQ(l.grant(0, 20), 20u);
    l.settle(0, 20, 15); // early finish banks credit
    EXPECT_EQ(l.grant(0, 20), 25u);
    l.settle(0, 25, 10);
    EXPECT_EQ(l.account(0).deficit, 8) << "credit clamps at +clamp";
    EXPECT_EQ(l.grant(0, 20), 28u);
    l.settle(0, 28, 100); // overrun goes into debt
    EXPECT_EQ(l.account(0).deficit, -8) << "debt clamps at -clamp";
    EXPECT_EQ(l.grant(0, 20), 12u);
    EXPECT_EQ(l.grant(0, 8), 3u) << "floor base/4 + 1 binds";
    EXPECT_EQ(l.grant(0, 0), 1u) << "every grant makes progress";
    EXPECT_EQ(l.account(1).deficit, 0) << "accounts are per class";

    ClassLedger<double, double> zero(1, 0.0, 0);
    zero.admit(0);
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(zero.grant(0, 500.0), 500.0) << "a 0 clamp keeps base";
        zero.settle(0, 500.0, 120.0);
    }
}

TEST(ClassLedger, RunnableClassesAgeAndTheWorstIsPromoted)
{
    ClassLedger<uint64_t, int64_t> l(4, 0, /*promote_after=*/3);
    for (int c : {0, 1, 2})
        l.admit(c);
    for (int i = 0; i < 2; ++i)
        l.grant(0, 10);
    EXPECT_EQ(l.account(1).skipped, 2u);
    EXPECT_EQ(l.account(3).skipped, 0u) << "class 3 is not runnable";
    EXPECT_EQ(l.starved(), -1) << "below the threshold";
    l.grant(0, 10);
    EXPECT_EQ(l.starved(), 1) << "ties go to the lowest class";
    l.grant(1, 10);
    EXPECT_EQ(l.account(1).skipped, 0u) << "a grant resets the clock";
    EXPECT_EQ(l.starved(), 2);
    l.retire(2);
    EXPECT_EQ(l.starved(), -1) << "nothing queued, nothing starves";

    ClassLedger<uint64_t, int64_t> off(2, 0, /*promote_after=*/0);
    off.admit(1);
    for (int i = 0; i < 100; ++i)
        off.grant(0, 10);
    EXPECT_EQ(off.starved(), -1) << "0 disables the guard";
}

/**
 * Differential test of the per-core loop (admit; pick with the guard;
 * grant; settle; finish or requeue) against a brute-force reference
 * that keeps the queue as a vector in push order and scans it. LAS runs
 * with both engines' tie sequences: the runtime's admission sequence
 * (reference: the lexicographic (quanta, seq) minimum) and the sim's
 * push count (reference: the first strict minimum in push order). At
 * every grant: the same job is picked; budget and deficit match the
 * reference and |deficit| <= clamp; and no runnable class is passed
 * over more than promote_after + (classes - 2) grants in a row, which
 * is promote_after with two classes. With more, each class already at
 * the threshold takes one grant first; the random sequences do exceed
 * promote_after alone.
 */
TEST(SchedulingCore, MatchesBruteForceReferenceOnRandomSequences)
{
    struct Job
    {
        int id, cls, slices_left;
        uint32_t quanta;
        uint64_t seq;
    };
    uint64_t promotions = 0, floor_hits = 0, clamp_hits = 0;
    for (int trial = 0; trial < 400; ++trial) {
        Rng rng(0x5eed0000u + static_cast<uint64_t>(trial));
        const bool las = trial % 2 == 0;
        const bool push_seq = (trial / 2) % 2 == 0; // the sim's sequence
        const size_t classes = 2 + rng.below(4);
        const int64_t clamp = static_cast<int64_t>(rng.below(60));
        const uint64_t after = 1 + rng.below(6);
        std::vector<uint64_t> base(classes);
        for (auto &b : base)
            b = 4 + rng.below(40);
        ItemQueue<uint32_t> q(las ? WorkPolicy::Las
                                  : WorkPolicy::ProcessorSharing);
        ClassLedger<uint64_t, int64_t> ledger(classes, clamp, after);
        std::vector<Job> ref; // push order
        std::vector<int64_t> deficit(classes, 0);
        std::vector<uint64_t> skipped(classes, 0);
        std::vector<uint32_t> runnable(classes, 0);
        uint64_t next_seq = 0;
        for (int step = 0, next_id = 0; step < 600; ++step) {
            if (ref.empty() || (ref.size() < 24 && rng.below(2) == 0)) {
                // Class 0 floods with one-slice jobs, which under LAS
                // always beat requeued work; others run several slices.
                const int cls = rng.below(2) == 0
                                    ? 0
                                    : static_cast<int>(rng.below(classes));
                const int slices =
                    cls == 0 ? 1 : 1 + static_cast<int>(rng.below(6));
                ref.push_back(Job{next_id++, cls, slices, 0, next_seq++});
                q.push({ref.back().id, cls, 0, ref.back().seq});
                ledger.admit(cls);
                ++runnable[static_cast<size_t>(cls)];
                continue;
            }
            int starved = -1;
            for (size_t k = 0; k < classes; ++k)
                if (runnable[k] != 0 && skipped[k] >= after &&
                    (starved < 0 ||
                     skipped[k] > skipped[static_cast<size_t>(starved)]))
                    starved = static_cast<int>(k);
            size_t best = ref.size();
            for (size_t i = 0; i < ref.size(); ++i) {
                if (starved >= 0 && ref[i].cls != starved)
                    continue;
                if (best == ref.size() ||
                    (las && (ref[i].quanta < ref[best].quanta ||
                             (!push_seq &&
                              ref[i].quanta == ref[best].quanta &&
                              ref[i].seq < ref[best].seq))))
                    best = i;
                if (!las)
                    break;
            }
            Job job = ref[best];
            ref.erase(ref.begin() + static_cast<ptrdiff_t>(best));

            Item<uint32_t> got{-1, -1, 0, 0};
            ASSERT_EQ(ledger.starved(), starved) << "trial " << trial;
            if (starved >= 0) {
                ASSERT_TRUE(q.extract_class(starved, got));
                ++promotions;
            } else {
                got = q.pop();
            }
            ASSERT_EQ(got.id, job.id)
                << "trial " << trial << " step " << step;

            const size_t c = static_cast<size_t>(job.cls);
            const int64_t want = static_cast<int64_t>(base[c]) + deficit[c];
            const int64_t floor = static_cast<int64_t>(base[c] / 4) + 1;
            floor_hits += want < floor;
            const uint64_t budget = ledger.grant(job.cls, base[c]);
            ASSERT_EQ(budget, static_cast<uint64_t>(std::max(want, floor)));
            for (size_t k = 0; k < classes; ++k) {
                skipped[k] = k == c ? 0 : skipped[k] + (runnable[k] != 0);
                ASSERT_EQ(ledger.account(static_cast<int>(k)).skipped,
                          skipped[k]);
                ASSERT_LE(skipped[k], after + classes - 2)
                    << "class " << k << " starved, trial " << trial;
            }

            const uint64_t used = rng.below(3 * budget + 1); // to 3x over
            ledger.settle(job.cls, budget, used);
            const int64_t settled = deficit[c] +
                                    static_cast<int64_t>(budget) -
                                    static_cast<int64_t>(used);
            clamp_hits += settled > clamp || settled < -clamp;
            deficit[c] = std::clamp(settled, -clamp, clamp);
            ASSERT_EQ(ledger.account(job.cls).deficit, deficit[c]);
            ASSERT_LE(std::abs(deficit[c]), clamp);

            if (--job.slices_left == 0) {
                ledger.retire(job.cls);
                --runnable[c];
            } else {
                ++job.quanta;
                if (push_seq)
                    job.seq = next_seq++;
                q.push({job.id, job.cls, job.quanta, job.seq});
                ref.push_back(job);
            }
        }
    }
    // The random sequences reach every cold path they check.
    EXPECT_GT(promotions, 0u);
    EXPECT_GT(floor_hits, 0u);
    EXPECT_GT(clamp_hits, 0u);
}

TEST(Cycles, MonotonicAndCalibrated)
{
    const double ratio = cycles_per_ns();
    EXPECT_GT(ratio, 0.1);  // >100 MHz
    EXPECT_LT(ratio, 10.0); // <10 GHz
    const Cycles a = rdcycles();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const Cycles b = rdcycles();
    const double elapsed_ns = cycles_to_ns(b - a);
    EXPECT_GT(elapsed_ns, 4e6);
    EXPECT_LT(elapsed_ns, 1e9);
    EXPECT_NEAR(cycles_to_ns(ns_to_cycles(1000.0)), 1000.0, 2.0);
}

} // namespace
} // namespace tq
