/**
 * @file
 * Unit and stress tests for tq_conc: SPSC ring, MPMC queue, buffer pool,
 * spin mutex, cache-line padding.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "conc/buffer_pool.h"
#include "conc/cacheline.h"
#include "conc/mpmc_queue.h"
#include "conc/spin_mutex.h"
#include "conc/spsc_ring.h"

namespace tq {
namespace {

TEST(CacheAligned, OccupiesWholeLines)
{
    EXPECT_EQ(sizeof(CacheAligned<int>) % kCacheLineSize, 0u);
    EXPECT_EQ(alignof(CacheAligned<int>), kCacheLineSize);
    EXPECT_EQ(sizeof(PaddedAtomic<uint64_t>), kCacheLineSize);
}

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo)
{
    EXPECT_EQ(SpscRing<int>(1).capacity(), 1u);
    EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
    EXPECT_EQ(SpscRing<int>(1000).capacity(), 1024u);
}

TEST(SpscRing, FifoOrderSingleThread)
{
    SpscRing<int> ring(8);
    for (int i = 0; i < 8; ++i)
        EXPECT_TRUE(ring.push(i));
    EXPECT_FALSE(ring.push(99)) << "ring should be full";
    for (int i = 0; i < 8; ++i) {
        auto v = ring.pop();
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(*v, i);
    }
    EXPECT_FALSE(ring.pop().has_value());
}

TEST(SpscRing, WrapsAroundManyTimes)
{
    SpscRing<int> ring(4);
    for (int round = 0; round < 1000; ++round) {
        EXPECT_TRUE(ring.push(round));
        auto v = ring.pop();
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(*v, round);
    }
    EXPECT_TRUE(ring.empty());
}

class SpscRingCapacities : public ::testing::TestWithParam<size_t>
{
};

TEST_P(SpscRingCapacities, TwoThreadFifoStress)
{
    const size_t cap = GetParam();
    SpscRing<uint64_t> ring(cap);
    constexpr uint64_t kCount = 50000;

    std::thread producer([&] {
        for (uint64_t i = 0; i < kCount; ++i) {
            while (!ring.push(i))
                std::this_thread::yield();
        }
    });
    uint64_t expected = 0;
    while (expected < kCount) {
        auto v = ring.pop();
        if (!v) {
            std::this_thread::yield();
            continue;
        }
        ASSERT_EQ(*v, expected) << "FIFO order violated";
        ++expected;
    }
    producer.join();
    EXPECT_TRUE(ring.empty());
}

INSTANTIATE_TEST_SUITE_P(Capacities, SpscRingCapacities,
                         ::testing::Values(1, 2, 8, 64, 1024));

TEST(SpscRing, PopAllAndScalarOpsInterleaveFifo)
{
    // Mixed scalar push / pop / pop_into / pop_all must observe one
    // FIFO stream: pop_all moves the same indices the scalar ops do.
    SpscRing<int> ring(16);
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(ring.push(i));

    auto v = ring.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 0);
    int out = -1;
    ASSERT_TRUE(ring.pop_into(out));
    EXPECT_EQ(out, 1);
    std::vector<int> dst;
    EXPECT_EQ(ring.pop_all(dst), 6u) << "only six left";
    ASSERT_EQ(dst.size(), 6u);
    for (int i = 0; i < 6; ++i)
        EXPECT_EQ(dst[static_cast<size_t>(i)], i + 2);
    EXPECT_TRUE(ring.empty());
    ASSERT_TRUE(ring.push(8));
    EXPECT_EQ(ring.pop().value_or(-1), 8) << "scalar ops resume after pop_all";
}

TEST(SpscRing, PopAllTakesEverythingPublishedAcrossTheWrap)
{
    // pop_all appends what the producer had published at its one index
    // load, in FIFO order, including a run that wraps past the end of
    // the slot storage.
    SpscRing<int> ring(8);
    std::vector<int> out = {-1};
    EXPECT_EQ(ring.pop_all(out), 0u) << "empty ring appends nothing";
    EXPECT_EQ(out.size(), 1u);
    for (int i = 0; i < 6; ++i)
        ASSERT_TRUE(ring.push(i));
    for (int i = 0; i < 5; ++i)
        ASSERT_EQ(ring.pop().value_or(-1), i); // tail now at slot 5
    for (int i = 6; i < 13; ++i)
        ASSERT_TRUE(ring.push(i)); // slots 6, 7, then 0..4: wraps
    EXPECT_EQ(ring.pop_all(out), 8u);
    ASSERT_EQ(out.size(), 9u);
    EXPECT_EQ(out[0], -1) << "appends, never overwrites";
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(out[static_cast<size_t>(i) + 1], i + 5);
    EXPECT_TRUE(ring.empty());
    EXPECT_TRUE(ring.push(13)) << "the consumer index was released";
}

TEST(SpscRing, FullAndEmptyRingsRefuse)
{
    SpscRing<int> ring(4);
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(ring.push(i));
    EXPECT_FALSE(ring.push(4)) << "full ring accepts nothing";

    std::vector<int> dst;
    EXPECT_EQ(ring.pop_all(dst), 4u) << "drains what is there";
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(dst[static_cast<size_t>(i)], i);
    EXPECT_EQ(ring.pop_all(dst), 0u) << "empty ring yields nothing";
    EXPECT_EQ(dst.size(), 4u);
    int out = -1;
    EXPECT_FALSE(ring.pop_into(out));
    EXPECT_EQ(out, -1) << "failed pop_into must not write";
}

TEST(SpscRing, TwoThreadScalarProducerPopAllConsumer)
{
    // pop_all against a concurrently pushing producer: every call takes
    // a FIFO prefix of what was published, never an unwritten slot.
    SpscRing<uint64_t> ring(64);
    constexpr uint64_t kCount = 60000;

    std::thread producer([&] {
        for (uint64_t i = 0; i < kCount; ++i) {
            while (!ring.push(i))
                std::this_thread::yield();
        }
    });
    std::vector<uint64_t> got;
    while (got.size() < kCount) {
        if (ring.pop_all(got) == 0)
            std::this_thread::yield();
    }
    producer.join();
    ASSERT_EQ(got.size(), kCount);
    for (uint64_t i = 0; i < kCount; ++i)
        ASSERT_EQ(got[i], i) << "FIFO order violated";
    EXPECT_TRUE(ring.empty());
}

TEST(MpmcQueue, SingleThreadFifo)
{
    MpmcQueue<int> q(4);
    EXPECT_TRUE(q.push(1));
    EXPECT_TRUE(q.push(2));
    EXPECT_TRUE(q.push(3));
    EXPECT_TRUE(q.push(4));
    EXPECT_FALSE(q.push(5));
    EXPECT_EQ(q.pop().value(), 1);
    EXPECT_EQ(q.pop().value(), 2);
    EXPECT_TRUE(q.push(5));
    EXPECT_EQ(q.pop().value(), 3);
    EXPECT_EQ(q.pop().value(), 4);
    EXPECT_EQ(q.pop().value(), 5);
    EXPECT_FALSE(q.pop().has_value());
}

TEST(MpmcQueue, MultiProducerMultiConsumerNoLossNoDup)
{
    constexpr int kProducers = 4;
    constexpr int kConsumers = 4;
    constexpr uint64_t kPerProducer = 20000;
    MpmcQueue<uint64_t> q(1024);
    std::atomic<uint64_t> consumed{0};
    std::vector<std::atomic<int>> seen(kProducers * kPerProducer);

    std::vector<std::thread> threads;
    for (int p = 0; p < kProducers; ++p) {
        threads.emplace_back([&, p] {
            for (uint64_t i = 0; i < kPerProducer; ++i) {
                const uint64_t v = p * kPerProducer + i;
                while (!q.push(v))
                    std::this_thread::yield();
            }
        });
    }
    for (int c = 0; c < kConsumers; ++c) {
        threads.emplace_back([&] {
            while (consumed.load() < kProducers * kPerProducer) {
                auto v = q.pop();
                if (!v) {
                    std::this_thread::yield();
                    continue;
                }
                seen[*v].fetch_add(1);
                consumed.fetch_add(1);
            }
        });
    }
    for (auto &t : threads)
        t.join();
    for (size_t i = 0; i < seen.size(); ++i)
        ASSERT_EQ(seen[i].load(), 1) << "value " << i;
}

TEST(MpmcQueue, PerProducerOrderPreserved)
{
    // With a single consumer, each producer's values must arrive in order.
    constexpr int kProducers = 3;
    constexpr uint64_t kPerProducer = 15000;
    MpmcQueue<std::pair<int, uint64_t>> q(256);
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (uint64_t i = 0; i < kPerProducer; ++i) {
                while (!q.push({p, i}))
                    std::this_thread::yield();
            }
        });
    }
    std::vector<uint64_t> next(kProducers, 0);
    uint64_t total = 0;
    while (total < kProducers * kPerProducer) {
        auto v = q.pop();
        if (!v) {
            std::this_thread::yield();
            continue;
        }
        ASSERT_EQ(v->second, next[v->first]);
        ++next[v->first];
        ++total;
    }
    for (auto &t : producers)
        t.join();
}

TEST(MpmcQueue, PopNDrainsFifoAndIsPartial)
{
    MpmcQueue<int> q(8);
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(q.push(i));
    int dst[8] = {};
    EXPECT_EQ(q.pop_n(dst, 3), 3u);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(dst[i], i);
    EXPECT_EQ(q.pop_n(dst, 8), 2u) << "only two left";
    EXPECT_EQ(dst[0], 3);
    EXPECT_EQ(dst[1], 4);
    EXPECT_EQ(q.pop_n(dst, 8), 0u) << "empty queue yields nothing";
}

TEST(MpmcQueue, PopNUnderMultiProducerLosesNothing)
{
    // Batch consumer against concurrent producers: every pushed value
    // arrives exactly once, in per-producer order (single consumer).
    constexpr int kProducers = 3;
    constexpr uint64_t kPerProducer = 15000;
    MpmcQueue<std::pair<int, uint64_t>> q(256);
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (uint64_t i = 0; i < kPerProducer; ++i) {
                while (!q.push({p, i}))
                    std::this_thread::yield();
            }
        });
    }
    std::pair<int, uint64_t> batch[32];
    std::vector<uint64_t> next(kProducers, 0);
    uint64_t total = 0;
    while (total < kProducers * kPerProducer) {
        const size_t got = q.pop_n(batch, 32);
        if (got == 0) {
            std::this_thread::yield();
            continue;
        }
        for (size_t i = 0; i < got; ++i) {
            ASSERT_EQ(batch[i].second, next[batch[i].first]);
            ++next[batch[i].first];
        }
        total += got;
    }
    for (auto &t : producers)
        t.join();
    EXPECT_EQ(q.size(), 0u);
}

TEST(BufferPool, AcquireReleaseRoundTrip)
{
    BufferPool<int> pool(4);
    EXPECT_EQ(pool.capacity(), 4u);
    std::set<int *> ptrs;
    for (int i = 0; i < 4; ++i) {
        int *p = pool.acquire();
        ASSERT_NE(p, nullptr);
        EXPECT_TRUE(pool.owns(p));
        ptrs.insert(p);
    }
    EXPECT_EQ(ptrs.size(), 4u) << "buffers must be distinct";
    EXPECT_EQ(pool.acquire(), nullptr) << "pool exhausted";
    for (int *p : ptrs)
        pool.release(p);
    EXPECT_EQ(pool.free_count(), 4u);
}

TEST(BufferPool, MultiProducerReleaseSingleConsumerAcquire)
{
    // The paper's RX pool pattern: dispatcher acquires, workers release.
    constexpr int kWorkers = 4;
    constexpr int kIters = 20000;
    BufferPool<uint64_t> pool(64);
    MpmcQueue<uint64_t *> in_flight(64);
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> released{0};

    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; ++w) {
        workers.emplace_back([&] {
            while (!stop.load(std::memory_order_relaxed)) {
                auto p = in_flight.pop();
                if (p) {
                    pool.release(*p);
                    released.fetch_add(1);
                } else {
                    std::this_thread::yield();
                }
            }
        });
    }
    uint64_t acquired = 0;
    while (acquired < kIters) {
        uint64_t *p = pool.acquire();
        if (!p) {
            std::this_thread::yield();
            continue;
        }
        ++acquired;
        while (!in_flight.push(p))
            std::this_thread::yield();
    }
    while (released.load() < kIters)
        std::this_thread::yield();
    stop.store(true);
    for (auto &t : workers)
        t.join();
    EXPECT_EQ(pool.free_count(), 64u) << "no buffer may leak";
}

TEST(SpinMutex, MutualExclusionUnderContention)
{
    SpinMutex mu;
    int counter = 0;
    constexpr int kThreads = 4;
    constexpr int kIters = 20000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < kIters; ++i) {
                mu.lock();
                ++counter; // data race iff the lock is broken
                mu.unlock();
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(counter, kThreads * kIters);
}

TEST(SpinMutex, TryLock)
{
    SpinMutex mu;
    EXPECT_TRUE(mu.try_lock());
    EXPECT_FALSE(mu.try_lock());
    mu.unlock();
    EXPECT_TRUE(mu.try_lock());
    mu.unlock();
}

} // namespace
} // namespace tq
