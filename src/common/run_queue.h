/**
 * @file
 * The per-core scheduling core of the runtime's workers and the
 * two-level simulator's cores (paper sections 3.1-3.2, DESIGN.md §4i),
 * templated on the caller's LAS order and time unit.
 *
 * RunQueue pops PS/FCFS entries in FIFO order and LAS entries by the
 * caller's unique `(key, seq)` order: the runtime's (quanta, admission
 * sequence), read through its task handles, and the sim's (attained
 * ns, per-core push count), stored in its queue entries. Keys never
 * change while queued, so the order is total and any heap layout pops
 * the same entry, class extractions included. ClassLedger holds the
 * per-class runnable counts, skip aging, starvation pick and clamped
 * deficit behind the effective budget max(base/4 + 1, base + deficit).
 */
#ifndef TQ_COMMON_RUN_QUEUE_H
#define TQ_COMMON_RUN_QUEUE_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace tq {

/** Per-core quantum scheduling policy. */
enum class WorkPolicy {
    ProcessorSharing, ///< round-robin quanta over admitted jobs
    Fcfs,             ///< run to completion (probes never fire)
    Las,              ///< least attained service first (paper s. 3.1)
};

/**
 * One core's run queue of @p T handles. One power-of-two buffer holds
 * either a FIFO ring (PS, FCFS) or a binary heap (LAS), so steady-state
 * rotation allocates nothing and stores nothing but the handles.
 * @p Order reads what the handles carry:
 *  - `static bool before(const T &a, const T &b)`: a strict total LAS
 *    order, "a runs before b", stable while both are queued;
 *  - `static int cls(const T &x)`: the handle's class slot.
 */
template <typename T, typename Order>
class RunQueue
{
  public:
    explicit RunQueue(WorkPolicy p) : las_(p == WorkPolicy::Las) {}

    bool empty() const { return n_ == 0; }
    size_t size() const { return n_; }

    void
    push(T item)
    {
        if (n_ == buf_.size())
            grow();
        at(n_++) = item;
        if (las_)
            std::push_heap(buf_.begin(), heap_end(), After{});
    }

    /** Remove and return the FIFO front or the LAS minimum. */
    T
    pop()
    {
        if (las_) {
            std::pop_heap(buf_.begin(), heap_end(), After{});
            return buf_[--n_];
        }
        const T item = buf_[head_];
        head_ = (head_ + 1) & (buf_.size() - 1);
        --n_;
        return item;
    }

    /** Remove class @p cls's best entry (its first in FIFO order, its
     *  LAS minimum) into @p out; O(n). False if none is queued. */
    bool
    extract_class(int cls, T &out)
    {
        size_t best = n_;
        for (size_t i = 0; i < n_; ++i)
            if (Order::cls(at(i)) == cls &&
                (best == n_ || (las_ && Order::before(at(i), at(best)))))
                best = i;
        if (best == n_)
            return false;
        out = at(best);
        if (las_) {
            buf_[best] = buf_[--n_];
            std::make_heap(buf_.begin(), heap_end(), After{});
            return true;
        }
        for (size_t i = best; i + 1 < n_; ++i)
            at(i) = at(i + 1); // close the gap, keeping FIFO order
        --n_;
        return true;
    }

    /** Empty the queue, calling @p f(item) for each entry. */
    template <typename F>
    void
    clear(F &&f)
    {
        for (size_t i = 0; i < n_; ++i)
            f(at(i));
        n_ = 0;
        head_ = 0;
    }

  private:
    /** "a runs after b", so the std max-heap algorithms keep the LAS
     *  minimum on top. */
    struct After
    {
        bool
        operator()(const T &a, const T &b) const
        {
            return Order::before(b, a);
        }
    };

    /** The i-th entry in queue order (LAS keeps head_ at 0). */
    T &at(size_t i) { return buf_[(head_ + i) & (buf_.size() - 1)]; }

    auto
    heap_end()
    {
        return buf_.begin() + static_cast<std::ptrdiff_t>(n_);
    }

    /** Out of line, so push() stays small enough to inline. */
    [[gnu::noinline]] void
    grow()
    {
        std::vector<T> bigger(buf_.empty() ? 16 : 2 * buf_.size());
        for (size_t i = 0; i < n_; ++i)
            bigger[i] = at(i);
        buf_.swap(bigger);
        head_ = 0;
    }

    bool las_;
    std::vector<T> buf_;
    size_t head_ = 0; ///< ring front (always 0 under LAS)
    size_t n_ = 0;
};

/** One core's per-class accounts; @p Time is the caller's time unit,
 *  @p Deficit a signed type holding +-clamp. */
template <typename Time, typename Deficit>
class ClassLedger
{
  public:
    struct Account
    {
        Deficit deficit = 0;   ///< banked time, within +-clamp
        uint64_t skipped = 0;  ///< consecutive grants to other classes
                               ///< while this one was runnable
        uint32_t runnable = 0; ///< admitted, unfinished (incl. running)
    };

    /** @p promote_after 0 disables the starvation guard; @p clamp 0
     *  keeps every budget at its base. */
    ClassLedger(size_t classes, Deficit clamp, uint64_t promote_after)
        : accounts_(classes), clamp_(clamp), promote_after_(promote_after)
    {
    }

    const Account &account(int cls) const { return accounts_[idx(cls)]; }
    void admit(int cls) { ++accounts_[idx(cls)].runnable; }
    void retire(int cls) { --accounts_[idx(cls)].runnable; }

    /** The runnable class skipped longest, if at least promote_after
     *  times (lowest class on ties); -1 if none or the guard is off. */
    int
    starved() const
    {
        if (promote_after_ == 0)
            return -1;
        int cls = -1;
        uint64_t worst = promote_after_ - 1;
        for (size_t k = 0; k < accounts_.size(); ++k)
            if (accounts_[k].runnable != 0 && accounts_[k].skipped > worst) {
                worst = accounts_[k].skipped;
                cls = static_cast<int>(k);
            }
        return cls;
    }

    /**
     * Grant class @p cls a slice at base quantum @p base and return the
     * effective budget max(base/4 + 1, base + deficit): credit lengthens
     * the slice, debt shortens it, the floor keeps the class moving. The
     * class's skip count resets; every other runnable class ages.
     */
    Time
    grant(int cls, Time base)
    {
        Account &a = accounts_[idx(cls)];
        const Deficit floor = static_cast<Deficit>(base / 4) + 1;
        const Deficit want = static_cast<Deficit>(base) + a.deficit;
        const Time budget = static_cast<Time>(want > floor ? want : floor);
        for (Account &other : accounts_)
            if (&other == &a)
                other.skipped = 0;
            else if (other.runnable != 0)
                ++other.skipped;
        return budget;
    }

    /** Bank granted - used for class @p cls, clamped to +-clamp. */
    void
    settle(int cls, Time granted, Time used)
    {
        Account &a = accounts_[idx(cls)];
        a.deficit = std::clamp(a.deficit + static_cast<Deficit>(granted) -
                                   static_cast<Deficit>(used),
                               -clamp_, clamp_);
    }

  private:
    static size_t idx(int cls) { return static_cast<size_t>(cls); }

    std::vector<Account> accounts_;
    Deficit clamp_;
    uint64_t promote_after_;
};

} // namespace tq

#endif // TQ_COMMON_RUN_QUEUE_H
