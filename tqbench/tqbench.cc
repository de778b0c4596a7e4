/**
 * @file
 * End-to-end benchmark program: one workload per invocation.
 *
 *   tqbench --workload kv_open|tiny_closed|tpcc_classes|sim_sweep
 *           --seed N --seconds S --trace 0|1 [--spans PATH]
 *
 * The runtime workloads drive tq::runtime::Runtime only through its
 * public calls (submit, drain_responses, telemetry_snapshot and the
 * counter accessors) from one generator thread, time those calls, and
 * read the public Response stamps. Arrival schedules come from
 * common/arrival.h and service mixes from common/dist.h with the same
 * draw interleave as the simulator, so a seeded window replays through
 * sim::run_two_level unchanged. sim_sweep times run_two_level itself.
 *
 * Untraced (--trace 0) runs print the end-to-end metrics; traced runs
 * print the per-layer ledger and write the benchmark's own spans as
 * Chrome trace JSON. The last stdout line is the result object; the
 * line before it is the run context. See tqbench/README.md.
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cpuid.h>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <sched.h>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/arrival.h"
#include "common/cycles.h"
#include "common/dist.h"
#include "common/rng.h"
#include "common/units.h"
#include "runtime/runtime.h"
#include "sim/sweep.h"
#include "sim/two_level.h"
#include "workloads/minikv.h"
#include "workloads/spin.h"

namespace {

using tq::Cycles;
using tq::rdcycles;
using tq::runtime::Request;
using tq::runtime::Response;
using tq::runtime::Runtime;
using tq::runtime::RuntimeConfig;
using tq::runtime::WorkPolicy;

// ---------------------------------------------------------------------
// Small utilities
// ---------------------------------------------------------------------

double
now_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cyc_ns(Cycles c)
{
    return tq::cycles_to_ns(c);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

uint64_t
mix64(uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * Log-linear histogram of non-negative nanosecond values: 128 linear
 * sub-buckets per octave over units of 1/8 ns, so a reported quantile
 * is within 0.8% of the exact sample. Exact count, sum and max.
 */
class LatHist
{
  public:
    void
    add(double ns)
    {
        const uint64_t x =
            ns <= 0 ? 0 : static_cast<uint64_t>(ns * 8.0 + 0.5);
        ++buckets_[index(x)];
        ++count_;
        sum_ += ns;
        max_ = std::max(max_, ns);
    }

    uint64_t count() const { return count_; }
    double mean() const { return count_ ? sum_ / count_ : 0; }

    /** Nearest-rank quantile, bucket midpoint, in ns (0 when empty). */
    void
    merge(const LatHist &o)
    {
        for (size_t i = 0; i < buckets_.size(); ++i)
            buckets_[i] += o.buckets_[i];
        count_ += o.count_;
        sum_ += o.sum_;
        max_ = std::max(max_, o.max_);
    }

    double
    quantile(double q) const
    {
        if (count_ == 0)
            return 0;
        uint64_t rank = static_cast<uint64_t>(std::ceil(q * count_));
        rank = std::clamp<uint64_t>(rank, 1, count_);
        uint64_t seen = 0;
        for (size_t i = 0; i < buckets_.size(); ++i) {
            seen += buckets_[i];
            if (seen >= rank)
                return std::min(midpoint(i) / 8.0, max_);
        }
        return max_;
    }

  private:
    static constexpr int kSub = 7; // 128 sub-buckets per octave

    static size_t
    index(uint64_t x)
    {
        if (x < (2u << kSub))
            return static_cast<size_t>(x);
        const int msb = 63 - __builtin_clzll(x);
        const int shift = msb - kSub;
        const uint64_t top = x >> shift; // in [128, 256)
        return (2u << kSub) + static_cast<size_t>(shift - 1) * (1u << kSub) +
               static_cast<size_t>(top - (1u << kSub));
    }

    static double
    midpoint(size_t i)
    {
        if (i < (2u << kSub))
            return static_cast<double>(i);
        const size_t j = i - (2u << kSub);
        const int shift = static_cast<int>(j >> kSub) + 1;
        const uint64_t top = (j & ((1u << kSub) - 1)) + (1u << kSub);
        return (static_cast<double>(top) + 0.5) * std::ldexp(1.0, shift);
    }

    std::vector<uint64_t> buckets_ =
        std::vector<uint64_t>((2u << kSub) + 64 * (1u << kSub), 0);
    uint64_t count_ = 0;
    double sum_ = 0;
    double max_ = 0;
};

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
json_escape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

std::string
fmt_num(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** One Chrome-trace complete ("X") event, kept in memory until exit. */
struct Span
{
    const char *name;
    const char *cat;
    int tid;
    Cycles start;
    Cycles end;
    uint64_t id;
};

/** Spans are recorded for a bounded, evenly spaced sample of requests
 *  and drain calls; the ledger statistics cover every request. */
class SpanLog
{
  public:
    static constexpr size_t kMaxSpans = 60000;

    void
    add(const char *name, const char *cat, int tid, Cycles start,
        Cycles end, uint64_t id)
    {
        if (spans_.size() < kMaxSpans)
            spans_.push_back({name, cat, tid, start, end, id});
    }

    bool full() const { return spans_.size() >= kMaxSpans; }

    bool
    write(const std::string &path, const std::string &context_json) const
    {
        std::ofstream os(path);
        if (!os)
            return false;
        Cycles base = ~Cycles{0};
        for (const Span &s : spans_)
            base = std::min(base, std::min(s.start, s.end));
        os << "{\"displayTimeUnit\":\"ns\",\"otherData\":" << context_json
           << ",\"traceEvents\":[";
        os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
              "\"args\":{\"name\":\"tqbench\"}}";
        for (const Span &s : spans_) {
            const double ts = cyc_ns(s.start - base) / 1e3;
            const double dur =
                s.end >= s.start ? cyc_ns(s.end - s.start) / 1e3 : 0.0;
            os << ",\n{\"name\":\"" << s.name << "\",\"cat\":\"" << s.cat
               << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
               << ",\"ts\":" << fmt_num(ts) << ",\"dur\":" << fmt_num(dur)
               << ",\"args\":{\"id\":" << s.id << "}}";
        }
        os << "]}\n";
        return static_cast<bool>(os);
    }

  private:
    std::vector<Span> spans_;
};

// Span lanes (Chrome "tid"), one per hop kind so lanes never overlap
// inconsistently.
enum Lane { kLaneLag = 1, kLaneSubmit, kLaneRx, kLaneWorker, kLaneTx,
            kLaneDrain, kLaneSim };

// ---------------------------------------------------------------------
// Runtime workloads
// ---------------------------------------------------------------------

enum class Handler { Kv, Spin };

/** A runtime workload: fixed load, fixed configuration. */
struct RtWorkload
{
    std::string name;
    Handler handler;
    bool closed = false;      ///< closed loop with `window` in flight
    double rate_mrps = 0;     ///< open-loop offered load
    int window = 0;           ///< closed-loop requests in flight
    RuntimeConfig cfg;
    std::unique_ptr<tq::MixtureDist> dist;
    int short_class = 0;      ///< GET / Payment / 300 ns
    int long_class = 1;       ///< SCAN / StockLevel / 1 us
    std::vector<double> limit_us; ///< per-class latency limit (0: none)
    double slowdown_limit = 0;    ///< limit on latency / demand, or 0
    uint64_t warmup_requests = 0;
};

constexpr uint64_t kKvKeys = 1u << 18;   // ~45 MiB store, larger than L2
constexpr size_t kScanLen = 3000;
constexpr size_t kKvValueSize = 100;
constexpr uint64_t kStoreSeed = 1;

RtWorkload
make_workload(const std::string &name)
{
    RtWorkload w;
    w.name = name;
    w.cfg.num_workers = 2;
    w.cfg.num_dispatchers = 1;
    w.cfg.quantum_us = 2.0;
    w.cfg.stop_deadline_sec = 5.0;
    if (name == "kv_open") {
        // MiniKV GET/SCAN at 0.5% SCANs, PS with a fixed 2 us quantum.
        w.handler = Handler::Kv;
        w.rate_mrps = 0.10; // ~1/4 of two workers (mean service ~3.7 us)
        w.dist = tq::workload_table::rocksdb(0.005);
        w.cfg.work = WorkPolicy::ProcessorSharing;
        w.short_class = 0; // GET
        w.long_class = 1;  // SCAN
        w.limit_us = {50.0, 0.0}; // GET within 50 us (paper 5.4)
        w.warmup_requests = 20000;
    } else if (name == "tiny_closed") {
        // Sub-quantum spin jobs: no probe fires, every hop's per-job
        // cost sets throughput.
        w.handler = Handler::Spin;
        w.closed = true;
        w.window = 64;
        w.dist = std::make_unique<tq::MixtureDist>(
            std::vector<tq::MixtureDist::Component>{
                {"Tiny", 300, 0.9},
                {"Small", 1000, 0.1},
            });
        w.cfg.work = WorkPolicy::ProcessorSharing;
        w.short_class = 0;
        w.long_class = 1;
        w.limit_us = {50.0, 50.0};
        w.warmup_requests = 300000;
    } else if (name == "tpcc_classes") {
        // TPC-C Table 1 mix as spin demands, LAS with per-class quanta.
        w.handler = Handler::Spin;
        w.rate_mrps = 0.026; // ~1/4 of two workers (mean demand 19 us)
        w.dist = tq::workload_table::tpcc();
        w.cfg.work = WorkPolicy::Las;
        w.cfg.class_quantum_us = {12, 2, 2, 2, 2};
        w.short_class = 0; // Payment
        w.long_class = 4;  // StockLevel
        w.slowdown_limit = 10.0;
        w.warmup_requests = 5000;
    } else {
        std::fprintf(stderr, "tqbench: unknown workload '%s'\n",
                     name.c_str());
        std::exit(2);
    }
    return w;
}

/** One outstanding-request slot, indexed by id modulo the table size. */
struct Slot
{
    uint64_t id = ~uint64_t{0};
    Cycles due = 0;
    uint32_t payload = 0;
    uint8_t cls = 0;
    uint8_t state = 0; // kFree / kOutstanding / kDone
    uint8_t window = 0; // 1 when due inside a measured window
    uint8_t seg = 0;    // segment of the window it was due in
};
constexpr uint8_t kFree = 0, kOutstanding = 1, kDone = 2;

/** Client-side per-request stamps, only kept while tracing. */
struct TraceStamps
{
    Cycles send = 0;
    Cycles submit_ret = 0;
};

/** End-to-end statistics of one segment of a window. */
struct Segment
{
    std::vector<LatHist> e2e;     ///< per class, due -> drain return
    uint64_t attempted = 0;       ///< requests due in the segment
    uint64_t met = 0;             ///< answered, correct, within limit
    uint64_t completions = 0;     ///< responses drained in the segment
};

/**
 * Per-window statistics. The window is cut into segments of about one
 * second; the end-to-end metrics are medians over segments, so a
 * host stall that spoils one segment does not move them.
 */
struct WindowStats
{
    std::vector<Segment> segs;
    std::vector<LatHist> e2e;     ///< whole window, per class
    Cycles t0 = 0;
    Cycles seg_cycles = 1;
    double seconds = 0;
    uint64_t refused = 0;
    double demand_sum_ns = 0;     ///< requested spin demand
    uint64_t demand_count = 0;
    double busy_cycles = 0;       ///< generator loop time doing work
    double loop_cycles = 0;       ///< generator loop time in total
    double stall_ms = 0;          ///< summed loop gaps over 20 us
    double stall_max_ms = 0;      ///< largest such gap

    /** Append another window's segments and totals to this one. */
    void
    absorb(const WindowStats &o)
    {
        segs.insert(segs.end(), o.segs.begin(), o.segs.end());
        for (size_t c = 0; c < e2e.size(); ++c)
            e2e[c].merge(o.e2e[c]);
        seconds += o.seconds;
        refused += o.refused;
        demand_sum_ns += o.demand_sum_ns;
        demand_count += o.demand_count;
        busy_cycles += o.busy_cycles;
        loop_cycles += o.loop_cycles;
        stall_ms += o.stall_ms;
        stall_max_ms = std::max(stall_max_ms, o.stall_max_ms);
    }
};

/** Per-hop ledger of a traced window (all in ns). */
struct Ledger
{
    LatHist lag, submit, rx, worker, tx, drain;
    /** Signed sums of the five hops (lag, submit, rx, worker, tx) and of
     *  the end-to-end time from the echoed gen_cycles. */
    double hop_sum[5] = {0, 0, 0, 0, 0};
    double e2e_sum = 0;
    uint64_t hop_count = 0;
    double resp_in_drains = 0;
    uint64_t nonempty_drains = 0;
    uint64_t negative_hops = 0;
    uint64_t rx_overlap = 0;
};

class RtBench
{
  public:
    RtBench(RtWorkload w, uint64_t seed) : w_(std::move(w)), seed_(seed)
    {
        slots_.resize(kSlots);
        gap_limit_ = tq::ns_to_cycles(20e3);
    }

    /** Load the store, build and start the runtime, and warm up;
     *  returns seconds. */
    double
    setup()
    {
        const double t0 = now_s();
        std::unique_ptr<tq::workloads::MiniKV> loaded;
        if (w_.handler == Handler::Kv) {
            // The store is the dataset, fixed across seeds; the seed
            // drives only the request stream. Every set-up loads one,
            // but the first stays the dataset for the whole run: a store
            // loaded into a heap recycled from an earlier store lays its
            // nodes out differently, and SCAN cost then varies ~2x
            // between set-ups.
            loaded = std::make_unique<tq::workloads::MiniKV>(kStoreSeed,
                                                             kKvValueSize);
            loaded->load_sequential(kKvKeys);
            if (!kv_)
                kv_ = std::move(loaded);
        }
        const tq::workloads::MiniKV *kv = kv_.get();
        auto handler = [kv](const Request &req) -> uint64_t {
            return kv ? kv_handler(*kv, req) : spin_handler(req);
        };
        rt_ = std::make_unique<Runtime>(w_.cfg, handler);
        rt_->start();
        warmup();
        const double elapsed = now_s() - t0;
        loaded.reset(); // a later set-up's copy, after the timing
        return elapsed;
    }

    /** Drain what is still outstanding, stop and release the runtime,
     *  and count every request that never came back. */
    void
    stop()
    {
        finish_outstanding(5.0);
        rt_->stop();
        account_shutdown();
        rt_.reset();
    }

    /** Single-threaded reference values of every GET (outside timing). */
    void
    build_reference()
    {
        if (!kv_)
            return;
        get_ref_.assign(kKvKeys, 0);
        std::string buf;
        for (uint64_t k = 0; k < kKvKeys; ++k) {
            if (!kv_->get(k, &buf)) {
                ++wrong_;
                continue;
            }
            get_ref_[k] = value_hash(k, buf);
        }
    }

    /** Run one measured window of @p seconds. */
    WindowStats
    run_window(double seconds, bool traced, uint64_t stream_seed)
    {
        WindowStats ws;
        const size_t classes = w_.dist->class_names().size();
        const int nseg = std::max(1, static_cast<int>(seconds + 0.5));
        ws.segs.resize(static_cast<size_t>(nseg));
        for (Segment &sg : ws.segs)
            sg.e2e.resize(classes);
        ws.e2e.resize(classes);
        ws.seconds = seconds;
        ws.seg_cycles = std::max<Cycles>(
            1, tq::ns_to_cycles(seconds * 1e9 / nseg));
        ws.t0 = rdcycles();
        cur_ = &ws;
        traced_ = traced;
        if (traced) {
            stamps_.assign(kSlots, TraceStamps{});
            ledger_ = Ledger{};
        }
        if (w_.closed)
            closed_loop(seconds, stream_seed, true);
        else
            open_loop(seconds, stream_seed);
        // Stragglers due inside the window still count toward its
        // latency, but not toward its throughput.
        finish_outstanding(5.0);
        cur_ = nullptr;
        traced_ = false;
        return ws;
    }

    Runtime &rt() { return *rt_; }
    const RtWorkload &workload() const { return w_; }
    const Ledger &ledger() const { return ledger_; }
    SpanLog &spans() { return spans_; }

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return refused_ + unanswered_ + wrong_ + dup_; }

    /** Verify deferred KV results (SCANs, and GETs answered before
     *  the reference table existed) against the store. */
    void
    check_deferred()
    {
        for (const KvCheck &c : kv_checks_) {
            const uint64_t want =
                c.cls == 0 ? get_ref_[c.key] : scan_expected(c.key);
            if (c.result != want)
                ++wrong_;
        }
        kv_checks_.clear();
    }

  private:
    static constexpr size_t kSlots = 1u << 18;
    static constexpr uint64_t kKeySalt = 0x6b6579ull;
    static constexpr uint64_t kSpanEvery = 64; ///< request chains kept

    // ---- handlers and expected results (identical arithmetic) -------

    static uint64_t
    value_hash(uint64_t key, const std::string &value)
    {
        uint64_t h = 1469598103934665603ULL ^ key;
        for (unsigned char c : value)
            h = (h ^ c) * 1099511628211ULL;
        return h;
    }

    static uint64_t
    kv_handler(const tq::workloads::MiniKV &kv, const Request &req)
    {
        if (req.job_class == 0) {
            // Per call, not thread_local: a task can be preempted inside
            // get() and another task on this worker would reuse it.
            std::string buf;
            if (!kv.get(req.payload, &buf))
                return 0;
            return value_hash(req.payload, buf);
        }
        uint64_t checksum = 0;
        const size_t visited = kv.scan(req.payload, kScanLen, &checksum);
        return checksum ^ (static_cast<uint64_t>(visited) << 48);
    }

    static uint64_t
    spin_handler(const Request &req)
    {
        tq::workloads::spin_for(static_cast<double>(req.payload));
        return mix64(req.id ^ (req.payload << 20));
    }

    uint64_t
    scan_expected(uint64_t start)
    {
        auto it = scan_ref_.find(start);
        if (it != scan_ref_.end())
            return it->second;
        uint64_t checksum = 0;
        const size_t visited = kv_->scan(start, kScanLen, &checksum);
        const uint64_t r = checksum ^ (static_cast<uint64_t>(visited) << 48);
        scan_ref_.emplace(start, r);
        return r;
    }

    // ---- request generation ------------------------------------------

    /** Draw the class/payload of one request: the service sample comes
     *  from @p rng (the stream the simulator replays), keys from
     *  @p keys so the two streams stay aligned. */
    void
    draw(tq::Rng &rng, tq::Rng &keys, Request &req)
    {
        const tq::ServiceSample s = w_.dist->sample(rng);
        req.job_class = s.job_class;
        if (w_.handler == Handler::Kv) {
            req.payload = s.job_class == 0
                              ? keys.below(kKvKeys)
                              : keys.below(kKvKeys - kScanLen);
        } else {
            req.payload = static_cast<uint64_t>(s.demand);
        }
    }

    /** Submit one request due at @p due. Returns false when refused. */
    bool
    send(Request &req, Cycles due, bool in_window)
    {
        req.id = next_id_++;
        req.gen_cycles = due;
        Slot &slot = slots_[req.id & (kSlots - 1)];
        if (slot.state == kOutstanding) {
            // The table wrapped onto a request that never came back.
            ++unanswered_;
            --outstanding_;
        }
        slot.id = req.id;
        slot.due = due;
        slot.payload = static_cast<uint32_t>(req.payload);
        slot.cls = static_cast<uint8_t>(req.job_class);
        slot.window = in_window ? 1 : 0;
        ++attempted_;
        slot.seg = in_window && cur_ ? segment_of(due) : 0;
        if (in_window && cur_) {
            ++cur_->segs[slot.seg].attempted;
            if (w_.handler == Handler::Spin) {
                cur_->demand_sum_ns += static_cast<double>(req.payload);
                ++cur_->demand_count;
            }
        }
        bool ok;
        if (traced_ && in_window) {
            TraceStamps &ts = stamps_[req.id & (kSlots - 1)];
            ts.send = rdcycles();
            ok = rt_->submit(req);
            ts.submit_ret = rdcycles();
            ledger_.lag.add(cyc_ns(ts.send - due));
            ledger_.submit.add(cyc_ns(ts.submit_ret - ts.send));
        } else {
            ok = rt_->submit(req);
        }
        if (!ok) {
            slot.state = kDone;
            ++refused_;
            if (in_window && cur_)
                ++cur_->refused;
            return false;
        }
        slot.state = kOutstanding;
        ++outstanding_;
        return true;
    }

    /** Collect responses; returns how many. */
    size_t
    collect(bool in_window)
    {
        out_.clear();
        const Cycles before = traced_ ? rdcycles() : 0;
        const size_t n = rt_->drain_responses(out_);
        const Cycles ret = rdcycles();
        if (traced_ && in_window) {
            ledger_.drain.add(cyc_ns(ret - before));
            if (n > 0) {
                ledger_.resp_in_drains += static_cast<double>(n);
                ++ledger_.nonempty_drains;
                if ((ledger_.nonempty_drains & 63) == 0)
                    spans_.add("drain_responses", "client", kLaneDrain,
                               before, ret, n);
            }
        }
        if (in_window && cur_)
            cur_->segs[segment_of(ret)].completions += n;
        for (const Response &r : out_)
            accept(r, ret);
        return n;
    }

    void
    accept(const Response &r, Cycles ret)
    {
        Slot &slot = slots_[r.id & (kSlots - 1)];
        if (slot.id != r.id || slot.state != kOutstanding) {
            ++dup_;
            return;
        }
        slot.state = kDone;
        --outstanding_;
        bool ok = r.job_class == slot.cls && r.gen_cycles == slot.due;
        if (ok) {
            if (w_.handler == Handler::Kv) {
                if (slot.cls == 0 && !get_ref_.empty())
                    ok = r.result == get_ref_[slot.payload];
                else
                    kv_checks_.push_back({slot.cls, slot.payload, r.result});
            } else {
                ok = r.result ==
                     mix64(r.id ^ (static_cast<uint64_t>(slot.payload) << 20));
            }
        }
        if (!ok)
            ++wrong_;
        if (!slot.window || !cur_)
            return;
        const double e2e = cyc_ns(ret - slot.due);
        cur_->e2e[slot.cls].add(e2e);
        Segment &sg = cur_->segs[slot.seg];
        sg.e2e[slot.cls].add(e2e);
        if (ok && meets_limit(slot.cls, e2e))
            ++sg.met;
        if (traced_)
            trace_hops(r, slot, ret);
    }

    uint8_t
    segment_of(Cycles c) const
    {
        const Cycles off = c > cur_->t0 ? c - cur_->t0 : 0;
        const Cycles i = off / cur_->seg_cycles;
        return static_cast<uint8_t>(
            std::min<Cycles>(i, cur_->segs.size() - 1));
    }

    bool
    meets_limit(int cls, double e2e_ns) const
    {
        if (static_cast<size_t>(cls) < w_.limit_us.size() &&
            w_.limit_us[cls] > 0 && e2e_ns > w_.limit_us[cls] * 1e3)
            return false;
        if (w_.slowdown_limit > 0) {
            const double demand = w_.dist->components()[cls].demand;
            if (e2e_ns > w_.slowdown_limit * demand)
                return false;
        }
        return true;
    }

    void
    trace_hops(const Response &r, const Slot &slot, Cycles ret)
    {
        const TraceStamps &ts = stamps_[r.id & (kSlots - 1)];
        const Cycles points[6] = {slot.due,         ts.send,
                                  ts.submit_ret,    r.arrival_cycles,
                                  r.done_cycles,    ret};
        // The dispatcher may pop a request before submit() has returned
        // to the client (the client was descheduled after the enqueue):
        // a real overlap, counted apart. Every other boundary is causal,
        // so an inversion there is a cross-core clock fault.
        for (int i = 0; i < 5; ++i) {
            if (points[i + 1] >= points[i])
                continue;
            if (i == 2)
                ++ledger_.rx_overlap;
            else
                ++ledger_.negative_hops;
        }
        auto hop = [](Cycles a, Cycles b) {
            return b >= a ? cyc_ns(b - a) : -cyc_ns(a - b);
        };
        ledger_.rx.add(hop(ts.submit_ret, r.arrival_cycles));
        ledger_.worker.add(hop(r.arrival_cycles, r.done_cycles));
        ledger_.tx.add(hop(r.done_cycles, ret));
        // Signed sums: the histograms clamp negatives at zero.
        for (int i = 0; i < 5; ++i)
            ledger_.hop_sum[i] += hop(points[i], points[i + 1]);
        ledger_.e2e_sum += hop(r.gen_cycles, ret);
        ++ledger_.hop_count;
        if (r.id % kSpanEvery == 0 && !spans_.full()) {
            spans_.add("due->send", "client", kLaneLag, slot.due, ts.send,
                       r.id);
            spans_.add("submit", "client", kLaneSubmit, ts.send,
                       ts.submit_ret, r.id);
            spans_.add("rx", "runtime", kLaneRx, ts.submit_ret,
                       r.arrival_cycles, r.id);
            spans_.add("worker", "runtime", kLaneWorker, r.arrival_cycles,
                       r.done_cycles, r.id);
            spans_.add("tx", "runtime", kLaneTx, r.done_cycles, ret, r.id);
        }
    }

    /** Loop-iteration bookkeeping: busy share and the stall canary. */
    void
    loop_tick(Cycles &prev, bool busy)
    {
        const Cycles now = rdcycles();
        const Cycles gap = now - prev;
        prev = now;
        if (!cur_)
            return;
        cur_->loop_cycles += static_cast<double>(gap);
        if (busy)
            cur_->busy_cycles += static_cast<double>(gap);
        if (gap > gap_limit_) {
            const double ms = cyc_ns(gap) / 1e6;
            cur_->stall_ms += ms;
            cur_->stall_max_ms = std::max(cur_->stall_max_ms, ms);
        }
    }

    void
    open_loop(double seconds, uint64_t stream_seed)
    {
        // Same draw interleave as the simulator's EngineCore: first gap,
        // then (service sample, next gap) per request, all from one Rng.
        tq::Rng rng(stream_seed);
        tq::Rng keys(stream_seed ^ kKeySalt);
        const double rate_per_ns = tq::mrps(w_.rate_mrps);
        const std::unique_ptr<tq::ArrivalProcess> arrival =
            tq::make_arrival_process(tq::ArrivalSpec{}, rate_per_ns);
        const double window_ns = seconds * 1e9;
        const Cycles t0 = cur_->t0;
        const Cycles t_end = t0 + tq::ns_to_cycles(window_ns);
        double next_ns = arrival->next(0.0, rng);
        Cycles next_due = t0 + tq::ns_to_cycles(next_ns);
        Cycles prev = t0;
        Request req;
        for (;;) {
            Cycles now = rdcycles();
            bool busy = false;
            // Send every request that is due, in bursts of at most 16
            // between collections.
            for (int burst = 0; burst < 16 && next_ns < window_ns &&
                                now >= next_due;
                 ++burst) {
                req = Request{};
                draw(rng, keys, req);
                send(req, next_due, true);
                next_ns = arrival->next(next_ns, rng);
                next_due = t0 + tq::ns_to_cycles(next_ns);
                busy = true;
                now = rdcycles();
            }
            if (collect(true) > 0)
                busy = true;
            loop_tick(prev, busy);
            if (next_ns >= window_ns && rdcycles() >= t_end)
                break;
        }
    }

    /** Closed loop: keep `window` requests in flight. With @p timed the
     *  loop runs for @p seconds; otherwise until @p count requests. */
    void
    closed_loop(double seconds, uint64_t stream_seed, bool timed,
                uint64_t count = 0, int window = 0)
    {
        tq::Rng rng(stream_seed);
        tq::Rng keys(stream_seed ^ kKeySalt);
        const int inflight_cap = window > 0 ? window : w_.window;
        const Cycles t0 = timed ? cur_->t0 : rdcycles();
        const Cycles t_end = t0 + tq::ns_to_cycles(seconds * 1e9);
        Cycles prev = t0;
        uint64_t sent = 0;
        Request req;
        for (;;) {
            bool busy = false;
            while (outstanding_ < static_cast<uint64_t>(inflight_cap) &&
                   (timed || sent < count)) {
                req = Request{};
                draw(rng, keys, req);
                send(req, rdcycles(), timed);
                ++sent;
                busy = true;
            }
            if (collect(timed) > 0)
                busy = true;
            loop_tick(prev, busy);
            if (timed ? rdcycles() >= t_end
                      : (sent >= count && outstanding_ == 0))
                break;
            if (!timed && sent >= count)
                std::this_thread::yield();
        }
    }

    void
    warmup()
    {
        // A closed loop of fixed size through the whole path: faults in
        // coroutine stacks, rings and store pages before timing starts.
        closed_loop(0, seed_ ^ 0x5eedull, false, w_.warmup_requests, 16);
    }

    void
    finish_outstanding(double timeout_s)
    {
        const double t0 = now_s();
        while (outstanding_ > 0 && now_s() - t0 < timeout_s) {
            if (collect(false) == 0)
                std::this_thread::yield();
        }
    }

    void
    account_shutdown()
    {
        collect(false);
        unanswered_ += outstanding_;
        outstanding_ = 0;
        for (Slot &s : slots_)
            s.state = kFree;
    }

    RtWorkload w_;
    uint64_t seed_;
    std::unique_ptr<tq::workloads::MiniKV> kv_;
    std::unique_ptr<Runtime> rt_;
    std::vector<uint64_t> get_ref_;
    std::unordered_map<uint64_t, uint64_t> scan_ref_;
    struct KvCheck
    {
        uint8_t cls;
        uint32_t key;
        uint64_t result;
    };
    std::vector<KvCheck> kv_checks_;
    std::vector<Slot> slots_;
    std::vector<TraceStamps> stamps_;
    std::vector<Response> out_;
    WindowStats *cur_ = nullptr;
    bool traced_ = false;
    Ledger ledger_;
    SpanLog spans_;
    Cycles gap_limit_ = 0;

    uint64_t next_id_ = 0;
    uint64_t outstanding_ = 0;
    uint64_t attempted_ = 0;
    uint64_t refused_ = 0;
    uint64_t unanswered_ = 0;
    uint64_t wrong_ = 0;
    uint64_t dup_ = 0;
};

/** Window-differenced view of two telemetry snapshots. */
struct SnapDiff
{
    const tq::telemetry::MetricsSnapshot &a;
    const tq::telemetry::MetricsSnapshot &b;

    double
    count(uint64_t tq::telemetry::MetricsSnapshot::*f) const
    {
        return static_cast<double>(b.*f - a.*f);
    }

    /** Mean over the window of a StageStats (exact sums). */
    static double
    mean(const tq::telemetry::StageStats &x,
         const tq::telemetry::StageStats &y)
    {
        const double n = static_cast<double>(y.count - x.count);
        if (n <= 0)
            return 0;
        return (y.mean_ns * y.count - x.mean_ns * x.count) / n;
    }
};

/** Median over a window's segments of a per-segment value. */
double
over_segs(const WindowStats &ws,
          const std::function<double(const Segment &)> &f)
{
    std::vector<double> v;
    for (const Segment &sg : ws.segs)
        v.push_back(f(sg));
    return median(v);
}

std::vector<Metric>
end_to_end_metrics(const WindowStats &ws, double setup_s,
                   uint64_t attempted, uint64_t failed)
{
    const double ok = attempted ? 1.0 - static_cast<double>(failed) /
                                            static_cast<double>(attempted)
                                : 0.0;
    // Every window of a run has the same segment length.
    const double seg_s = ws.seconds / static_cast<double>(ws.segs.size());
    return {
        {"setup_s", setup_s, "s"},
        {"throughput_mrps", over_segs(ws, [=](const Segment &sg) {
             return static_cast<double>(sg.completions) / seg_s / 1e6;
         }),
         "Mrps"},
        {"ok_share", ok, "share"},
        {"slo_share", over_segs(ws, [](const Segment &sg) {
             return sg.attempted ? static_cast<double>(sg.met) /
                                       static_cast<double>(sg.attempted)
                                 : 0.0;
         }),
         "share"},
    };
}

/**
 * Per-class latency percentiles: p50 and p90 as medians over segments,
 * p99 over the whole window. Not gated: on this host they repeat only
 * to 10-40% between runs (tqbench/README.md, "Host noise").
 */
std::vector<Metric>
latency_metrics(const RtWorkload &w, const WindowStats &ws)
{
    auto q = [&](int cls, double p) {
        return over_segs(ws, [=](const Segment &sg) {
                   return sg.e2e[cls].quantile(p);
               }) /
               1e3;
    };
    const LatHist &s = ws.e2e[w.short_class];
    const LatHist &l = ws.e2e[w.long_class];
    return {
        {"short_p50_us", q(w.short_class, 0.50), "us"},
        {"short_p90_us", q(w.short_class, 0.90), "us"},
        {"short_p99_us", s.quantile(0.99) / 1e3, "us"},
        {"long_p50_us", q(w.long_class, 0.50), "us"},
        {"long_p90_us", q(w.long_class, 0.90), "us"},
        {"short.count", static_cast<double>(s.count()), "count"},
        {"long.count", static_cast<double>(l.count()), "count"},
    };
}

// ---------------------------------------------------------------------
// Simulator
// ---------------------------------------------------------------------

std::string
hexf(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

/** Stable text digest of a SimResult: counts and hexfloat tails. */
std::string
sim_digest(const tq::sim::SimResult &r)
{
    std::string d = std::to_string(r.completed) + "/" +
                    std::to_string(r.dropped) + (r.saturated ? "S" : "");
    for (const auto &c : r.classes) {
        d += ";" + c.name + ":" + std::to_string(c.completed) + ":" +
             hexf(c.p99_sojourn) + ":" + hexf(c.p999_sojourn) + ":" +
             hexf(c.mean_sojourn);
    }
    return d;
}

/** The pinned check point: Extreme Bimodal, PS, 16 cores, seed 7. */
tq::sim::TwoLevelConfig
pinned_config()
{
    tq::sim::TwoLevelConfig cfg;
    cfg.num_cores = 16;
    cfg.quantum = tq::us(2);
    cfg.core_policy = tq::sim::CorePolicy::ProcessorSharing;
    cfg.duration = tq::ms(100);
    cfg.seed = 7;
    return cfg;
}
constexpr double kPinnedLoad = 0.5;
// Digest of run_two_level(pinned_config(), extreme_bimodal(), 0.5 load).
constexpr const char *kPinnedDigest =
    "266670/0;"
    "Short:265379:0x1.334168e6ecp+9:0x1.0344536f4p+11:0x1.28524377465edp+9;"
    "Long:1291:0x1.fca4p+18:0x1.24248p+19:0x1.f2c1a12209743p+18";

struct SimPoint
{
    bool las;            ///< false: PS on Extreme Bimodal
    double load;         ///< offered load as a share of 16-core capacity
};

const std::vector<SimPoint> &
sim_grid()
{
    static const std::vector<SimPoint> grid = {
        {false, 0.3}, {false, 0.4}, {false, 0.5}, {false, 0.6},
        {false, 0.7}, {true, 0.3},  {true, 0.4},  {true, 0.5},
        {true, 0.6},  {true, 0.7},
    };
    return grid;
}

tq::sim::TwoLevelConfig
grid_config(const SimPoint &p, uint64_t seed)
{
    tq::sim::TwoLevelConfig cfg;
    cfg.num_cores = 16;
    cfg.seed = seed;
    if (p.las) {
        cfg.core_policy = tq::sim::CorePolicy::Las;
        cfg.class_quantum = {tq::us(12), tq::us(2), tq::us(2), tq::us(2),
                             tq::us(2)};
        cfg.deficit_clamp = tq::us(8);
        cfg.starvation_promote_after = 128;
        cfg.duration = tq::ms(400);
    } else {
        cfg.core_policy = tq::sim::CorePolicy::ProcessorSharing;
        cfg.quantum = tq::us(2);
        cfg.duration = tq::ms(40);
    }
    return cfg;
}

/** Whether a grid result meets its SLO: Extreme Bimodal short-class
 *  p99 sojourn within 50 us, TPC-C p99 slowdown within 10 per class. */
bool
sim_slo(const SimPoint &p, const tq::sim::SimResult &r,
        const tq::MixtureDist &dist)
{
    if (r.saturated)
        return false;
    if (!p.las)
        return r.classes[0].p99_sojourn <= tq::us(50);
    for (size_t c = 0; c < r.classes.size(); ++c)
        if (r.classes[c].p99_sojourn >
            10.0 * dist.components()[c].demand)
            return false;
    return true;
}

bool
sim_sane(const tq::sim::SimResult &r)
{
    if (r.saturated || r.completed == 0 || r.dropped != 0)
        return false;
    uint64_t sum = 0;
    for (const auto &c : r.classes) {
        sum += c.completed;
        if (!(c.mean_sojourn > 0) || c.p99_sojourn > c.p999_sojourn)
            return false;
    }
    return sum == r.completed;
}

// ---------------------------------------------------------------------
// Run context
// ---------------------------------------------------------------------

std::string
cpu_model()
{
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i) {
        if (!__get_cpuid(0x80000002u + i, &regs[i * 4], &regs[i * 4 + 1],
                         &regs[i * 4 + 2], &regs[i * 4 + 3]))
            return "unknown";
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const size_t b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
}

int
nproc()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return CPU_COUNT(&set);
    return static_cast<int>(std::thread::hardware_concurrency());
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string spans;
    std::string commit = "unknown";
    std::string src_digest = "unknown";
};

Args
parse(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        const char *v = i + 1 < argc ? argv[i + 1] : nullptr;
        auto need = [&]() -> const char * {
            if (!v) {
                std::fprintf(stderr, "tqbench: %s needs a value\n",
                             k.c_str());
                std::exit(2);
            }
            ++i;
            return v;
        };
        if (k == "--workload")
            a.workload = need();
        else if (k == "--seed")
            a.seed = std::strtoull(need(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(need(), nullptr);
        else if (k == "--trace")
            a.trace = std::strtol(need(), nullptr, 10) != 0;
        else if (k == "--spans")
            a.spans = need();
        else if (k == "--commit")
            a.commit = need();
        else if (k == "--src-digest")
            a.src_digest = need();
        else {
            std::fprintf(stderr, "tqbench: unknown argument %s\n",
                         k.c_str());
            std::exit(2);
        }
    }
    if (a.workload.empty() || !(a.seconds > 0)) {
        std::fprintf(stderr, "tqbench: --workload and --seconds > 0 "
                             "are required\n");
        std::exit(2);
    }
    return a;
}

std::string
context_json(const Args &a, int threads, double stall_ms,
             double stall_max_ms, const std::vector<Metric> &extra)
{
    std::string s = "{\"workload\":\"" + json_escape(a.workload) +
                    "\",\"seed\":" + std::to_string(a.seed) +
                    ",\"seconds\":" + fmt_num(a.seconds) +
                    ",\"trace\":" + (a.trace ? "1" : "0") +
                    ",\"nproc\":" + std::to_string(nproc()) +
                    ",\"threads\":" + std::to_string(threads) +
                    ",\"cpu_model\":\"" + json_escape(cpu_model()) +
                    "\",\"tsc_ghz\":" + fmt_num(tq::cycles_per_ns()) +
                    ",\"commit\":\"" + json_escape(a.commit) +
                    "\",\"src_digest\":\"" + json_escape(a.src_digest) +
                    "\",\"client.stall_ms\":" + fmt_num(stall_ms) +
                    ",\"client.stall_max_ms\":" + fmt_num(stall_max_ms);
    for (const Metric &m : extra)
        s += ",\"" + m.name + "\":" + fmt_num(m.value);
    return s + "}";
}

void
print_result(bool correct, uint64_t attempted, uint64_t failed,
             const std::vector<Metric> &metrics)
{
    std::string s = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        if (i)
            s += ", ";
        s += "\"" + metrics[i].name + "\": {\"value\": " +
             fmt_num(metrics[i].value) + ", \"unit\": \"" +
             metrics[i].unit + "\"}";
    }
    s += "}}";
    std::printf("%s\n", s.c_str());
    std::fflush(stdout);
}

/** Names of the per-class quantum / closure metrics (TPC-C classes). */
const std::vector<std::string> &
tpcc_class_names()
{
    static const std::vector<std::string> names =
        tq::workload_table::tpcc()->class_names();
    return names;
}

// ---------------------------------------------------------------------
// Workload runners
// ---------------------------------------------------------------------

constexpr int kSetupPasses = 5;

int
run_runtime(const Args &a)
{
    RtBench b(make_workload(a.workload), a.seed);
    const RtWorkload &w = b.workload();
    const int threads = 1 + w.cfg.num_dispatchers + w.cfg.num_workers;

    // The window is split over several runtime instances, each set up
    // afresh (store load, Runtime, start, warm-up): thread
    // placement differs per instance, and a run should not rest on one
    // draw of it. setup_s is the median set-up time. A traced run uses
    // two instances: an untraced baseline (also the stream the
    // simulator replays), then the traced one.
    const int instances = a.trace ? 2 : kSetupPasses;
    const double slice = a.seconds / instances;
    std::vector<double> setups;
    std::vector<WindowStats> wins;
    tq::telemetry::MetricsSnapshot s0, s1;
    double snap0_us = 0, snap1_us = 0;
    for (int i = 0; i < instances; ++i) {
        setups.push_back(b.setup());
        if (i == 0)
            b.build_reference();
        const bool traced = a.trace && i == instances - 1;
        if (traced) {
            const double t = now_s();
            s0 = b.rt().telemetry_snapshot();
            snap0_us = (now_s() - t) * 1e6;
        }
        wins.push_back(b.run_window(slice, traced, a.seed + i));
        if (traced) {
            const double t = now_s();
            s1 = b.rt().telemetry_snapshot();
            snap1_us = (now_s() - t) * 1e6;
        }
        b.stop();
        b.check_deferred();
    }
    const double setup_s = median(setups);
    const bool correct = b.failed() == 0;

    if (!a.trace) {
        WindowStats ws = std::move(wins[0]);
        for (size_t i = 1; i < wins.size(); ++i)
            ws.absorb(wins[i]);
        std::vector<Metric> extra = latency_metrics(w, ws);
        extra.push_back({"offered_mrps", w.rate_mrps, "Mrps"});
        extra.push_back({"window", static_cast<double>(w.window), "count"});
        std::printf("{\"context\": %s}\n",
                    context_json(a, threads, ws.stall_ms, ws.stall_max_ms,
                                 extra)
                        .c_str());
        print_result(correct, b.attempted(), b.failed(),
                     end_to_end_metrics(ws, setup_s, b.attempted(),
                                        b.failed()));
        return correct ? 0 : 1;
    }

    const WindowStats &base = wins[0];
    const WindowStats &tr = wins[1];

    const Ledger &L = b.ledger();
    const SnapDiff d{s0, s1};
    using Snap = tq::telemetry::MetricsSnapshot;
    const double finished = d.count(&Snap::finished);
    auto per_fin = [&](double v) { return finished > 0 ? v / finished : 0.0; };
    const double service_mean = SnapDiff::mean(s0.service, s1.service);
    const double demand_mean =
        tr.demand_count ? tr.demand_sum_ns / tr.demand_count : 0;
    const double period_ns =
        finished > 0 ? slice * 1e9 * w.cfg.num_workers / finished : 0;
    const double ref_demand =
        w.handler == Handler::Spin ? demand_mean : service_mean;

    std::vector<Metric> m;
    auto add = [&](const std::string &n, double v, const char *u) {
        m.push_back({n, v, u});
    };
    add("client.lag_p50_us", L.lag.quantile(0.5) / 1e3, "us");
    add("client.lag_p99_us", L.lag.quantile(0.99) / 1e3, "us");
    add("client.submit_ns_p50", L.submit.quantile(0.5), "ns");
    add("client.submit_ns_p99", L.submit.quantile(0.99), "ns");
    add("client.drain_ns_p50", L.drain.quantile(0.5), "ns");
    add("client.resp_per_drain",
        L.nonempty_drains ? L.resp_in_drains / L.nonempty_drains : 0,
        "count");
    add("client.busy_share",
        tr.loop_cycles > 0 ? tr.busy_cycles / tr.loop_cycles : 0, "share");
    add("client.refused", static_cast<double>(tr.refused), "count");
    add("client.stall_ms", tr.stall_ms, "ms");
    add("client.stall_max_ms", tr.stall_max_ms, "ms");
    add("rx.wait_us_p50", L.rx.quantile(0.5) / 1e3, "us");
    add("rx.wait_us_p99", L.rx.quantile(0.99) / 1e3, "us");
    add("dispatch.mean_ns", SnapDiff::mean(s0.dispatch, s1.dispatch), "ns");
    {
        const double batches = d.count(&Snap::dispatch_batches);
        const double jobs_in_batches =
            s1.mean_dispatch_batch * s1.dispatch_batches -
            s0.mean_dispatch_batch * s0.dispatch_batches;
        add("dispatch.batch_mean", batches > 0 ? jobs_in_batches / batches : 0,
            "count");
    }
    add("dispatch.ring_full_spins", d.count(&Snap::dispatch_ring_full_spins),
        "count");
    add("dispatch.jobs", d.count(&Snap::dispatched), "count");
    add("worker.sojourn_us_p50", L.worker.quantile(0.5) / 1e3, "us");
    add("worker.sojourn_us_p99", L.worker.quantile(0.99) / 1e3, "us");
    add("worker.queueing_mean_ns", SnapDiff::mean(s0.queueing, s1.queueing),
        "ns");
    add("worker.quanta_per_job", per_fin(d.count(&Snap::quanta)), "count");
    add("worker.yields_per_job", per_fin(d.count(&Snap::yields)), "count");
    add("worker.service_mean_ns", service_mean, "ns");
    add("worker.service_inflation",
        w.handler == Handler::Spin && demand_mean > 0
            ? service_mean / demand_mean
            : 0,
        "ratio");
    add("worker.preempt_overshoot_mean_ns",
        SnapDiff::mean(s0.preempt, s1.preempt), "ns");
    add("worker.guard_deferrals", d.count(&Snap::guard_deferrals), "count");
    add("worker.per_job_overhead_ns",
        period_ns > 0 ? period_ns - ref_demand : 0, "ns");
    add("tx.wait_us_p50", L.tx.quantile(0.5) / 1e3, "us");
    add("tx.wait_us_p99", L.tx.quantile(0.99) / 1e3, "us");
    add("tx.ring_full_spins", d.count(&Snap::tx_ring_full_spins), "count");
    add("tx.dropped", d.count(&Snap::dropped_responses), "count");
    for (size_t c = 0; c < tpcc_class_names().size(); ++c) {
        double grants = 0, fin = 0, granted_us = 0;
        if (c < s1.per_class.size()) {
            const auto &y = s1.per_class[c];
            const tq::telemetry::ClassQuantaStats x =
                c < s0.per_class.size() ? s0.per_class[c]
                                        : tq::telemetry::ClassQuantaStats{};
            grants = static_cast<double>(y.grants - x.grants);
            fin = static_cast<double>(y.finished - x.finished);
            granted_us =
                grants > 0 ? (y.mean_granted_us * y.grants -
                              x.mean_granted_us * x.grants) /
                                 grants
                           : 0;
        }
        const std::string &n = tpcc_class_names()[c];
        add("quantum." + n + ".grants_per_job", fin > 0 ? grants / fin : 0,
            "count");
        add("quantum." + n + ".mean_granted_us", granted_us, "us");
    }
    add("quantum.starvation_promotions",
        d.count(&Snap::starvation_promotions), "count");
    add("telemetry.snapshot_us", 0.5 * (snap0_us + snap1_us), "us");
    add("telemetry.trace_dropped", d.count(&Snap::trace_dropped), "count");
    {
        double hops = 0;
        for (double h : L.hop_sum)
            hops += h;
        add("ledger.residual_share",
            L.e2e_sum > 0 ? std::fabs(L.e2e_sum - hops) / L.e2e_sum : 0,
            "share");
        add("ledger.hop_count", static_cast<double>(L.hop_count), "count");
        // Worker hop time the runtime's own stage histograms leave
        // unexplained (waits between slices, completion to TX push).
        const double worker_mean =
            L.hop_count ? L.hop_sum[3] / L.hop_count : 0;
        const double stages = SnapDiff::mean(s0.dispatch, s1.dispatch) +
                              SnapDiff::mean(s0.queueing, s1.queueing) +
                              service_mean;
        add("ledger.worker_unattributed_share",
            worker_mean > 0 ? (worker_mean - stages) / worker_mean : 0,
            "share");
    }
    add("ledger.negative_hops", static_cast<double>(L.negative_hops),
        "count");
    add("ledger.rx_overlap", static_cast<double>(L.rx_overlap), "count");
    add("trace.overhead_p50_us",
        (tr.e2e[w.short_class].quantile(0.5) -
         base.e2e[w.short_class].quantile(0.5)) /
            1e3,
        "us");
    const std::vector<Metric> latency = latency_metrics(w, base);
    m.insert(m.end(), latency.begin(), latency.end());
    add("fail_share",
        b.attempted() ? static_cast<double>(b.failed()) /
                            static_cast<double>(b.attempted())
                      : 0,
        "share");

    // Sim closure (tpcc_classes): replay the untraced window's seeded
    // stream through run_two_level at the runtime's configuration.
    double sim_call_s = 0, sim_mjobs = 0;
    std::vector<double> mean_ratio(tpcc_class_names().size(), 0);
    std::vector<double> p99_ratio(tpcc_class_names().size(), 0);
    if (w.name == "tpcc_classes") {
        tq::sim::TwoLevelConfig cfg;
        cfg.num_cores = w.cfg.num_workers;
        cfg.core_policy = tq::sim::CorePolicy::Las;
        for (double q : w.cfg.class_quantum_us)
            cfg.class_quantum.push_back(tq::us(q));
        cfg.deficit_clamp = tq::us(w.cfg.deficit_clamp_us);
        cfg.starvation_promote_after = w.cfg.starvation_promote_after;
        cfg.duration = slice * 1e9;
        cfg.warmup = 0;
        cfg.seed = a.seed;
        const Cycles c0 = rdcycles();
        const tq::sim::SimResult r =
            tq::sim::run_two_level(cfg, *w.dist, tq::mrps(w.rate_mrps));
        const Cycles c1 = rdcycles();
        b.spans().add("run_two_level", "sim", kLaneSim, c0, c1, 0);
        sim_call_s = cyc_ns(c1 - c0) / 1e9;
        sim_mjobs = sim_call_s > 0 ? r.completed / sim_call_s / 1e6 : 0;
        for (size_t c = 0; c < r.classes.size() && c < mean_ratio.size();
             ++c) {
            const auto &sc = r.classes[c];
            if (sc.mean_sojourn > 0)
                mean_ratio[c] = base.e2e[c].mean() / sc.mean_sojourn;
            if (sc.p99_sojourn > 0)
                p99_ratio[c] = base.e2e[c].quantile(0.99) / sc.p99_sojourn;
        }
    }
    for (size_t c = 0; c < tpcc_class_names().size(); ++c) {
        const std::string &n = tpcc_class_names()[c];
        add("closure." + n + ".mean_ratio", mean_ratio[c], "ratio");
        add("closure." + n + ".p99_ratio", p99_ratio[c], "ratio");
    }
    add("sim.ps.mjobs_per_s", 0, "Mjobs/s");
    add("sim.las.mjobs_per_s", w.name == "tpcc_classes" ? sim_mjobs : 0,
        "Mjobs/s");
    add("sim.call_s_max", sim_call_s, "s");

    const std::string ctx =
        context_json(a, threads, tr.stall_ms, tr.stall_max_ms,
                     {{"setup_s", setup_s, "s"},
                      {"offered_mrps", w.rate_mrps, "Mrps"},
                      {"window", static_cast<double>(w.window), "count"}});
    std::printf("{\"context\": %s}\n", ctx.c_str());
    bool spans_ok = true;
    if (!a.spans.empty())
        spans_ok = b.spans().write(a.spans, ctx);
    if (!spans_ok)
        std::fprintf(stderr, "tqbench: could not write %s\n",
                     a.spans.c_str());
    print_result(correct && spans_ok, b.attempted(), b.failed(), m);
    return correct && spans_ok ? 0 : 1;
}

int
run_sim(const Args &a)
{
    const auto eb = tq::workload_table::extreme_bimodal();
    const auto tpcc = tq::workload_table::tpcc();
    const double cores = 16;
    const double eb_cap = cores / eb->mean();
    const double tpcc_cap = cores / tpcc->mean();
    uint64_t failed = 0, attempted = 0;
    SpanLog spans;

    // Set-up: construct the pinned configuration and run it, checking
    // its digest; repeated, median reported.
    std::vector<double> setups;
    for (int i = 0; i < kSetupPasses; ++i) {
        const double t0 = now_s();
        const auto dist = tq::workload_table::extreme_bimodal();
        const tq::sim::SimResult r = tq::sim::run_two_level(
            pinned_config(), *dist, kPinnedLoad * cores / dist->mean());
        setups.push_back(now_s() - t0);
        ++attempted;
        const std::string got = sim_digest(r);
        if (got != kPinnedDigest) {
            ++failed;
            std::fprintf(stderr, "tqbench: pinned sim digest mismatch:\n"
                                 "  got  %s\n  want %s\n",
                         got.c_str(), kPinnedDigest);
        }
    }
    const double setup_s = median(setups);

    LatHist ps_call, las_call;
    std::vector<double> pass_rates;
    double ps_jobs = 0, ps_s = 0, las_jobs = 0, las_s = 0, call_max = 0;
    uint64_t slo_met = 0, calls = 0;
    std::string first_digest;
    const double t_end = now_s() + a.seconds;
    for (uint64_t pass = 0; now_s() < t_end; ++pass) {
        double pass_jobs = 0, pass_s = 0;
        const auto &grid = sim_grid();
        for (size_t i = 0; i < grid.size(); ++i) {
            const SimPoint &p = grid[i];
            const uint64_t seed =
                tq::sim::derive_seed(a.seed, pass * grid.size() + i);
            const tq::MixtureDist &dist = p.las ? *tpcc : *eb;
            const double rate = p.load * (p.las ? tpcc_cap : eb_cap);
            const Cycles c0 = rdcycles();
            const tq::sim::SimResult r =
                tq::sim::run_two_level(grid_config(p, seed), dist, rate);
            const Cycles c1 = rdcycles();
            if (a.trace)
                spans.add(p.las ? "run_two_level las" : "run_two_level ps",
                          "sim", kLaneSim, c0, c1, pass * grid.size() + i);
            const double ns = cyc_ns(c1 - c0);
            ++calls;
            ++attempted;
            if (!sim_sane(r))
                ++failed;
            if (sim_slo(p, r, dist))
                ++slo_met;
            (p.las ? las_call : ps_call).add(ns);
            const double jobs = static_cast<double>(r.completed);
            (p.las ? las_jobs : ps_jobs) += jobs;
            (p.las ? las_s : ps_s) += ns / 1e9;
            pass_jobs += jobs;
            pass_s += ns / 1e9;
            call_max = std::max(call_max, ns / 1e9);
            if (pass == 0 && i == 0)
                first_digest = sim_digest(r);
        }
        pass_rates.push_back(pass_jobs / pass_s / 1e6);
    }
    // Determinism: the first grid point replays bit-identically.
    {
        ++attempted;
        const tq::sim::SimResult r = tq::sim::run_two_level(
            grid_config(sim_grid()[0], tq::sim::derive_seed(a.seed, 0)), *eb,
            sim_grid()[0].load * eb_cap);
        if (sim_digest(r) != first_digest) {
            ++failed;
            std::fprintf(stderr, "tqbench: sim replay is not deterministic\n");
        }
    }
    const bool correct = failed == 0;

    // A sim_sweep "request" is one grid call: short = PS, long = LAS.
    const std::vector<Metric> latency = {
        {"short_p50_us", ps_call.quantile(0.5) / 1e3, "us"},
        {"short_p90_us", ps_call.quantile(0.9) / 1e3, "us"},
        {"short_p99_us", ps_call.quantile(0.99) / 1e3, "us"},
        {"long_p50_us", las_call.quantile(0.5) / 1e3, "us"},
        {"long_p90_us", las_call.quantile(0.9) / 1e3, "us"},
        {"short.count", static_cast<double>(ps_call.count()), "count"},
        {"long.count", static_cast<double>(las_call.count()), "count"},
    };
    std::vector<Metric> extra = latency;
    extra.push_back({"setup_s", setup_s, "s"});
    const std::string ctx = context_json(a, 1, 0, 0, extra);
    std::printf("{\"context\": %s}\n", ctx.c_str());
    std::vector<Metric> m;
    if (!a.trace) {
        m = {
            {"setup_s", setup_s, "s"},
            {"throughput_mrps", median(pass_rates), "Mrps"},
            {"ok_share",
             1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
             "share"},
            {"slo_share",
             calls ? static_cast<double>(slo_met) / static_cast<double>(calls)
                   : 0,
             "share"},
        };
        print_result(correct, attempted, failed, m);
        return correct ? 0 : 1;
    }
    // Per-layer names are shared by every workload; the runtime layers
    // read zero here.
    const char *zero_layers[][2] = {
        {"client.lag_p50_us", "us"},      {"client.lag_p99_us", "us"},
        {"client.submit_ns_p50", "ns"},   {"client.submit_ns_p99", "ns"},
        {"client.drain_ns_p50", "ns"},    {"client.resp_per_drain", "count"},
        {"client.busy_share", "share"},   {"client.refused", "count"},
        {"client.stall_ms", "ms"},        {"client.stall_max_ms", "ms"},
        {"rx.wait_us_p50", "us"},         {"rx.wait_us_p99", "us"},
        {"dispatch.mean_ns", "ns"},       {"dispatch.batch_mean", "count"},
        {"dispatch.ring_full_spins", "count"}, {"dispatch.jobs", "count"},
        {"worker.sojourn_us_p50", "us"},  {"worker.sojourn_us_p99", "us"},
        {"worker.queueing_mean_ns", "ns"}, {"worker.quanta_per_job", "count"},
        {"worker.yields_per_job", "count"},
        {"worker.service_mean_ns", "ns"},
        {"worker.service_inflation", "ratio"},
        {"worker.preempt_overshoot_mean_ns", "ns"},
        {"worker.guard_deferrals", "count"},
        {"worker.per_job_overhead_ns", "ns"},
        {"tx.wait_us_p50", "us"},         {"tx.wait_us_p99", "us"},
        {"tx.ring_full_spins", "count"},  {"tx.dropped", "count"},
    };
    for (const auto &z : zero_layers)
        m.push_back({z[0], 0, z[1]});
    for (const std::string &n : tpcc_class_names()) {
        m.push_back({"quantum." + n + ".grants_per_job", 0, "count"});
        m.push_back({"quantum." + n + ".mean_granted_us", 0, "us"});
    }
    m.push_back({"quantum.starvation_promotions", 0, "count"});
    m.push_back({"telemetry.snapshot_us", 0, "us"});
    m.push_back({"telemetry.trace_dropped", 0, "count"});
    m.push_back({"ledger.residual_share", 0, "share"});
    m.push_back({"ledger.hop_count", 0, "count"});
    m.push_back({"ledger.worker_unattributed_share", 0, "share"});
    m.push_back({"ledger.negative_hops", 0, "count"});
    m.push_back({"ledger.rx_overlap", 0, "count"});
    m.push_back({"trace.overhead_p50_us", 0, "us"});
    m.insert(m.end(), latency.begin(), latency.end());
    m.push_back({"fail_share",
                 static_cast<double>(failed) / static_cast<double>(attempted),
                 "share"});
    for (const std::string &n : tpcc_class_names()) {
        m.push_back({"closure." + n + ".mean_ratio", 0, "ratio"});
        m.push_back({"closure." + n + ".p99_ratio", 0, "ratio"});
    }
    m.push_back({"sim.ps.mjobs_per_s", ps_s > 0 ? ps_jobs / ps_s / 1e6 : 0,
                 "Mjobs/s"});
    m.push_back({"sim.las.mjobs_per_s",
                 las_s > 0 ? las_jobs / las_s / 1e6 : 0, "Mjobs/s"});
    m.push_back({"sim.call_s_max", call_max, "s"});

    bool spans_ok = true;
    if (!a.spans.empty())
        spans_ok = spans.write(a.spans, ctx);
    print_result(correct && spans_ok, attempted, failed, m);
    return correct && spans_ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parse(argc, argv);
    tq::cycles_per_ns(); // calibrate once, before any timing
    if (a.workload == "sim_sweep")
        return run_sim(a);
    return run_runtime(a);
}
