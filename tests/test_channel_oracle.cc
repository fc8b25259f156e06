/**
 * @file
 * Differential oracle for the channel scheduler. The real
 * memctrl::Channel runs beside RefChannel, a deliberately naive model
 * written straight from channel.hh's header comment: arrival-ordered
 * vectors rescanned in full on every call, pause points found by
 * walking the pulse train, tFAW read off the whole activate list. Both
 * run the same scheduled traffic, each on its own EventQueue, and must
 * refuse the same enqueues, complete every request at the same tick,
 * count the same channel stats and execute the same number of events.
 * Traffic is enqueued from events only, never from hooks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/histogram.hh"
#include "common/random.hh"
#include "memctrl/channel.hh"

namespace rrm::memctrl
{
namespace
{

/** One scheduled input: a request to enqueue. */
struct Input
{
    Tick at = 0;
    ReqKind kind = ReqKind::Read;
    Addr addr = 0;
    pcm::WriteMode mode = pcm::WriteMode::Sets7;
};

/**
 * Inputs may come in any order: each is an event at its tick, and
 * inputs on one tick run in list order on both models.
 */
struct Scenario
{
    MemoryParams params;
    std::vector<Input> inputs;
};

/** Everything a run shows from outside; the two models must agree. */
struct Outcome
{
    explicit Outcome(std::size_t n) : accepted(n, 0), done(n, maxTick) {}

    std::vector<int> accepted; ///< per input: 1 accepted, 0 refused
    std::vector<Tick> done;    ///< per input: completion tick
    /** reads, rowHits, writes, rrmRefreshes, writePauses, drainEntries */
    std::vector<std::uint64_t> counts;
    /** readLatency bucket counts, then its sample count and sum. */
    std::vector<std::uint64_t> latency;
    std::uint64_t events = 0;
};

const char *const countNames[] = {"reads",        "rowHits",
                                  "writes",       "rrmRefreshes",
                                  "writePauses",  "drainEntries"};
enum Count
{
    cReads,
    cRowHits,
    cWrites,
    cRefreshes,
    cWritePauses,
    cDrainEntries,
    numCounts
};

/** Channel 0 address of `block` in row `row` of `bank`. */
Addr
addrOf(const MemoryParams &p, unsigned bank, std::uint64_t row,
       unsigned block = 0)
{
    return (row * p.banksPerChannel + bank) * p.numChannels *
               p.rowBufferBytes +
           block * blockBytes;
}

// ---- The real channel ----

Outcome
runChannel(const Scenario &s)
{
    EventQueue queue;
    Channel ch(0, s.params, queue);
    stats::StatGroup root("oracle");
    ch.regStats(root);
    Outcome out(s.inputs.size());
    for (std::size_t i = 0; i < s.inputs.size(); ++i) {
        queue.schedule(s.inputs[i].at, [&s, &ch, &out, i] {
            const Input &in = s.inputs[i];
            Request req;
            req.kind = in.kind;
            req.addr = in.addr;
            req.mode = in.mode;
            req.onComplete = [&out, i](Tick t) { out.done[i] = t; };
            switch (in.kind) {
              case ReqKind::Read:
                out.accepted[i] = ch.enqueueRead(std::move(req));
                break;
              case ReqKind::Write:
                out.accepted[i] = ch.enqueueWrite(std::move(req));
                break;
              case ReqKind::RrmRefresh:
                out.accepted[i] = ch.enqueueRefresh(std::move(req));
                break;
            }
        });
    }
    queue.run();
    EXPECT_TRUE(ch.quiescent());
    for (const char *name : countNames) {
        const auto *stat = dynamic_cast<const stats::Scalar *>(
            root.find(std::string("channel0.") + name));
        out.counts.push_back(
            stat ? static_cast<std::uint64_t>(stat->value()) : ~0ull);
    }
    const auto *lat = dynamic_cast<const stats::DistributionStat *>(
        root.find("channel0.readLatency"));
    if (lat) {
        for (std::size_t b = 0; b < lat->histogram().numBuckets(); ++b)
            out.latency.push_back(lat->histogram().count(b));
        out.latency.push_back(lat->samples().count());
        out.latency.push_back(
            static_cast<std::uint64_t>(lat->samples().sum()));
    }
    out.events = queue.eventsExecuted();
    return out;
}

// ---- The reference ----

/**
 * Naive FR-FCFS channel. Each scheduling call makes passes until one
 * issues nothing; a pass tries, in this order:
 *  1. refreshes, oldest first, skipping busy banks; none while held;
 *  2. reads, unless draining writes: the first row hit (in arrival
 *     order) on an idle bank is tried alone, and the pass stops
 *     looking for row hits there even when it cannot issue; then the
 *     oldest read that can issue;
 *  3. writes, oldest first, in drain mode (entered at the high
 *     watermark, left at the low one) or when no read is queued.
 * A call that leaves work queued arms one retry at the earliest tick
 * any of its tries reported. A write can be paused at the end of its
 * RESET pulse or of any SET pulse but the last, to serve a read to
 * its bank; the remaining pulses move back by the read's access time.
 */
class RefChannel
{
  public:
    /** How often each corner case was reached (coverage, not output). */
    struct Seen
    {
        unsigned pastPausePoint = 0; ///< a read waits past its pause point
        unsigned firstReadBehindWrites = 0;
        /** A read completion ran while a write had ended unretired. */
        unsigned completionAtWriteEnd = 0;
        unsigned rowHitStopped = 0; ///< the lone row-hit try failed
    };

    RefChannel(const MemoryParams &p, EventQueue &q, Outcome &out)
        : p_(p), q_(q), out_(out), map_(p), banks_(p.banksPerChannel),
          latency_({50000, 100000, 200000, 400000, 800000, 1600000,
                    3200000})
    {
        out_.counts.assign(numCounts, 0);
    }

    bool
    enqueue(const Input &in, std::size_t id)
    {
        std::vector<Req> &q = in.kind == ReqKind::Read    ? reads_
                              : in.kind == ReqKind::Write ? writes_
                                                          : refreshes_;
        const unsigned cap = in.kind == ReqKind::Read ? p_.readQueueCap
                             : in.kind == ReqKind::Write
                                 ? p_.writeQueueCap
                                 : p_.refreshQueueCap;
        if (q.size() >= cap)
            return false;
        if (in.kind == ReqKind::Read && reads_.empty() &&
            !writes_.empty() && !drain_) {
            ++seen.firstReadBehindWrites;
        }
        const Location loc = map_.decode(in.addr);
        q.push_back({in.kind, loc.bank, loc.rowId, in.mode, q_.now(), id});
        schedule();
        return true;
    }

    void
    finish()
    {
        for (std::size_t b = 0; b < latency_.numBuckets(); ++b)
            out_.latency.push_back(latency_.count(b));
        std::uint64_t sum = 0;
        for (const Tick t : latencies_)
            sum += t;
        out_.latency.push_back(latencies_.size());
        out_.latency.push_back(sum);
    }

    Seen seen;

  private:
    struct Req
    {
        ReqKind kind;
        unsigned bank;
        std::uint64_t row;
        pcm::WriteMode mode;
        Tick enqueued;
        std::size_t id;
    };

    struct Bank
    {
        Tick busyUntil = 0;
        bool rowOpen = false;
        std::uint64_t row = 0;
        bool writing = false;
        Tick pulseStart = 0;
        Req write{};
    };

    /** The pulse train ended but its completion event has not run. */
    static bool
    ended(const Bank &b, Tick now)
    {
        return b.writing && b.busyUntil <= now;
    }

    bool
    rowHit(const Req &r) const
    {
        const Bank &b = banks_[r.bank];
        return b.rowOpen && b.row == r.row;
    }

    Tick
    accessTime(const Req &r) const
    {
        return rowHit(r) ? p_.tCAS : p_.tRCD + p_.tCAS;
    }

    /** First pause point >= now of the bank's write, or maxTick. */
    Tick
    pausePoint(const Bank &b, Tick now) const
    {
        for (Tick pp = b.pulseStart + pcm::resetPulse; pp < b.busyUntil;
             pp += pcm::setPulse) {
            if (pp >= now)
                return pp;
        }
        return maxTick;
    }

    /** Earliest tick >= now at which read `r` can issue. */
    Tick
    readStart(const Req &r, Tick now) const
    {
        const Bank &b = banks_[r.bank];
        Tick start = std::max(now, b.busyUntil);
        if (b.busyUntil > now && b.writing && p_.writePausing)
            start = std::min(start, pausePoint(b, now));
        if (!rowHit(r) && activates_.size() >= 4) {
            start = std::max(
                start, activates_[activates_.size() - 4] + p_.tFAW);
        }
        // The data burst follows the access and needs the bus.
        if (busFreeAt_ > start + accessTime(r))
            start = busFreeAt_ - accessTime(r);
        return start;
    }

    /** Earliest tick >= now at which write or refresh `r` can issue. */
    Tick
    writeStart(const Req &r, Tick now) const
    {
        Tick start = std::max(now, banks_[r.bank].busyUntil);
        // A demand write sends its data over the bus first; a
        // refresh reads the array internally.
        if (r.kind == ReqKind::Write)
            start = std::max(start, busFreeAt_);
        return start;
    }

    /** Issue read `i` if it can issue now; else note when it could. */
    bool
    tryRead(std::size_t i, Tick now, Tick &earliest)
    {
        const Req r = reads_[i];
        Bank &b = banks_[r.bank];
        if (ended(b, now)) {
            earliest = std::min(earliest, now);
            return false;
        }
        const Tick start = readStart(r, now);
        if (start > now) {
            if (b.writing && p_.writePausing && pausePoint(b, now) < start)
                ++seen.pastPausePoint;
            earliest = std::min(earliest, start);
            return false;
        }
        reads_.erase(reads_.begin() + static_cast<std::ptrdiff_t>(i));
        const bool hit = rowHit(r);
        const Tick access = accessTime(r);
        if (b.writing) {
            b.pulseStart += access;
            b.busyUntil += access;
            ++out_.counts[cWritePauses];
        } else {
            b.busyUntil = now + access;
        }
        if (!hit) {
            activates_.push_back(now);
            b.rowOpen = true;
            b.row = r.row;
        }
        const Tick done = now + access + p_.burstTime();
        busFreeAt_ = done;
        ++out_.counts[cReads];
        if (hit)
            ++out_.counts[cRowHits];
        latency_.add(done - r.enqueued);
        latencies_.push_back(done - r.enqueued);
        q_.schedule(
            done,
            [this, id = r.id, done] {
                out_.done[id] = done;
                for (const Bank &other : banks_)
                    if (ended(other, done))
                        ++seen.completionAtWriteEnd;
                schedule();
            },
            EventPriority::MemoryResponse);
        return true;
    }

    /** Issue write or refresh `i` of `q` if it can issue now. */
    bool
    tryWrite(std::vector<Req> &q, std::size_t i, Tick now, Tick &earliest)
    {
        const Req r = q[i];
        Bank &b = banks_[r.bank];
        if (ended(b, now)) {
            earliest = std::min(earliest, now);
            return false;
        }
        const Tick start = writeStart(r, now);
        if (start > now) {
            earliest = std::min(earliest, start);
            return false;
        }
        q.erase(q.begin() + static_cast<std::ptrdiff_t>(i));
        if (r.kind == ReqKind::RrmRefresh) {
            b.pulseStart = now + p_.tRCD;
            activates_.push_back(now);
            ++out_.counts[cRefreshes];
        } else {
            b.pulseStart = now + p_.burstTime();
            busFreeAt_ = now + p_.burstTime();
            ++out_.counts[cWrites];
        }
        b.writing = true;
        b.busyUntil = b.pulseStart + pcm::writeLatency(r.mode);
        b.write = r;
        watchWrite(r.bank, b.busyUntil);
        return true;
    }

    void
    watchWrite(unsigned bank, Tick when)
    {
        q_.schedule(
            when,
            [this, bank] {
                Bank &b = banks_[bank];
                // A pause moved the end of the pulse train back.
                if (q_.now() < b.busyUntil) {
                    watchWrite(bank, b.busyUntil);
                    return;
                }
                b.writing = false;
                out_.done[b.write.id] = q_.now();
                schedule();
            },
            EventPriority::MemoryResponse);
    }

    /** One pass; true if it issued something. */
    bool
    pass(Tick now, Tick &earliest)
    {
        if (!drain_ && writes_.size() >= p_.writeHighWatermark) {
            drain_ = true;
            ++out_.counts[cDrainEntries];
        }
        if (drain_ && writes_.size() <= p_.writeLowWatermark)
            drain_ = false;

        for (std::size_t i = 0; i < refreshes_.size(); ++i)
            if (tryWrite(refreshes_, i, now, earliest))
                return true;

        if (!drain_ && !reads_.empty()) {
            for (std::size_t i = 0; i < reads_.size(); ++i) {
                if (rowHit(reads_[i]) &&
                    banks_[reads_[i].bank].busyUntil <= now) {
                    if (tryRead(i, now, earliest))
                        return true;
                    ++seen.rowHitStopped;
                    break;
                }
            }
            for (std::size_t i = 0; i < reads_.size(); ++i)
                if (tryRead(i, now, earliest))
                    return true;
        }

        if (!writes_.empty() && (drain_ || reads_.empty())) {
            for (std::size_t i = 0; i < writes_.size(); ++i)
                if (tryWrite(writes_, i, now, earliest))
                    return true;
        }
        return false;
    }

    void
    schedule()
    {
        const Tick now = q_.now();
        Tick earliest = maxTick;
        while (pass(now, earliest)) {
        }
        if ((!refreshes_.empty() || !reads_.empty() || !writes_.empty()) &&
            earliest != maxTick) {
            retry(earliest);
        }
    }

    void
    retry(Tick when)
    {
        if (retryPending_ && retryAt_ <= when)
            return;
        if (retryPending_)
            q_.cancel(retryEvent_);
        retryPending_ = true;
        retryAt_ = when;
        retryEvent_ = q_.schedule(when, [this] {
            retryPending_ = false;
            schedule();
        });
    }

    MemoryParams p_;
    EventQueue &q_;
    Outcome &out_;
    AddressMap map_;
    std::vector<Bank> banks_;
    std::vector<Req> reads_, writes_, refreshes_;
    std::vector<Tick> activates_;
    Tick busFreeAt_ = 0;
    bool drain_ = false;
    bool retryPending_ = false;
    Tick retryAt_ = 0;
    EventHandle retryEvent_;
    BoundedHistogram latency_;
    std::vector<Tick> latencies_;
};

Outcome
runReference(const Scenario &s, RefChannel::Seen *seen = nullptr)
{
    EventQueue queue;
    Outcome out(s.inputs.size());
    RefChannel ref(s.params, queue, out);
    for (std::size_t i = 0; i < s.inputs.size(); ++i) {
        queue.schedule(s.inputs[i].at, [&s, &ref, &out, i] {
            out.accepted[i] = ref.enqueue(s.inputs[i], i);
        });
    }
    queue.run();
    ref.finish();
    out.events = queue.eventsExecuted();
    if (seen)
        *seen = ref.seen;
    return out;
}

/** Index of the first differing element, or -1. */
template <typename T>
long
firstDiff(const std::vector<T> &a, const std::vector<T> &b)
{
    for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i)
        if (a[i] != b[i])
            return static_cast<long>(i);
    return a.size() == b.size() ? -1 : static_cast<long>(
                                           std::min(a.size(), b.size()));
}

/** Run both models on `s`; the reference's coverage into `seen`. */
Outcome
expectLockstep(const Scenario &s, RefChannel::Seen *seen = nullptr)
{
    const Outcome real = runChannel(s);
    const Outcome ref = runReference(s, seen);
    const long refused = firstDiff(real.accepted, ref.accepted);
    EXPECT_EQ(refused, -1) << "input " << refused << " accepted "
                           << real.accepted[refused] << ", reference "
                           << ref.accepted[refused];
    const long done = firstDiff(real.done, ref.done);
    EXPECT_EQ(done, -1) << "input " << done << " completes at "
                        << real.done[done] << ", reference "
                        << ref.done[done];
    EXPECT_EQ(real.counts, ref.counts)
        << "reads, rowHits, writes, rrmRefreshes, writePauses, "
           "drainEntries";
    EXPECT_EQ(real.latency, ref.latency)
        << "readLatency buckets, sample count, sum";
    EXPECT_EQ(real.events, ref.events) << "events executed";
    return real;
}

// ---- Traffic ----

/** Random traffic on channel 0. */
struct Shape
{
    unsigned requests = 1500;
    unsigned banks = 16;  ///< banks 0..banks-1
    unsigned rows = 8;    ///< rows per bank
    unsigned readPct = 55;
    unsigned writePct = 40; ///< the rest are refreshes
    Tick maxGap = 100_ns;
    /** Arrivals on the bus-cycle grid make same-tick coincidences likely. */
    Tick grid = 2500_ps;
};

Scenario
randomTraffic(std::uint64_t seed, const Shape &shape,
              const MemoryParams &params = MemoryParams{})
{
    Random rng(seed);
    Scenario s{params, {}};
    Tick t = 0;
    for (unsigned i = 0; i < shape.requests; ++i) {
        t += rng.uniform(shape.maxGap / shape.grid + 1) * shape.grid;
        Input in;
        in.at = t;
        const unsigned kind = static_cast<unsigned>(rng.uniform(100));
        in.kind = kind < shape.readPct ? ReqKind::Read
                  : kind < shape.readPct + shape.writePct
                      ? ReqKind::Write
                      : ReqKind::RrmRefresh;
        in.addr = addrOf(params, static_cast<unsigned>(
                                     rng.uniform(shape.banks)),
                         rng.uniform(shape.rows),
                         static_cast<unsigned>(rng.uniform(16)));
        in.mode = pcm::allWriteModes[rng.uniform(pcm::numWriteModes)];
        s.inputs.push_back(in);
    }
    return s;
}

void
add(Scenario &s, Tick at, ReqKind kind, unsigned bank, std::uint64_t row,
    pcm::WriteMode mode = pcm::WriteMode::Sets3)
{
    Input in;
    in.at = at;
    in.kind = kind;
    in.addr = addrOf(s.params, bank, row);
    in.mode = mode;
    s.inputs.push_back(in);
}

constexpr std::uint64_t seeds[] = {1, 2, 3, 4, 5, 6, 7, 8};

// ---- Cases ----

TEST(ChannelOracle, UniformRandomTraffic)
{
    for (const std::uint64_t seed : seeds) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        expectLockstep(randomTraffic(seed, Shape{}));
    }
}

TEST(ChannelOracle, SameBankRowConflicts)
{
    Shape shape;
    shape.banks = 2;
    shape.rows = 3;
    shape.readPct = 80;
    shape.writePct = 15;
    shape.maxGap = 40_ns;
    unsigned refused = 0;
    std::uint64_t row_hits = 0;
    for (const std::uint64_t seed : seeds) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const Outcome out = expectLockstep(randomTraffic(seed, shape));
        refused += static_cast<unsigned>(
            std::count(out.accepted.begin(), out.accepted.end(), 0));
        row_hits += out.counts[cRowHits];
    }
    EXPECT_GT(refused, 0u) << "the queues never filled";
    EXPECT_GT(row_hits, 0u);
}

TEST(ChannelOracle, DrainsCrossBothWatermarks)
{
    for (const std::uint64_t seed : seeds) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Random rng(seed);
        Scenario s;
        Tick t = 0;
        // Write bursts to four banks fill the queue past the high
        // watermark; the reads between them wait out each drain.
        for (int burst = 0; burst < 6; ++burst) {
            for (int i = 0; i < 90; ++i) {
                t += rng.uniform(5) * 2500_ps;
                add(s, t, rng.chance(0.15) ? ReqKind::Read : ReqKind::Write,
                    static_cast<unsigned>(rng.uniform(4)), rng.uniform(4),
                    pcm::allWriteModes[rng.uniform(pcm::numWriteModes)]);
            }
            t += 20_us + rng.uniform(100) * 100_ns;
        }
        const Outcome out = expectLockstep(s);
        EXPECT_GE(out.counts[cDrainEntries], 2u);
    }
}

TEST(ChannelOracle, ReadsArriveMidWriteAndOnPausePoints)
{
    for (const std::uint64_t seed : seeds) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Random rng(seed);
        Scenario s;
        for (int k = 0; k < 40; ++k) {
            const Tick base = 10_us * (k + 1);
            const unsigned bank = static_cast<unsigned>(rng.uniform(4));
            // The write issues on arrival: its pulses start after the
            // 20 ns data burst, and pause points follow every pulse.
            add(s, base, ReqKind::Write, bank, 0, pcm::WriteMode::Sets7);
            const Tick first = base + MemoryParams::burstTime() +
                               pcm::resetPulse;
            for (int r = 0; r < 4; ++r) {
                const Tick pp = first + rng.uniform(7) * pcm::setPulse;
                const Tick jitter = rng.uniform(3) * 2500_ps;
                add(s, rng.chance(0.5) ? pp : pp - jitter, ReqKind::Read,
                    rng.chance(0.7) ? bank : (bank + 1) % 4,
                    rng.uniform(2));
            }
        }
        const Outcome out = expectLockstep(s);
        EXPECT_GT(out.counts[cWritePauses], 0u);
    }
}

TEST(ChannelOracle, ReadPushedPastItsPausePointByTheBus)
{
    // A write on bank 0 pauses at base+120 ns, +270, +420, ... A read
    // to bank 1 at base+200 ns holds the bus until base+342.5 ns, so a
    // row-hit read to bank 0 at its pause point (base+270 ns) must
    // wait for the bus, past that pause point, to the next one. A
    // row-miss read to bank 2 issues in the same pass and pushes the
    // bus further. Row 5 of bank 0 is opened first.
    Scenario s;
    for (int k = 0; k < 8; ++k) {
        const Tick base = 10_us * (k + 1);
        add(s, base - 5_us, ReqKind::Read, 0, 5);
        add(s, base, ReqKind::Write, 0, 0, pcm::WriteMode::Sets7);
        add(s, base + 200_ns, ReqKind::Read, 1, 7 + k);
        add(s, base + 265_ns, ReqKind::Read, 0, 5);
        add(s, base + 270_ns, ReqKind::Read, 2, 9 + k);
    }
    RefChannel::Seen seen;
    expectLockstep(s, &seen);
    EXPECT_GT(seen.pastPausePoint, 0u);
}

TEST(ChannelOracle, ReadEntersAnEmptyReadQueueBehindWaitingWrites)
{
    // With no read queued, a write to bank 1 waits for the bus until
    // base+20 ns, and a retry is armed there. A read to idle bank 2
    // issues at base+10 ns and holds the bus until base+152.5 ns, so
    // the write now waits longer, but the earlier retry stays armed.
    // The next read, to bank 3 at base+15 ns, waits for the pause
    // point of bank 3's write at base+160 ns: a scan now tries that
    // read alone, and the base+20 ns retry must re-arm at base+160,
    // not at the write's base+152.5.
    Scenario s;
    for (int k = 0; k < 8; ++k) {
        const Tick base = 10_us * (k + 1);
        add(s, base - 260_ns, ReqKind::Write, 3, 0, pcm::WriteMode::Sets7);
        add(s, base, ReqKind::Write, 0, 0);
        add(s, base + 5_ns, ReqKind::Write, 1, 0);
        add(s, base + 10_ns, ReqKind::Read, 2, 10 + k);
        add(s, base + 15_ns, ReqKind::Read, 3, 20 + k);
    }
    RefChannel::Seen seen;
    expectLockstep(s, &seen);
    EXPECT_GT(seen.firstReadBehindWrites, 0u);
}

TEST(ChannelOracle, WriteEndsBeforeTheBusFreesWithAReadCompletionOnTheTick)
{
    // Bank 0's 3-SET write ends at base+570 ns; the read that pauses
    // it at base+120 ns moves the end to base+692.5 ns, re-arming its
    // completion at base+570. A read to bank 1 issued at base+550 ns
    // completes at base+692.5 too, and its event was armed first, so
    // its scan sees bank 0's write ended but not yet retired. A row
    // hit to bank 1 holds the bus past that tick, and a second write
    // to bank 0 waits on both.
    Scenario s;
    for (int k = 0; k < 8; ++k) {
        const Tick base = 10_us * (k + 1);
        add(s, base, ReqKind::Write, 0, 0);
        add(s, base + 1_ns, ReqKind::Write, 0, 1);
        add(s, base + 120_ns, ReqKind::Read, 0, 2 + k);
        add(s, base + 550_ns, ReqKind::Read, 1, 20 + k);
        add(s, base + 682500_ps, ReqKind::Read, 1, 20 + k);
    }
    RefChannel::Seen seen;
    expectLockstep(s, &seen);
    EXPECT_GT(seen.completionAtWriteEnd, 0u);
}

TEST(ChannelOracle, RowHitStopsAtTheFirstCandidate)
{
    // Bank 0's write, paused once, and bank 3's write both end at
    // base+692.5 ns; bank 3's completion runs first and scans while
    // bank 0's write is ended but unretired. The oldest row-hit
    // candidate (bank 0) cannot issue, so the scan stops looking for
    // row hits: the older row miss to bank 3 issues before the row
    // hit behind it.
    Scenario s;
    for (int k = 0; k < 8; ++k) {
        const Tick base = 10_us * (k + 1);
        add(s, base - 5_us, ReqKind::Read, 3, 40 + k);
        add(s, base, ReqKind::Write, 0, 0);
        add(s, base + 122500_ps, ReqKind::Write, 3, 0);
        add(s, base + 270_ns, ReqKind::Read, 0, 2 + k);
        add(s, base + 580_ns, ReqKind::Read, 0, 2 + k);
        add(s, base + 600_ns, ReqKind::Read, 3, 60 + k);
        add(s, base + 610_ns, ReqKind::Read, 3, 40 + k);
    }
    RefChannel::Seen seen;
    expectLockstep(s, &seen);
    EXPECT_GT(seen.rowHitStopped, 0u);
}

TEST(ChannelOracle, RefreshHeavyTraffic)
{
    Shape shape;
    shape.readPct = 40;
    shape.writePct = 20;
    shape.banks = 6;
    for (const std::uint64_t seed : seeds) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const Outcome out = expectLockstep(randomTraffic(seed, shape));
        EXPECT_GT(out.counts[cRefreshes], 0u);
    }
}

TEST(ChannelOracle, WritePausingOff)
{
    MemoryParams params;
    params.writePausing = false;
    Shape shape;
    shape.banks = 4;
    for (const std::uint64_t seed : seeds) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const Outcome out =
            expectLockstep(randomTraffic(seed, shape, params));
        EXPECT_EQ(out.counts[cWritePauses], 0u);
    }
}

TEST(ChannelOracle, DenseTrafficOnFewBanks)
{
    // Everything at once on four banks: pauses, drains, bus and tFAW
    // pushes and same-tick completions all interleave.
    Shape shape;
    shape.requests = 3000;
    shape.banks = 4;
    shape.rows = 2;
    shape.readPct = 50;
    shape.writePct = 40;
    shape.maxGap = 30_ns;
    for (const std::uint64_t seed : seeds) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        expectLockstep(randomTraffic(seed, shape));
    }
}

} // namespace
} // namespace rrm::memctrl
