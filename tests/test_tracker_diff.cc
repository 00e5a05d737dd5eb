/**
 * @file
 * Differential tests for the cache vulnerability tracker and the ledger's
 * batched booking.
 *
 * CacheVulnTracker keeps only the units touched since a line's fill and
 * books equal intervals as one counted call. DenseTracker below is the
 * straightforward model it must equal: one (since, dirty) record per unit,
 * written at every fill and booked one unit at a time. Both are driven
 * with the same random fill/access/evict traffic, and every ledger tally
 * and every serialized byte must agree.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cstdint>
#include <string>
#include <vector>

#include "avf/mem_trackers.hh"
#include "base/rng.hh"
#include "ckpt/serializer.hh"
#include "protect/scheme.hh"

namespace smtavf
{
namespace
{

/** Reference model: dense per-unit state, one ledger call per unit. */
class DenseTracker
{
  public:
    DenseTracker(const Cache &cache, AvfLedger &ledger, HwStruct data_struct,
                 HwStruct tag_struct, bool per_byte)
        : ledger_(ledger), dataStruct_(data_struct), tagStruct_(tag_struct),
          lineBytes_(cache.config().lineBytes),
          granBytes_(per_byte ? 1 : cache.config().lineBytes),
          unitsPerLine_(lineBytes_ / granBytes_)
    {
        auto lines = cache.numLines();
        lines_.resize(lines);
        units_.resize(static_cast<std::size_t>(lines) * unitsPerLine_);
        std::uint32_t offset_bits = std::countr_zero(lineBytes_);
        std::uint32_t index_bits = std::countr_zero(cache.numSets());
        tagBits_ = 48 - offset_bits - index_bits + 4;
    }

    void
    onFill(std::uint32_t slot, ThreadId tid, Cycle now)
    {
        auto &line = lines_.at(slot);
        line = {true, tid, now, now, false};
        auto base = static_cast<std::size_t>(slot) * unitsPerLine_;
        for (std::uint32_t b = 0; b < unitsPerLine_; ++b)
            units_[base + b] = {now, false};
    }

    void
    onAccess(std::uint32_t slot, Addr addr, std::uint32_t size,
             bool is_write, Cycle now)
    {
        auto &line = lines_.at(slot);
        line.lastAccess = now;
        if (is_write)
            line.dirty = true;
        std::uint32_t off = static_cast<std::uint32_t>(addr) &
                            (lineBytes_ - 1);
        std::uint32_t first = off / granBytes_;
        std::uint32_t last = (off + size + granBytes_ - 1) / granBytes_;
        if (last > unitsPerLine_)
            last = unitsPerLine_;
        auto base = static_cast<std::size_t>(slot) * unitsPerLine_;
        for (std::uint32_t b = first; b < last; ++b) {
            auto &unit = units_[base + b];
            ledger_.addInterval(dataStruct_, line.tid,
                                granBytes_ * bits::cacheByte, unit.since,
                                now, !is_write);
            unit.since = now;
            if (is_write)
                unit.dirty = true;
        }
    }

    void
    onEvict(std::uint32_t slot, bool dirty, Cycle now)
    {
        auto &line = lines_.at(slot);
        auto base = static_cast<std::size_t>(slot) * unitsPerLine_;
        for (std::uint32_t b = 0; b < unitsPerLine_; ++b) {
            auto &unit = units_[base + b];
            ledger_.addInterval(dataStruct_, line.tid,
                                granBytes_ * bits::cacheByte, unit.since,
                                now, unit.dirty);
        }
        if (dirty || line.dirty) {
            ledger_.addInterval(tagStruct_, line.tid, tagBits_,
                                line.fillCycle, now, true);
        } else {
            ledger_.addInterval(tagStruct_, line.tid, tagBits_,
                                line.fillCycle, line.lastAccess, true);
            ledger_.addInterval(tagStruct_, line.tid, tagBits_,
                                line.lastAccess, now, false);
        }
        line.valid = false;
    }

    template <class Ar>
    void
    serialize(Ar &ar)
    {
        ar(lines_);
        ar(units_);
    }

  private:
    struct ByteState
    {
        Cycle since = 0;
        bool dirty = false;

        template <class Ar>
        void
        serialize(Ar &ar)
        {
            ar(since);
            ar(dirty);
        }
    };

    struct LineState
    {
        bool valid = false;
        ThreadId tid = 0;
        Cycle fillCycle = 0;
        Cycle lastAccess = 0;
        bool dirty = false;

        template <class Ar>
        void
        serialize(Ar &ar)
        {
            ar(valid);
            ar(tid);
            ar(fillCycle);
            ar(lastAccess);
            ar(dirty);
        }
    };

    AvfLedger &ledger_;
    HwStruct dataStruct_;
    HwStruct tagStruct_;
    std::uint32_t lineBytes_;
    std::uint32_t granBytes_;
    std::uint32_t unitsPerLine_;
    std::uint32_t tagBits_;
    std::vector<LineState> lines_;
    std::vector<ByteState> units_;
};

constexpr HwStruct dataS = HwStruct::Dl1Data;
constexpr HwStruct tagS = HwStruct::Dl1Tag;
constexpr unsigned threads = 2;

ProtectionConfig
protectionFor(ProtScheme scheme)
{
    // A short scrub period so SecdedScrub splits many intervals.
    return uniformProtection(scheme, 7);
}

std::string
bytesOf(auto &obj)
{
    Serializer ser;
    obj.serialize(ser);
    ByteCounter count;
    obj.serialize(count);
    EXPECT_EQ(count.total(), ser.buffer().size());
    return ser.buffer();
}

void
expectSameTallies(const AvfLedger &a, const AvfLedger &b)
{
    for (HwStruct s : {dataS, tagS}) {
        for (ThreadId t = 0; t < threads; ++t) {
            SCOPED_TRACE(::testing::Message()
                         << hwStructName(s) << " thread " << t);
            EXPECT_EQ(a.aceBitCycles(s, t), b.aceBitCycles(s, t));
            EXPECT_EQ(a.coveredAceBitCycles(s, t),
                      b.coveredAceBitCycles(s, t));
            EXPECT_EQ(a.residualAceBitCycles(s, t),
                      b.residualAceBitCycles(s, t));
        }
        EXPECT_EQ(a.unAceBitCycles(s), b.unAceBitCycles(s));
    }
}

/** Random traffic applied identically to a tracker and the reference. */
class Traffic
{
  public:
    Traffic(std::uint32_t lines, std::uint32_t line_bytes,
            std::uint64_t seed)
        : valid_(lines, false), lineBytes_(line_bytes), rng_(seed)
    {
    }

    /** Apply @p n random events to both trackers. */
    template <class A, class B>
    void
    run(A &sparse, B &dense, unsigned n)
    {
        for (unsigned i = 0; i < n; ++i) {
            // Same-cycle events make equal-since runs common.
            now_ += rng_.uniform(3);
            auto slot = static_cast<std::uint32_t>(
                rng_.uniform(valid_.size()));
            if (!valid_[slot]) {
                if (rng_.bernoulli(0.3))
                    continue; // leave some lines cold for a while
                auto tid = static_cast<ThreadId>(rng_.uniform(threads));
                sparse.onFill(slot, 0, tid, now_);
                dense.onFill(slot, tid, now_);
                valid_[slot] = true;
            } else if (rng_.bernoulli(0.15)) {
                evict(sparse, dense, slot);
            } else {
                static constexpr std::uint32_t sizes[] = {1, 2, 4, 8, 16,
                                                          64, 200};
                std::uint32_t size = sizes[rng_.uniform(7)];
                Addr addr = slot * 4096 + rng_.uniform(lineBytes_);
                bool is_write = rng_.bernoulli(0.4);
                auto tid = static_cast<ThreadId>(rng_.uniform(threads));
                sparse.onAccess(slot, addr, size, is_write, tid, now_);
                dense.onAccess(slot, addr, size, is_write, now_);
            }
        }
    }

    /** Evict every other valid line and refill none of them. */
    template <class A, class B>
    void
    evictSome(A &sparse, B &dense)
    {
        now_ += 5;
        for (std::uint32_t slot = 0; slot < valid_.size(); slot += 2)
            if (valid_[slot])
                evict(sparse, dense, slot);
    }

  private:
    template <class A, class B>
    void
    evict(A &sparse, B &dense, std::uint32_t slot)
    {
        bool dirty = rng_.bernoulli(0.2);
        sparse.onEvict(slot, dirty, now_);
        dense.onEvict(slot, dirty, now_);
        valid_[slot] = false;
    }

    std::vector<bool> valid_;
    std::uint32_t lineBytes_;
    Rng rng_;
    Cycle now_ = 1;
};

struct Geometry
{
    std::uint32_t lineBytes;
    bool perByte;
};

class TrackerDiff
    : public ::testing::TestWithParam<std::tuple<Geometry, ProtScheme>>
{
};

TEST_P(TrackerDiff, SparseMatchesDenseReference)
{
    const auto [geo, scheme] = GetParam();
    // 16 lines in 4 sets of 4 ways, whatever the line size.
    CacheConfig cfg{"dl1", 16 * geo.lineBytes, 4, geo.lineBytes, 1, 2};

    Cache cache(cfg);
    AvfLedger ledger(threads), ref_ledger(threads);
    ledger.setProtection(protectionFor(scheme));
    ref_ledger.setProtection(protectionFor(scheme));
    CacheVulnTracker sparse(cache, ledger, dataS, tagS, geo.perByte);
    DenseTracker dense(cache, ref_ledger, dataS, tagS, geo.perByte);
    EXPECT_EQ(bytesOf(sparse), bytesOf(dense)) << "fresh";

    Traffic traffic(cache.numLines(), geo.lineBytes, 99 + geo.lineBytes);
    traffic.run(sparse, dense, 4000);
    expectSameTallies(ledger, ref_ledger);
    ASSERT_EQ(bytesOf(sparse), bytesOf(dense)) << "after traffic";

    // Lines evicted and never refilled keep their stale unit state on
    // the wire.
    traffic.evictSome(sparse, dense);
    expectSameTallies(ledger, ref_ledger);
    ASSERT_EQ(bytesOf(sparse), bytesOf(dense)) << "after evictions";

    // Restore into a fresh tracker and ledger, then keep going.
    const std::string tracker_bytes = bytesOf(sparse);
    const std::string ledger_bytes = bytesOf(ledger);
    Cache cache2(cfg);
    AvfLedger ledger2(threads);
    ledger2.setProtection(protectionFor(scheme));
    CacheVulnTracker restored(cache2, ledger2, dataS, tagS, geo.perByte);
    {
        Deserializer in(tracker_bytes);
        restored.serialize(in);
        EXPECT_TRUE(in.exhausted());
        Deserializer lin(ledger_bytes);
        ledger2.serialize(lin);
    }
    ASSERT_EQ(bytesOf(restored), bytesOf(dense)) << "after restore";
    traffic.run(restored, dense, 4000);
    expectSameTallies(ledger2, ref_ledger);
    EXPECT_EQ(bytesOf(restored), bytesOf(dense)) << "after restored traffic";

    // reset() must equal the constructor's state on the wire.
    restored.reset();
    CacheVulnTracker fresh(cache2, ledger2, dataS, tagS, geo.perByte);
    EXPECT_EQ(bytesOf(restored), bytesOf(fresh)) << "after reset";
}

std::string
diffName(const ::testing::TestParamInfo<TrackerDiff::ParamType> &info)
{
    const auto &[geo, scheme] = info.param;
    std::string name = std::to_string(geo.lineBytes) +
                       (geo.perByte ? "B_byte_" : "B_line_");
    for (char c : std::string(protSchemeName(scheme)))
        name += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
    return name;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TrackerDiff,
    ::testing::Combine(
        ::testing::Values(Geometry{32, true}, Geometry{64, true},
                          Geometry{128, true}, Geometry{32, false},
                          Geometry{64, false}, Geometry{128, false}),
        ::testing::Values(ProtScheme::None, ProtScheme::Parity,
                          ProtScheme::Secded, ProtScheme::SecdedScrub)),
    diffName);

TEST(TrackerDiff, RejectsUnitTableOfAnotherGeometry)
{
    CacheConfig small{"dl1", 16 * 64, 4, 64, 1, 2};
    CacheConfig big{"dl1", 32 * 64, 4, 64, 1, 2};
    Cache cache_small(small), cache_big(big);
    AvfLedger ledger(threads);
    CacheVulnTracker from(cache_small, ledger, dataS, tagS, true);
    CacheVulnTracker into(cache_big, ledger, dataS, tagS, true);
    const std::string bytes = bytesOf(from);
    Deserializer in(bytes);
    EXPECT_THROW(into.serialize(in), CheckpointError);
}

TEST(LedgerCount, CountedBookingEqualsRepeatedSingleCalls)
{
    // Coverage is floored per interval, so k identical intervals must
    // book exactly k times each tally, under every scheme.
    for (auto scheme : {ProtScheme::None, ProtScheme::Parity,
                        ProtScheme::Secded, ProtScheme::SecdedScrub}) {
        SCOPED_TRACE(protSchemeName(scheme));
        AvfLedger batched(threads), single(threads);
        batched.setProtection(protectionFor(scheme));
        single.setProtection(protectionFor(scheme));
        Rng rng(5);
        for (int i = 0; i < 2000; ++i) {
            Cycle start = rng.uniform(1000);
            Cycle end = start + rng.uniform(40);
            auto bits = static_cast<std::uint32_t>(1 + rng.uniform(130));
            auto tid = static_cast<ThreadId>(rng.uniform(threads));
            auto count = static_cast<std::uint32_t>(rng.uniform(70));
            bool ace = rng.bernoulli(0.6);
            batched.addInterval(dataS, tid, bits, start, end, ace, count);
            for (std::uint32_t k = 0; k < count; ++k)
                single.addInterval(dataS, tid, bits, start, end, ace);
        }
        EXPECT_EQ(bytesOf(batched), bytesOf(single));
        expectSameTallies(batched, single);
    }
}

} // namespace
} // namespace smtavf
