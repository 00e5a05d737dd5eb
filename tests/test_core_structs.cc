/**
 * @file
 * Unit tests for rename map, ROB, IQ, LSQ and FU pool.
 */

#include <gtest/gtest.h>

#include "core/fu_pool.hh"
#include "core/iq.hh"
#include "core/lsq.hh"
#include "core/rename.hh"
#include "core/rob.hh"
#include "test_util.hh"

namespace smtavf
{
namespace
{

InstPtr
makeInstr(ThreadId tid, SeqNum seq, OpClass op = OpClass::IntAlu)
{
    auto in = newTestInstr();
    in->tid = tid;
    in->seq = seq;
    in->globalSeq = seq;
    in->op = op;
    return in;
}

// ---- rename ---------------------------------------------------------------

TEST(RenameMapTest, UnmappedLookupIsInvalid)
{
    RenameMap m;
    EXPECT_EQ(m.lookup(5), invalidReg);
    EXPECT_EQ(m.lookup(invalidReg), invalidReg);
}

TEST(RenameMapTest, ZeroRegistersNeverMap)
{
    RenameMap m;
    m.set(0, 17);
    EXPECT_EQ(m.lookup(0), invalidReg);
    EXPECT_EQ(m.lookup(numArchIntRegs), invalidReg);
}

TEST(RenameMapTest, SetReturnsDisplacedMapping)
{
    RenameMap m;
    EXPECT_EQ(m.set(5, 100), invalidReg);
    EXPECT_EQ(m.set(5, 101), 100);
    EXPECT_EQ(m.lookup(5), 101);
}

TEST(RenameMapTest, WalkBackRecovery)
{
    RenameMap m;
    m.set(5, 100);
    auto old = m.set(5, 101); // speculative
    m.set(5, old);            // squash walk-back
    EXPECT_EQ(m.lookup(5), 100);
}

TEST(RenameMapTest, BadRegisterPanics)
{
    ThrowGuard guard;
    RenameMap m;
    EXPECT_THROW(m.lookup(numArchRegs), SimError);
    EXPECT_THROW(m.set(-2, 3), SimError);
}

// ---- ROB -------------------------------------------------------------------

TEST(RobTest, InOrderPushPop)
{
    Rob rob(4);
    auto a = makeInstr(0, 1);
    auto b = makeInstr(0, 2);
    rob.push(a);
    rob.push(b);
    EXPECT_EQ(rob.front(), a);
    rob.popFront();
    EXPECT_EQ(rob.front(), b);
}

TEST(RobTest, FullAndCapacity)
{
    Rob rob(2);
    rob.push(makeInstr(0, 1));
    EXPECT_FALSE(rob.full());
    rob.push(makeInstr(0, 2));
    EXPECT_TRUE(rob.full());
    ThrowGuard guard;
    EXPECT_THROW(rob.push(makeInstr(0, 3)), SimError);
}

TEST(RobTest, OutOfOrderPushPanics)
{
    ThrowGuard guard;
    Rob rob(4);
    rob.push(makeInstr(0, 5));
    EXPECT_THROW(rob.push(makeInstr(0, 5)), SimError);
    EXPECT_THROW(rob.push(makeInstr(0, 4)), SimError);
}

TEST(RobTest, SquashAfterWalksYoungestFirst)
{
    Rob rob(8);
    for (SeqNum s = 1; s <= 5; ++s)
        rob.push(makeInstr(0, s));
    std::vector<SeqNum> squashed;
    rob.squashAfter(2, [&](const InstPtr &in) {
        squashed.push_back(in->seq);
    });
    EXPECT_EQ(squashed, (std::vector<SeqNum>{5, 4, 3}));
    EXPECT_EQ(rob.size(), 2u);
}

TEST(RobTest, EmptyFrontIsNull)
{
    Rob rob(2);
    EXPECT_EQ(rob.front(), nullptr);
    ThrowGuard guard;
    EXPECT_THROW(rob.popFront(), SimError);
}

// ---- IQ --------------------------------------------------------------------

/** An instruction with the given physical sources. */
InstPtr
makeOp(SeqNum seq, RegIndex src1, RegIndex src2,
       OpClass op = OpClass::IntAlu)
{
    auto in = makeInstr(0, seq, op);
    in->srcPhys1 = src1;
    in->srcPhys2 = src2;
    return in;
}

/** Global sequence numbers of the ready list, oldest first. */
std::vector<SeqNum>
readySeqs(const IssueQueue &iq)
{
    std::vector<SeqNum> out;
    for (const auto &e : iq.readyList())
        out.push_back(e.globalSeq);
    return out;
}

/** Global sequence numbers in iteration order. */
std::vector<SeqNum>
iqSeqs(const IssueQueue &iq)
{
    std::vector<SeqNum> out;
    for (const DynInstr *in : iq)
        out.push_back(in->globalSeq);
    return out;
}

std::size_t
waiters(const IssueQueue &iq, RegIndex phys)
{
    std::size_t n = 0;
    iq.forEachWaiter(phys, [&](const DynInstr &) { ++n; });
    return n;
}

TEST(IqTest, CapacityAndFreeSlots)
{
    IssueQueue iq(3, 16);
    EXPECT_EQ(iq.freeSlots(), 3u);
    auto in = makeInstr(0, 1);
    iq.insert(in, true, true);
    EXPECT_EQ(iq.freeSlots(), 2u);
    EXPECT_FALSE(iq.full());
}

TEST(IqTest, InsertSetsInIqFlag)
{
    IssueQueue iq(4, 16);
    auto in = makeInstr(0, 1);
    iq.insert(in, true, true);
    EXPECT_TRUE(in->inIq);
    iq.remove(in);
    EXPECT_FALSE(in->inIq);
    EXPECT_EQ(iq.size(), 0u);
    EXPECT_TRUE(iq.readyList().empty());
}

TEST(IqTest, RemoveUnknownPanics)
{
    ThrowGuard guard;
    IssueQueue iq(4, 16);
    EXPECT_THROW(iq.remove(makeInstr(0, 1)), SimError);
}

TEST(IqTest, RemoveSquashedFiltersByThreadAndSeq)
{
    // Squash of thread 0 after seq 1 removes only c, through remove().
    IssueQueue iq(8, 16);
    auto a = makeInstr(0, 1);
    auto b = makeInstr(1, 2);
    auto c = makeInstr(0, 3);
    iq.insert(a, true, true);
    iq.insert(b, true, true);
    iq.insert(c, true, true);
    for (const auto &in : {a, b, c})
        if (in->tid == 0 && in->seq > 1)
            iq.remove(in);
    EXPECT_EQ(iq.size(), 2u);
    EXPECT_TRUE(a->inIq);
    EXPECT_TRUE(b->inIq);
    EXPECT_FALSE(c->inIq);
    EXPECT_EQ(readySeqs(iq), (std::vector<SeqNum>{1, 2}));
}

TEST(IqTest, IterationIsAgeOrdered)
{
    IssueQueue iq(8, 16);
    std::vector<InstPtr> keep = {makeInstr(0, 1), makeInstr(1, 2),
                                 makeInstr(0, 3)};
    for (const auto &in : keep)
        iq.insert(in, true, true);
    EXPECT_EQ(iqSeqs(iq), (std::vector<SeqNum>{1, 2, 3}));
}

TEST(IqTest, RemoveKeepsIterationAgeOrdered)
{
    IssueQueue iq(4, 16);
    std::vector<InstPtr> in;
    for (SeqNum s = 1; s <= 4; ++s) {
        in.push_back(makeInstr(0, s));
        iq.insert(in.back(), true, true);
    }
    iq.remove(in[1]); // middle
    EXPECT_EQ(iqSeqs(iq), (std::vector<SeqNum>{1, 3, 4}));
    iq.remove(in[0]); // head
    iq.remove(in[3]); // tail
    EXPECT_EQ(iqSeqs(iq), (std::vector<SeqNum>{3}));
    // Freed slots are reused; the newcomers still iterate youngest last.
    auto e = makeInstr(0, 5);
    auto f = makeInstr(0, 6);
    iq.insert(e, true, true);
    iq.insert(f, true, true);
    EXPECT_EQ(iqSeqs(iq), (std::vector<SeqNum>{3, 5, 6}));
    EXPECT_EQ(readySeqs(iq), (std::vector<SeqNum>{3, 5, 6}));
}

TEST(IqTest, SameUnwrittenRegisterAsBothSourcesWaitsOnce)
{
    IssueQueue iq(4, 16);
    auto in = makeOp(1, 5, 5);
    iq.insert(in, false, false);
    EXPECT_EQ(waiters(iq, 5), 1u);
    EXPECT_TRUE(iq.readyList().empty());
    iq.wakeup(5); // one writeback satisfies both operands
    EXPECT_EQ(readySeqs(iq), (std::vector<SeqNum>{1}));
    EXPECT_EQ(waiters(iq, 5), 0u);
}

TEST(IqTest, StoreWaitsOnlyOnItsAddressSource)
{
    IssueQueue iq(4, 16);
    auto data_pending = makeOp(1, 5, 6, OpClass::Store);
    iq.insert(data_pending, true, false);
    EXPECT_EQ(readySeqs(iq), (std::vector<SeqNum>{1}));
    EXPECT_EQ(waiters(iq, 6), 0u);

    auto addr_pending = makeOp(2, 7, 8, OpClass::Store);
    iq.insert(addr_pending, false, false);
    EXPECT_EQ(waiters(iq, 7), 1u);
    EXPECT_EQ(waiters(iq, 8), 0u);
    iq.wakeup(7);
    EXPECT_EQ(readySeqs(iq), (std::vector<SeqNum>{1, 2}));
}

TEST(IqTest, SquashedWaiterIsUnlinked)
{
    IssueQueue iq(1, 16);
    auto a = makeOp(1, 5, 6);
    iq.insert(a, false, false);
    iq.remove(a);
    EXPECT_EQ(waiters(iq, 5), 0u);
    EXPECT_EQ(waiters(iq, 6), 0u);
    // The freed slot goes to a newcomer waiting on another register; the
    // squashed entry's producers writing back must not wake it.
    auto b = makeOp(2, 7, invalidReg);
    iq.insert(b, false, true);
    iq.wakeup(5);
    iq.wakeup(6);
    EXPECT_TRUE(iq.readyList().empty());
    EXPECT_EQ(iq.size(), 1u);
    iq.wakeup(7);
    EXPECT_EQ(readySeqs(iq), (std::vector<SeqNum>{2}));
}

TEST(IqTest, OutOfOrderWakeupsStillIssueOldestFirst)
{
    IssueQueue iq(8, 16);
    auto a = makeOp(1, 5, invalidReg);
    auto b = makeOp(2, 6, invalidReg);
    auto c = makeOp(3, invalidReg, invalidReg);
    auto d = makeOp(4, 5, 6);
    iq.insert(a, false, true);
    iq.insert(b, false, true);
    iq.insert(c, true, true);
    iq.insert(d, false, false);
    iq.wakeup(6); // the younger producer finishes first
    iq.wakeup(5);
    EXPECT_EQ(readySeqs(iq), (std::vector<SeqNum>{1, 2, 3, 4}));

    // Skip keeps an entry ready, Issue removes it, Stop ends the scan.
    std::vector<SeqNum> seen;
    iq.select([&](const IssueQueue::ReadyEntry &e) {
        seen.push_back(e.globalSeq);
        if (e.globalSeq == 2)
            return IssueQueue::Pick::Skip;
        if (e.globalSeq == 4)
            return IssueQueue::Pick::Stop;
        return IssueQueue::Pick::Issue;
    });
    EXPECT_EQ(seen, (std::vector<SeqNum>{1, 2, 3, 4}));
    EXPECT_EQ(readySeqs(iq), (std::vector<SeqNum>{2, 4}));
    EXPECT_EQ(iqSeqs(iq), (std::vector<SeqNum>{2, 4}));
    EXPECT_FALSE(a->inIq);
    EXPECT_FALSE(c->inIq);
}

// ---- LSQ -------------------------------------------------------------------

InstPtr
makeMem(ThreadId tid, SeqNum seq, OpClass op, Addr addr, std::uint8_t size)
{
    auto in = makeInstr(tid, seq, op);
    in->memAddr = addr;
    in->memSize = size;
    return in;
}

TEST(LsqTest, RejectsNonMemInstr)
{
    ThrowGuard guard;
    Lsq lsq(4);
    EXPECT_THROW(lsq.push(makeInstr(0, 1, OpClass::IntAlu)), SimError);
}

TEST(LsqTest, LoadWaitsForOlderStoreIssue)
{
    Lsq lsq(8);
    auto store = makeMem(0, 1, OpClass::Store, 0x100, 4);
    auto load = makeMem(0, 2, OpClass::Load, 0x200, 4);
    lsq.push(store);
    lsq.push(load);
    EXPECT_FALSE(lsq.loadMayIssue(load->seq));
    lsq.markIssued(*store);
    EXPECT_TRUE(lsq.loadMayIssue(load->seq));
}

TEST(LsqTest, StoresIssuingOutOfOrder)
{
    Lsq lsq(8);
    auto s1 = makeMem(0, 1, OpClass::Store, 0x100, 4);
    auto s2 = makeMem(0, 2, OpClass::Store, 0x200, 4);
    auto load = makeMem(0, 3, OpClass::Load, 0x300, 4);
    lsq.push(s1);
    lsq.push(s2);
    lsq.push(load);
    lsq.markIssued(*s2); // the younger store's address is ready first
    EXPECT_EQ(lsq.oldestUnissuedStore(), 1u);
    EXPECT_FALSE(lsq.loadMayIssue(load->seq));
    lsq.markIssued(*s1); // the cache skips the already-issued s2
    EXPECT_EQ(lsq.oldestUnissuedStore(), Lsq::noStore);
    EXPECT_TRUE(lsq.loadMayIssue(load->seq));
}

TEST(LsqTest, SquashOfOldestUnissuedStore)
{
    Lsq lsq(8);
    auto s1 = makeMem(0, 1, OpClass::Store, 0x100, 4);
    auto load = makeMem(0, 2, OpClass::Load, 0x200, 4);
    auto s3 = makeMem(0, 3, OpClass::Store, 0x300, 4);
    auto s4 = makeMem(0, 4, OpClass::Store, 0x400, 4);
    lsq.push(s1);
    lsq.markIssued(*s1);
    lsq.push(load);
    lsq.push(s3);
    lsq.push(s4);
    EXPECT_EQ(lsq.oldestUnissuedStore(), 3u);
    EXPECT_TRUE(lsq.loadMayIssue(load->seq)); // s3 is younger
    EXPECT_FALSE(lsq.loadMayIssue(5));
    lsq.squashAfter(2); // takes s3 and s4 with it
    EXPECT_EQ(lsq.oldestUnissuedStore(), Lsq::noStore);
    EXPECT_TRUE(lsq.loadMayIssue(5));
    EXPECT_EQ(lsq.oldestUnissuedStore(), lsq.scanOldestUnissuedStore());
}

TEST(LsqTest, StorePushedWhileNonePending)
{
    Lsq lsq(8);
    auto done = makeMem(0, 1, OpClass::Store, 0x100, 4);
    done->issued = true; // already issued when pushed: never pending
    lsq.push(done);
    lsq.push(makeMem(0, 2, OpClass::Load, 0x200, 4));
    EXPECT_EQ(lsq.oldestUnissuedStore(), Lsq::noStore);
    lsq.push(makeMem(0, 3, OpClass::Store, 0x300, 4));
    EXPECT_EQ(lsq.oldestUnissuedStore(), 3u);
    lsq.push(makeMem(0, 4, OpClass::Store, 0x400, 4));
    EXPECT_EQ(lsq.oldestUnissuedStore(), 3u); // the older one stays
    EXPECT_FALSE(lsq.loadMayIssue(5));
}

TEST(LsqTest, ForwardingRequiresOverlap)
{
    Lsq lsq(8);
    auto store = makeMem(0, 1, OpClass::Store, 0x100, 4);
    store->issued = true;
    auto hit = makeMem(0, 2, OpClass::Load, 0x100, 4);
    auto partial = makeMem(0, 3, OpClass::Load, 0x102, 4);
    auto miss = makeMem(0, 4, OpClass::Load, 0x104, 4);
    lsq.push(store);
    lsq.push(hit);
    lsq.push(partial);
    lsq.push(miss);
    EXPECT_TRUE(lsq.canForward(*hit));
    EXPECT_TRUE(lsq.canForward(*partial)); // byte ranges intersect
    EXPECT_FALSE(lsq.canForward(*miss));
}

TEST(LsqTest, YoungerStoresDoNotForwardBackwards)
{
    Lsq lsq(8);
    auto load = makeMem(0, 1, OpClass::Load, 0x100, 4);
    auto store = makeMem(0, 2, OpClass::Store, 0x100, 4);
    store->issued = true;
    lsq.push(load);
    lsq.push(store);
    EXPECT_FALSE(lsq.canForward(*load));
    EXPECT_TRUE(lsq.loadMayIssue(load->seq));
}

TEST(LsqTest, CommitMustBeOldest)
{
    ThrowGuard guard;
    Lsq lsq(8);
    auto a = makeMem(0, 1, OpClass::Load, 0x0, 4);
    auto b = makeMem(0, 2, OpClass::Load, 0x8, 4);
    lsq.push(a);
    lsq.push(b);
    EXPECT_THROW(lsq.popCommitted(b), SimError);
    lsq.popCommitted(a);
    lsq.popCommitted(b);
    EXPECT_EQ(lsq.size(), 0u);
}

TEST(LsqTest, SquashDropsYoungTail)
{
    Lsq lsq(8);
    for (SeqNum s = 1; s <= 4; ++s)
        lsq.push(makeMem(0, s, OpClass::Load, s * 8, 4));
    lsq.squashAfter(2);
    EXPECT_EQ(lsq.size(), 2u);
}

TEST(LsqTest, FullBlocksPush)
{
    ThrowGuard guard;
    Lsq lsq(1);
    lsq.push(makeMem(0, 1, OpClass::Load, 0, 4));
    EXPECT_TRUE(lsq.full());
    EXPECT_THROW(lsq.push(makeMem(0, 2, OpClass::Load, 8, 4)), SimError);
}

// ---- FU pool ---------------------------------------------------------------

TEST(FuPoolTest, Table1Counts)
{
    FuPool pool(FuConfig{});
    EXPECT_EQ(pool.config().total(), 28u);
    EXPECT_EQ(pool.totalBits(), 28u * bits::fuLatch);
    EXPECT_EQ(pool.freeUnits(FuType::IntAlu, 0), 8u);
    EXPECT_EQ(pool.freeUnits(FuType::MemPort, 0), 4u);
}

TEST(FuPoolTest, AcquireExhaustsUnits)
{
    FuPool pool(FuConfig{});
    for (int i = 0; i < 8; ++i)
        EXPECT_TRUE(pool.acquire(FuType::IntAlu, 5, 1));
    EXPECT_FALSE(pool.acquire(FuType::IntAlu, 5, 1));
    EXPECT_TRUE(pool.acquire(FuType::IntAlu, 6, 1)) << "freed next cycle";
}

TEST(FuPoolTest, DividerOccupiesForFullLatency)
{
    FuPool pool({1, 1, 1, 1, 1});
    EXPECT_TRUE(pool.acquire(FuType::IntMulDiv, 0, fuOccupancy(
                                                       OpClass::IntDiv)));
    EXPECT_FALSE(pool.acquire(FuType::IntMulDiv, 5, 1));
    EXPECT_TRUE(pool.acquire(FuType::IntMulDiv, 20, 1));
}

TEST(FuPoolTest, NoneTypeAlwaysAvailable)
{
    FuPool pool({1, 1, 1, 1, 1});
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(pool.acquire(FuType::None, 0, 1));
}

class FuMapping : public ::testing::TestWithParam<int>
{
};

TEST_P(FuMapping, EveryOpClassHasTypeLatencyOccupancy)
{
    auto op = static_cast<OpClass>(GetParam());
    EXPECT_NO_THROW(fuTypeFor(op));
    EXPECT_GE(execLatency(op), 1u);
    EXPECT_GE(fuOccupancy(op), 1u);
    EXPECT_LE(fuOccupancy(op), execLatency(op));
}

INSTANTIATE_TEST_SUITE_P(AllOps, FuMapping,
                         ::testing::Range(0,
                                          static_cast<int>(numOpClasses)));

TEST(FuMappingFixed, ExpectedAssignments)
{
    EXPECT_EQ(fuTypeFor(OpClass::BranchCond), FuType::IntAlu);
    EXPECT_EQ(fuTypeFor(OpClass::Load), FuType::MemPort);
    EXPECT_EQ(fuTypeFor(OpClass::FpDiv), FuType::FpMulDiv);
    EXPECT_EQ(fuTypeFor(OpClass::Nop), FuType::None);
    EXPECT_EQ(execLatency(OpClass::IntDiv), 20u);
    EXPECT_EQ(fuOccupancy(OpClass::FpMult), 1u) << "pipelined";
    EXPECT_EQ(fuOccupancy(OpClass::FpDiv), 12u) << "unpipelined";
}

} // namespace
} // namespace smtavf
