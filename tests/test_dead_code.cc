/**
 * @file
 * Unit tests for deferred first-level dynamic dead-code classification.
 */

#include <gtest/gtest.h>

#include <ostream>

#include "avf/dead_code.hh"
#include "test_util.hh"

namespace smtavf
{
namespace
{

InstPtr
makeInstr(ThreadId tid, RegIndex dest, RegIndex src1 = invalidReg,
          RegIndex src2 = invalidReg)
{
    auto in = newTestInstr();
    in->tid = tid;
    in->op = OpClass::IntAlu;
    in->destReg = dest;
    in->srcReg1 = src1;
    in->srcReg2 = src2;
    return in;
}

/**
 * Stamp @p in as dispatched at @p start, issued there without an FU
 * latch, and leaving the pipeline as @p how at @p end: its ROB residency
 * is then exactly [start, end) and its IQ residency empty.
 */
void
stampResidency(const InstPtr &in, Cycle start, Cycle end,
               Residency how = Residency::Committed)
{
    in->dispatchCycle = start;
    in->issued = true;
    in->issueCycle = start;
    in->closeResidency(how, end);
}

constexpr std::uint64_t rob = bits::robEntry;

class DeadCodeTest : public ::testing::Test
{
  protected:
    DeadCodeTest() : ledger(2), analyzer(2, ledger, true)
    {
        ledger.setStructureBits(HwStruct::ROB, 1000);
    }

    AvfLedger ledger;
    DeadCodeAnalyzer analyzer;
};

TEST_F(DeadCodeTest, OverwriteWithoutReadIsDead)
{
    auto a = makeInstr(0, 5);
    stampResidency(a, 0, 10);
    EXPECT_FALSE(analyzer.onCommit(a));

    auto b = makeInstr(0, 5); // overwrites r5, nobody read it
    EXPECT_TRUE(analyzer.onCommit(b));
    EXPECT_TRUE(a->destDead);
    EXPECT_EQ(analyzer.deadInstructions(), 1u);
    // a's interval resolved un-ACE.
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::ROB), 0u);
    EXPECT_EQ(ledger.unAceBitCycles(HwStruct::ROB), 10 * rob);
}

TEST_F(DeadCodeTest, ReadBeforeOverwriteIsLive)
{
    auto a = makeInstr(0, 5);
    stampResidency(a, 0, 10);
    analyzer.onCommit(a);

    auto reader = makeInstr(0, 6, 5);
    analyzer.onCommit(reader);
    EXPECT_FALSE(a->destDead);
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::ROB), 10 * rob);

    auto b = makeInstr(0, 5);
    EXPECT_FALSE(analyzer.onCommit(b)) << "a was already resolved live";
}

TEST_F(DeadCodeTest, ReadAndRewriteSameRegisterIsLive)
{
    auto a = makeInstr(0, 5);
    stampResidency(a, 0, 10);
    analyzer.onCommit(a);

    // r5 = r5 + 1: reads the old value, then displaces it.
    auto b = makeInstr(0, 5, 5);
    EXPECT_FALSE(analyzer.onCommit(b));
    EXPECT_FALSE(a->destDead);
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::ROB), 10 * rob);
}

TEST_F(DeadCodeTest, SecondSourceCountsAsRead)
{
    auto a = makeInstr(0, 5);
    analyzer.onCommit(a);
    auto reader = makeInstr(0, 7, 1, 5);
    analyzer.onCommit(reader);
    auto b = makeInstr(0, 5);
    EXPECT_FALSE(analyzer.onCommit(b));
}

TEST_F(DeadCodeTest, ThreadsAreIndependent)
{
    auto a0 = makeInstr(0, 5);
    auto a1 = makeInstr(1, 5);
    analyzer.onCommit(a0);
    analyzer.onCommit(a1);

    auto reader1 = makeInstr(1, 6, 5); // thread 1 reads its r5
    analyzer.onCommit(reader1);

    auto b0 = makeInstr(0, 5);
    EXPECT_TRUE(analyzer.onCommit(b0)) << "thread 0's r5 was never read";
    EXPECT_TRUE(a0->destDead);
    EXPECT_FALSE(a1->destDead);
}

TEST_F(DeadCodeTest, NonWritersResolveImmediately)
{
    auto store = makeInstr(0, invalidReg, 3, 4);
    store->op = OpClass::Store;
    stampResidency(store, 0, 20);
    analyzer.onCommit(store);
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::ROB), 20 * rob);
    EXPECT_EQ(store->residency, Residency::Booked);
}

TEST_F(DeadCodeTest, NopsResolveUnAce)
{
    auto nop = makeInstr(0, invalidReg);
    nop->op = OpClass::Nop;
    stampResidency(nop, 0, 10);
    analyzer.onCommit(nop);
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::ROB), 0u);
    EXPECT_EQ(ledger.unAceBitCycles(HwStruct::ROB), 10 * rob);
}

TEST_F(DeadCodeTest, SquashedInstructionsAreUnAce)
{
    auto a = makeInstr(0, 5);
    a->squashed = true;
    stampResidency(a, 0, 10, Residency::Cut);
    analyzer.onSquash(a);
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::ROB), 0u);
    EXPECT_EQ(ledger.unAceBitCycles(HwStruct::ROB), 10 * rob);
}

TEST_F(DeadCodeTest, SquashOfCleanInstructionPanics)
{
    ThrowGuard guard;
    auto a = makeInstr(0, 5);
    EXPECT_THROW(analyzer.onSquash(a), SimError);
}

TEST_F(DeadCodeTest, FinishResolvesPendingAsLive)
{
    auto a = makeInstr(0, 5);
    stampResidency(a, 0, 10);
    analyzer.onCommit(a);
    analyzer.finish();
    EXPECT_FALSE(a->destDead);
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::ROB), 10 * rob);
}

TEST_F(DeadCodeTest, DeadFractionTracksResolvedWriters)
{
    auto a = makeInstr(0, 5);
    analyzer.onCommit(a);
    auto b = makeInstr(0, 5); // kills a
    analyzer.onCommit(b);
    auto r = makeInstr(0, 6, 5); // proves b live; r itself stays pending
    analyzer.onCommit(r);
    EXPECT_EQ(analyzer.resolvedInstructions(), 2u);
    EXPECT_EQ(analyzer.deadInstructions(), 1u);
    EXPECT_NEAR(analyzer.deadFraction(), 0.5, 1e-12);
    analyzer.finish(); // r resolves live at end of run
    EXPECT_EQ(analyzer.resolvedInstructions(), 3u);
    EXPECT_NEAR(analyzer.deadFraction(), 1.0 / 3.0, 1e-12);
}

TEST(DeadCodeDisabled, EverythingResolvesLiveImmediately)
{
    AvfLedger ledger(1);
    ledger.setStructureBits(HwStruct::ROB, 1000);
    DeadCodeAnalyzer analyzer(1, ledger, false);

    auto a = makeInstr(0, 5);
    stampResidency(a, 0, 10);
    analyzer.onCommit(a);
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::ROB), 10 * rob);

    auto b = makeInstr(0, 5); // would kill a with analysis enabled
    EXPECT_FALSE(analyzer.onCommit(b));
    EXPECT_FALSE(a->destDead);
    EXPECT_EQ(analyzer.deadInstructions(), 0u);
}

TEST(DeadCodeWrongPath, WrongPathResolvesUnAceEvenIfLive)
{
    AvfLedger ledger(1);
    ledger.setStructureBits(HwStruct::ROB, 1000);
    DeadCodeAnalyzer analyzer(1, ledger, true);

    auto a = makeInstr(0, 5);
    a->wrongPath = true;
    stampResidency(a, 0, 10, Residency::Cut);
    analyzer.onSquash(a);
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::ROB), 0u);
    EXPECT_EQ(ledger.unAceBitCycles(HwStruct::ROB), 10 * rob);
}

TEST_F(DeadCodeTest, DeadFractionIsZeroBeforeAnyResolution)
{
    EXPECT_EQ(analyzer.resolvedInstructions(), 0u);
    EXPECT_DOUBLE_EQ(analyzer.deadFraction(), 0.0); // no divide-by-zero
}

/** Bit-cycles booked per core structure, with one classification. */
struct Booked
{
    std::uint64_t iq = 0, fu = 0, rob = 0, lsqTag = 0, lsqData = 0;

    bool
    operator==(const Booked &o) const
    {
        return iq == o.iq && fu == o.fu && rob == o.rob &&
               lsqTag == o.lsqTag && lsqData == o.lsqData;
    }
};

std::ostream &
operator<<(std::ostream &os, const Booked &b)
{
    return os << "{iq " << b.iq << ", fu " << b.fu << ", rob " << b.rob
              << ", lsqTag " << b.lsqTag << ", lsqData " << b.lsqData << "}";
}

Booked
booked(const AvfLedger &ledger, bool ace)
{
    auto get = [&](HwStruct s) {
        return ace ? ledger.aceBitCycles(s) : ledger.unAceBitCycles(s);
    };
    return {get(HwStruct::IQ), get(HwStruct::FU), get(HwStruct::ROB),
            get(HwStruct::LsqTag), get(HwStruct::LsqData)};
}

/** How a residency case reaches the analyzer. */
enum class Via { CommitThenFinish, Squash, EndOfRun };

struct ResidencyCase
{
    const char *name;
    OpClass op;
    bool issued;    ///< issued at cycle 14 (FU latch until 15)
    bool completed; ///< completed at cycle 20
    Residency how;  ///< closed at cycle 30 (dispatched at 10)
    Via via;
    bool ace;       ///< classification the intervals must land in
    Booked expect;
};

TEST(DeadCodeResidency, ResolveDerivesEveryStructuresInterval)
{
    constexpr std::uint64_t iq = bits::iqEntry, fu = bits::fuLatch,
                            tag = bits::lsqTag, data = bits::lsqData;
    // Dispatch 10, issue 14, FU latch [14, 15], load complete 20, end 30.
    const ResidencyCase cases[] = {
        {"committed ALU", OpClass::IntAlu, true, true, Residency::Committed,
         Via::CommitThenFinish, true, {4 * iq, 1 * fu, 20 * rob, 0, 0}},
        {"committed load", OpClass::Load, true, true, Residency::Committed,
         Via::CommitThenFinish, true,
         {4 * iq, 1 * fu, 20 * rob, 20 * tag, 10 * data}},
        {"committed store", OpClass::Store, true, true, Residency::Committed,
         Via::CommitThenFinish, true,
         {4 * iq, 1 * fu, 20 * rob, 20 * tag, 16 * data}},
        {"squashed in the IQ", OpClass::Load, false, false, Residency::Cut,
         Via::Squash, false, {20 * iq, 0, 20 * rob, 20 * tag, 20 * data}},
        {"squashed after issue", OpClass::Load, true, false, Residency::Cut,
         Via::Squash, false,
         {4 * iq, 1 * fu, 20 * rob, 20 * tag, 20 * data}},
        {"cut at end of run", OpClass::Store, true, false, Residency::Cut,
         Via::EndOfRun, true,
         {4 * iq, 1 * fu, 20 * rob, 20 * tag, 20 * data}},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.name);
        AvfLedger ledger(1);
        DeadCodeAnalyzer analyzer(1, ledger, true);
        auto in = makeInstr(0, c.op == OpClass::Store ? invalidReg : 5, 1);
        in->op = c.op;
        in->dispatchCycle = 10;
        if (c.issued) {
            in->issued = true;
            in->issueCycle = 14;
            in->fuEnd = 15;
        }
        if (c.completed) {
            in->completed = true;
            in->completeCycle = 20;
        }
        in->squashed = c.via == Via::Squash;
        in->closeResidency(c.how, 30);

        switch (c.via) {
          case Via::CommitThenFinish:
            analyzer.onCommit(in);
            analyzer.finish();
            break;
          case Via::Squash:
            analyzer.onSquash(in);
            break;
          case Via::EndOfRun:
            analyzer.resolveLive(in);
            break;
        }
        EXPECT_EQ(booked(ledger, c.ace), c.expect);
        EXPECT_EQ(booked(ledger, !c.ace), Booked{});
        EXPECT_EQ(in->residency, Residency::Booked);

        // A second resolve books nothing.
        analyzer.resolveLive(in);
        EXPECT_EQ(booked(ledger, c.ace), c.expect);
        EXPECT_EQ(booked(ledger, !c.ace), Booked{});
    }
}

TEST(DeadCodeResidency, OpenResidencyBooksNothing)
{
    // An instruction still in flight has no closed interval to book.
    AvfLedger ledger(1);
    DeadCodeAnalyzer analyzer(1, ledger, true);
    auto in = makeInstr(0, 5);
    in->dispatchCycle = 10;
    analyzer.resolveLive(in);
    EXPECT_EQ(booked(ledger, true), Booked{});
    EXPECT_EQ(booked(ledger, false), Booked{});
    EXPECT_EQ(in->residency, Residency::Open);
}

TEST_F(DeadCodeTest, DeadIntervalsNeverReachProtectionTallies)
{
    // A dead instruction's interval resolves un-ACE; protection must not
    // count it as covered — only live ACE exposure can be covered.
    ledger.setProtection(uniformProtection(ProtScheme::Secded));
    auto a = makeInstr(0, 5);
    stampResidency(a, 0, 10);
    analyzer.onCommit(a);
    auto b = makeInstr(0, 5); // kills a
    EXPECT_TRUE(analyzer.onCommit(b));
    EXPECT_EQ(ledger.coveredAceBitCycles(HwStruct::ROB), 0u);
    EXPECT_EQ(ledger.residualAceBitCycles(HwStruct::ROB), 0u);
    EXPECT_EQ(ledger.unAceBitCycles(HwStruct::ROB), 10 * rob);
}

TEST_F(DeadCodeTest, LiveIntervalsSplitIntoCoveredPlusResidual)
{
    ledger.setProtection(uniformProtection(ProtScheme::Parity));
    auto a = makeInstr(0, 5);
    stampResidency(a, 0, 10);
    analyzer.onCommit(a);
    auto reader = makeInstr(0, 6, 5); // proves a live
    analyzer.onCommit(reader);
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::ROB), 10 * rob);
    EXPECT_EQ(ledger.coveredAceBitCycles(HwStruct::ROB),
              10 * rob * parityCoverage256 / 256);
    EXPECT_EQ(ledger.coveredAceBitCycles(HwStruct::ROB) +
                  ledger.residualAceBitCycles(HwStruct::ROB),
              ledger.aceBitCycles(HwStruct::ROB));
}

} // namespace
} // namespace smtavf
