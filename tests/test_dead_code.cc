/**
 * @file
 * Unit tests for deferred first-level dynamic dead-code classification.
 */

#include <gtest/gtest.h>

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

class DeadCodeTest : public ::testing::Test
{
  protected:
    DeadCodeTest() : ledger(2), analyzer(2, ledger, true)
    {
        ledger.setStructureBits(HwStruct::ROB, 1000);
    }

    void
    attachInterval(const InstPtr &in, Cycle start, Cycle end)
    {
        in->pending.push_back({HwStruct::ROB, 10, start, end});
    }

    AvfLedger ledger;
    DeadCodeAnalyzer analyzer;
};

TEST_F(DeadCodeTest, OverwriteWithoutReadIsDead)
{
    auto a = makeInstr(0, 5);
    attachInterval(a, 0, 10);
    EXPECT_FALSE(analyzer.onCommit(a));

    auto b = makeInstr(0, 5); // overwrites r5, nobody read it
    EXPECT_TRUE(analyzer.onCommit(b));
    EXPECT_TRUE(a->destDead);
    EXPECT_EQ(analyzer.deadInstructions(), 1u);
    // a's interval resolved un-ACE.
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::ROB), 0u);
    EXPECT_EQ(ledger.unAceBitCycles(HwStruct::ROB), 100u);
}

TEST_F(DeadCodeTest, ReadBeforeOverwriteIsLive)
{
    auto a = makeInstr(0, 5);
    attachInterval(a, 0, 10);
    analyzer.onCommit(a);

    auto reader = makeInstr(0, 6, 5);
    analyzer.onCommit(reader);
    EXPECT_FALSE(a->destDead);
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::ROB), 100u);

    auto b = makeInstr(0, 5);
    EXPECT_FALSE(analyzer.onCommit(b)) << "a was already resolved live";
}

TEST_F(DeadCodeTest, ReadAndRewriteSameRegisterIsLive)
{
    auto a = makeInstr(0, 5);
    attachInterval(a, 0, 10);
    analyzer.onCommit(a);

    // r5 = r5 + 1: reads the old value, then displaces it.
    auto b = makeInstr(0, 5, 5);
    EXPECT_FALSE(analyzer.onCommit(b));
    EXPECT_FALSE(a->destDead);
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::ROB), 100u);
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
    attachInterval(store, 0, 20);
    analyzer.onCommit(store);
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::ROB), 200u);
    EXPECT_TRUE(store->pending.empty());
}

TEST_F(DeadCodeTest, NopsResolveUnAce)
{
    auto nop = makeInstr(0, invalidReg);
    nop->op = OpClass::Nop;
    attachInterval(nop, 0, 10);
    analyzer.onCommit(nop);
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::ROB), 0u);
    EXPECT_EQ(ledger.unAceBitCycles(HwStruct::ROB), 100u);
}

TEST_F(DeadCodeTest, SquashedInstructionsAreUnAce)
{
    auto a = makeInstr(0, 5);
    a->squashed = true;
    attachInterval(a, 0, 10);
    analyzer.onSquash(a);
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::ROB), 0u);
    EXPECT_EQ(ledger.unAceBitCycles(HwStruct::ROB), 100u);
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
    attachInterval(a, 0, 10);
    analyzer.onCommit(a);
    analyzer.finish();
    EXPECT_FALSE(a->destDead);
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::ROB), 100u);
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
    a->pending.push_back({HwStruct::ROB, 10, 0, 10});
    analyzer.onCommit(a);
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::ROB), 100u);

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
    a->pending.push_back({HwStruct::ROB, 10, 0, 10});
    analyzer.onSquash(a);
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::ROB), 0u);
    EXPECT_EQ(ledger.unAceBitCycles(HwStruct::ROB), 100u);
}

TEST_F(DeadCodeTest, DeadFractionIsZeroBeforeAnyResolution)
{
    EXPECT_EQ(analyzer.resolvedInstructions(), 0u);
    EXPECT_DOUBLE_EQ(analyzer.deadFraction(), 0.0); // no divide-by-zero
}

TEST_F(DeadCodeTest, ResolveLiveForwardsAllPendingIntervals)
{
    auto a = makeInstr(0, 5);
    attachInterval(a, 0, 10);
    attachInterval(a, 20, 25); // a second residency (e.g. replay)
    analyzer.resolveLive(a);
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::ROB), 100u + 50u);
    EXPECT_TRUE(a->pending.empty());
}

TEST_F(DeadCodeTest, DeadIntervalsNeverReachProtectionTallies)
{
    // A dead instruction's interval resolves un-ACE; protection must not
    // count it as covered — only live ACE exposure can be covered.
    ledger.setProtection(uniformProtection(ProtScheme::Secded));
    auto a = makeInstr(0, 5);
    attachInterval(a, 0, 10);
    analyzer.onCommit(a);
    auto b = makeInstr(0, 5); // kills a
    EXPECT_TRUE(analyzer.onCommit(b));
    EXPECT_EQ(ledger.coveredAceBitCycles(HwStruct::ROB), 0u);
    EXPECT_EQ(ledger.residualAceBitCycles(HwStruct::ROB), 0u);
    EXPECT_EQ(ledger.unAceBitCycles(HwStruct::ROB), 100u);
}

TEST_F(DeadCodeTest, LiveIntervalsSplitIntoCoveredPlusResidual)
{
    ledger.setProtection(uniformProtection(ProtScheme::Parity));
    auto a = makeInstr(0, 5);
    attachInterval(a, 0, 10);
    analyzer.onCommit(a);
    auto reader = makeInstr(0, 6, 5); // proves a live
    analyzer.onCommit(reader);
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::ROB), 100u);
    EXPECT_EQ(ledger.coveredAceBitCycles(HwStruct::ROB),
              100u * parityCoverage256 / 256);
    EXPECT_EQ(ledger.coveredAceBitCycles(HwStruct::ROB) +
                  ledger.residualAceBitCycles(HwStruct::ROB),
              ledger.aceBitCycles(HwStruct::ROB));
}

} // namespace
} // namespace smtavf
