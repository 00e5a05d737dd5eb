/**
 * @file
 * Unit and property tests for the synthetic instruction-stream generator.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "test_util.hh"
#include "workload/generator.hh"

namespace smtavf
{
namespace
{

TEST(Generator, DeterministicForSameSeed)
{
    StreamGenerator a(findProfile("gcc"), 99, 0);
    StreamGenerator b(findProfile("gcc"), 99, 0);
    for (std::uint64_t i = 0; i < 5000; ++i) {
        const auto &x = a.at(i);
        const auto &y = b.at(i);
        ASSERT_EQ(x.op, y.op);
        ASSERT_EQ(x.pc, y.pc);
        ASSERT_EQ(x.destReg, y.destReg);
        ASSERT_EQ(x.srcReg1, y.srcReg1);
        ASSERT_EQ(x.memAddr, y.memAddr);
        ASSERT_EQ(x.branchTaken, y.branchTaken);
    }
}

TEST(Generator, DifferentSeedsDiffer)
{
    StreamGenerator a(findProfile("gcc"), 1, 0);
    StreamGenerator b(findProfile("gcc"), 2, 0);
    int same = 0;
    for (std::uint64_t i = 0; i < 200; ++i)
        same += a.at(i).op == b.at(i).op;
    EXPECT_LT(same, 150);
}

TEST(Generator, StreamIdReplaysAnotherContext)
{
    // A tid-0 generator seeded with stream id 3 replays tid 3's ops.
    StreamGenerator orig(findProfile("mcf"), 7, 3);
    StreamGenerator replay(findProfile("mcf"), 7, 0, 3);
    for (std::uint64_t i = 0; i < 2000; ++i) {
        ASSERT_EQ(orig.at(i).op, replay.at(i).op);
        ASSERT_EQ(orig.at(i).destReg, replay.at(i).destReg);
        ASSERT_EQ(orig.at(i).branchTaken, replay.at(i).branchTaken);
    }
}

TEST(Generator, TemplatesAreStableAcrossRefetch)
{
    StreamGenerator g(findProfile("bzip2"), 5, 0);
    InstrTemplate first = g.at(123);
    g.at(500); // generate further
    const InstrTemplate &again = g.at(123);
    EXPECT_EQ(first.op, again.op);
    EXPECT_EQ(first.memAddr, again.memAddr);
    EXPECT_EQ(first.streamIdx, again.streamIdx);
}

TEST(Generator, RetireBelowDropsAndRejectsOldIndices)
{
    ThrowGuard guard;
    StreamGenerator g(findProfile("bzip2"), 5, 0);
    g.at(100);
    g.retireBelow(50);
    EXPECT_NO_THROW(g.at(50));
    EXPECT_THROW(g.at(49), SimError);
}

TEST(Generator, BufferShrinksOnRetire)
{
    StreamGenerator g(findProfile("bzip2"), 5, 0);
    g.at(99);
    EXPECT_EQ(g.bufferedCount(), 100u);
    g.retireBelow(90);
    EXPECT_EQ(g.bufferedCount(), 10u);
}

TEST(Generator, StreamIdxMatchesPosition)
{
    StreamGenerator g(findProfile("eon"), 5, 0);
    for (std::uint64_t i = 0; i < 100; ++i)
        EXPECT_EQ(g.at(i).streamIdx, i);
}

TEST(Generator, WrongPathDoesNotPerturbMainStream)
{
    StreamGenerator a(findProfile("gcc"), 42, 0);
    StreamGenerator b(findProfile("gcc"), 42, 0);
    a.at(100);
    for (int i = 0; i < 500; ++i)
        a.makeWrongPath(0x400000 + 4 * i);
    for (std::uint64_t i = 100; i < 1000; ++i)
        ASSERT_EQ(a.at(i).memAddr, b.at(i).memAddr) << i;
}

TEST(Generator, WrongPathInstructionsAreMarked)
{
    StreamGenerator g(findProfile("gcc"), 42, 0);
    for (int i = 0; i < 200; ++i) {
        DynInstr in = g.makeWrongPath(0x400100);
        EXPECT_TRUE(in.wrongPath);
        EXPECT_TRUE(in.neverAce());
        EXPECT_FALSE(in.isBranch()); // wrong path never redirects again
    }
}

TEST(Generator, ClampToCodeStaysInFootprint)
{
    StreamGenerator g(findProfile("gcc"), 42, 2);
    auto hints = g.prewarmHints();
    for (Addr pc = hints.code.base;
         pc < hints.code.base + 4 * hints.code.size; pc += 4) {
        Addr c = g.clampToCode(pc);
        EXPECT_GE(c, hints.code.base);
        EXPECT_LT(c, hints.code.base + hints.code.size);
        EXPECT_EQ(c % 4, 0u);
    }
}

TEST(Generator, ThreadsHaveDisjointAddressSpaces)
{
    StreamGenerator a(findProfile("swim"), 9, 0);
    StreamGenerator b(findProfile("swim"), 9, 1);
    auto ha = a.prewarmHints();
    auto hb = b.prewarmHints();
    EXPECT_LT(ha.hot.base + ha.hot.size, hb.hot.base);
    EXPECT_LT(ha.code.base + ha.code.size, hb.code.base);
}

TEST(Generator, CallsAndReturnsBalance)
{
    StreamGenerator g(findProfile("perlbmk"), 11, 0);
    long depth = 0;
    for (std::uint64_t i = 0; i < 50000; ++i) {
        const auto &in = g.at(i);
        if (in.op == OpClass::Call)
            ++depth;
        if (in.op == OpClass::Return)
            --depth;
        ASSERT_GE(depth, 0) << "return without call at " << i;
        ASSERT_LE(depth, 24);
    }
}

TEST(Generator, BranchSitesHaveStablePcsAndTargets)
{
    StreamGenerator g(findProfile("gcc"), 13, 0);
    std::map<Addr, Addr> targets;
    for (std::uint64_t i = 0; i < 50000; ++i) {
        const auto &in = g.at(i);
        if (in.op != OpClass::BranchCond)
            continue;
        auto it = targets.find(in.pc);
        if (it == targets.end())
            targets[in.pc] = in.branchTarget;
        else
            ASSERT_EQ(it->second, in.branchTarget)
                << "site " << std::hex << in.pc << " changed target";
    }
    EXPECT_GT(targets.size(), 10u);
    EXPECT_LE(targets.size(), findProfile("gcc").staticBranches);
}

TEST(Generator, JumpTargetsAreStablePerSite)
{
    StreamGenerator g(findProfile("gcc"), 13, 0);
    std::map<Addr, Addr> targets;
    for (std::uint64_t i = 0; i < 50000; ++i) {
        const auto &in = g.at(i);
        if (in.op != OpClass::BranchUncond && in.op != OpClass::Call)
            continue;
        auto [it, inserted] = targets.emplace(in.pc, in.branchTarget);
        if (!inserted) {
            ASSERT_EQ(it->second, in.branchTarget);
        }
    }
}

// ---- property sweeps over the whole profile database ---------------------

class GeneratorProperties : public ::testing::TestWithParam<const char *>
{
};

TEST_P(GeneratorProperties, MixFractionsApproximateProfile)
{
    const auto &p = findProfile(GetParam());
    StreamGenerator g(p, 17, 0);
    const std::uint64_t n = 60000;
    std::uint64_t loads = 0, stores = 0, branches = 0, fp = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        const auto &in = g.at(i);
        loads += in.op == OpClass::Load;
        stores += in.op == OpClass::Store;
        branches += in.op == OpClass::BranchCond;
        fp += isFloat(in.op);
    }
    EXPECT_NEAR(double(loads) / n, p.loadFrac, 0.02);
    EXPECT_NEAR(double(stores) / n, p.storeFrac, 0.02);
    EXPECT_NEAR(double(branches) / n, p.branchFrac, 0.02);
    EXPECT_NEAR(double(fp) / n, p.fpAluFrac + p.fpMulFrac + p.fpDivFrac,
                0.02);
}

TEST_P(GeneratorProperties, AddressesFallInDeclaredRegions)
{
    const auto &p = findProfile(GetParam());
    StreamGenerator g(p, 19, 1);
    auto h = g.prewarmHints();
    for (std::uint64_t i = 0; i < 30000; ++i) {
        const auto &in = g.at(i);
        if (!in.isMem())
            continue;
        bool in_hot = in.memAddr >= h.hot.base &&
                      in.memAddr < h.hot.base + h.hot.size;
        bool in_warm = in.memAddr >= h.warm.base &&
                       in.memAddr < h.warm.base + h.warm.size;
        bool in_cold = in.memAddr >= h.warm.base + h.warm.size ||
                       (!in_hot && !in_warm);
        ASSERT_TRUE(in_hot || in_warm || in_cold);
        ASSERT_EQ(in.memAddr % in.memSize, 0u) << "unaligned access";
    }
}

TEST_P(GeneratorProperties, TakenRateIsPlausible)
{
    const auto &p = findProfile(GetParam());
    StreamGenerator g(p, 23, 0);
    std::uint64_t branches = 0, taken = 0;
    for (std::uint64_t i = 0; i < 80000; ++i) {
        const auto &in = g.at(i);
        if (in.op != OpClass::BranchCond)
            continue;
        ++branches;
        taken += in.branchTaken;
    }
    ASSERT_GT(branches, 100u);
    double rate = double(taken) / branches;
    // Loop-dominated streams are mostly taken; entropy pulls toward the
    // profile's taken rate. Accept a generous plausibility band.
    EXPECT_GT(rate, 0.5);
    EXPECT_LT(rate, 0.99);
}

TEST_P(GeneratorProperties, SourcesRespectRegisterClasses)
{
    const auto &p = findProfile(GetParam());
    StreamGenerator g(p, 29, 0);
    for (std::uint64_t i = 0; i < 20000; ++i) {
        const auto &in = g.at(i);
        switch (in.op) {
          case OpClass::FpAlu:
          case OpClass::FpMult:
          case OpClass::FpDiv:
            ASSERT_TRUE(isFpReg(in.srcReg1));
            ASSERT_TRUE(isFpReg(in.srcReg2));
            ASSERT_TRUE(isFpReg(in.destReg));
            break;
          case OpClass::IntAlu:
          case OpClass::IntMult:
          case OpClass::IntDiv:
            ASSERT_FALSE(isFpReg(in.srcReg1));
            ASSERT_FALSE(isFpReg(in.srcReg2));
            ASSERT_FALSE(isFpReg(in.destReg));
            break;
          case OpClass::Load:
            ASSERT_FALSE(isFpReg(in.srcReg1)); // address base is integer
            ASSERT_NE(in.destReg, invalidReg);
            ASSERT_GT(in.memSize, 0);
            break;
          case OpClass::Store:
            ASSERT_FALSE(isFpReg(in.srcReg1));
            ASSERT_EQ(in.destReg, invalidReg);
            break;
          default:
            break;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, GeneratorProperties,
    ::testing::Values("bzip2", "crafty", "eon", "gap", "gcc", "parser",
                      "perlbmk", "mcf", "twolf", "vpr", "facerec", "fma3d",
                      "galgel", "mesa", "wupwise", "applu", "equake",
                      "lucas", "mgrid", "swim"));

} // namespace
} // namespace smtavf
