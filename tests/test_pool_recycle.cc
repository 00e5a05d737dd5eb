/**
 * @file
 * Pool-recycling determinism: DynInstr objects come from a per-core slab
 * pool and are recycled aggressively, so these tests prove that recycled
 * storage can never leak state between instructions or between runs —
 * the result of a simulation is bit-identical no matter how many
 * simulations the process ran before it, and no matter how hard the
 * squash path churned the pool. Run them under
 * -DSMTAVF_SANITIZE=address to also prove the recycler never touches
 * freed storage (the squash-heavy case below exists for exactly that).
 */

#include <gtest/gtest.h>

#include <string>

#include "isa/instr_pool.hh"
#include "sim/campaign.hh"
#include "sim/journal.hh"
#include "workload/mixes.hh"

namespace smtavf
{
namespace
{

/** Full-result fingerprint: every field the journal round-trips. */
std::string
resultText(const Experiment &e, const SimResult &r)
{
    return serializeRun(experimentFingerprint(e), r);
}

TEST(PoolRecycle, BackToBackSimulatorsBitIdentical)
{
    auto e = makeExperiment(findMix("2ctx-mix-A"), FetchPolicyKind::Icount,
                            30000);
    auto first = runExperiment(e);
    // The second Simulator starts from a process state the first one
    // warmed (allocator caches, pools constructed and destroyed). Its
    // result must not notice.
    auto second = runExperiment(e);
    EXPECT_EQ(resultText(e, first), resultText(e, second));
}

TEST(PoolRecycle, InterleavedConfigsBitIdentical)
{
    auto a = makeExperiment(findMix("2ctx-mix-A"), FetchPolicyKind::Icount,
                            20000);
    auto b = makeExperiment(findMix("2ctx-mem-A"), FetchPolicyKind::Stall,
                            20000);
    auto a1 = runExperiment(a);
    auto b1 = runExperiment(b);
    auto a2 = runExperiment(a);
    auto b2 = runExperiment(b);
    EXPECT_EQ(resultText(a, a1), resultText(a, a2));
    EXPECT_EQ(resultText(b, b1), resultText(b, b2));
}

/**
 * FLUSH on a memory-bound mix squashes entire in-flight windows on every
 * L2 miss: instructions are returned to the slab pool in bulk mid-run and
 * immediately re-allocated by re-fetch. Two identical runs must still
 * agree bit-for-bit — and under ASan this is the test that walks the
 * recycler's use-after-free surface hardest.
 */
TEST(PoolRecycle, SquashHeavyFlushRunBitIdentical)
{
    auto e = makeExperiment(findMix("4ctx-mem-A"), FetchPolicyKind::Flush,
                            40000);
    e.cfg.seed = 1234;
    auto first = runExperiment(e);
    auto second = runExperiment(e);
    EXPECT_EQ(resultText(e, first), resultText(e, second));
    EXPECT_GT(first.cycles, 0u);
}

TEST(PoolRecycle, LastHandleReturnsTheRecord)
{
    InstrPool pool;
    DynInstr *first = nullptr;
    {
        InstPtr a = pool.create(DynInstr{});
        InstPtr b = a;
        first = a.get();
        EXPECT_EQ(b->ref.count, 2u);
        a = nullptr;
        EXPECT_EQ(b->ref.count, 1u);
        DynInstr copy = *b; // copying a record never copies ownership
        EXPECT_EQ(copy.ref.count, 0u);
        EXPECT_EQ(copy.ref.pool, nullptr);
    }
    InstPtr c = pool.create(DynInstr{});
    EXPECT_EQ(c.get(), first); // the freed slot is reused first
    EXPECT_EQ(c->ref.count, 1u);
}

/**
 * A handle that outlives its pool would be a use-after-free; the pool's
 * destructor aborts instead.
 */
TEST(PoolRecycleDeathTest, PoolDestroyedUnderALiveHandleAborts)
{
    EXPECT_DEATH(
        {
            auto *pool = new InstrPool;
            InstPtr keep = pool->create(DynInstr{});
            delete pool;
        },
        "InstrPool destroyed with 1 live instructions");
}

} // namespace
} // namespace smtavf
