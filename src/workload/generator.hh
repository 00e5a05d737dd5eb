/**
 * @file
 * StreamGenerator: expands a BenchmarkProfile into a deterministic dynamic
 * instruction stream with real register dataflow, memory addresses and
 * branch outcomes.
 *
 * The generator keeps a buffer of generated-but-uncommitted instructions so
 * the core can *rewind* fetch (branch-mispredict recovery and the FLUSH
 * fetch policy both squash and later refetch the same instructions). It
 * also synthesizes wrong-path filler instructions that the core fetches
 * past mispredicted branches; those are un-ACE by construction and their
 * loads still pollute the caches, as on a real machine.
 */

#ifndef SMTAVF_WORKLOAD_GENERATOR_HH
#define SMTAVF_WORKLOAD_GENERATOR_HH

#include <array>
#include <cstdint>
#include <vector>

#include "base/arena.hh"
#include "base/ring_buffer.hh"
#include "base/rng.hh"
#include "base/types.hh"
#include "isa/instr.hh"
#include "workload/profile.hh"

namespace smtavf
{

/** Deterministic per-thread instruction stream. */
class StreamGenerator
{
  public:
    /**
     * @param profile   behavioural envelope to synthesize
     * @param seed      RNG seed; same (profile, seed, stream_id) =>
     *                  identical stream
     * @param tid       hardware context the stream will run on
     * @param stream_id seeding identity; defaults to @p tid. Passing the
     *                  original SMT context id lets a 1-context baseline
     *                  replay exactly the stream that context executed
     *                  (the paper's Figure 3/4 methodology).
     */
    StreamGenerator(const BenchmarkProfile &profile, std::uint64_t seed,
                    ThreadId tid, std::uint32_t stream_id = 0xffffffff);

    /**
     * Worker-reuse hook: re-seed and re-run the constructor's derivation
     * in place — same draw order, so reset(s) is stream-identical to a
     * fresh StreamGenerator(profile, s, tid, stream_id). Allocation-free
     * (every container keeps its capacity).
     */
    void reset(std::uint64_t seed);

    /**
     * Correct-path instruction at stream index @p idx (0-based program
     * order). Generates on demand; the core builds its DynInstr from this
     * template at fetch.
     */
    const InstrTemplate &at(std::uint64_t idx);

    /** Drop buffered instructions below @p idx (they committed). */
    void retireBelow(std::uint64_t idx);

    /** Synthesize one wrong-path instruction at @p pc. */
    InstrTemplate makeWrongPath(Addr pc);

    /** Wrap @p pc into this thread's code footprint (wrong-path fetch). */
    Addr clampToCode(Addr pc) const;

    /** A contiguous address range of this thread. */
    struct MemRange
    {
        Addr base;
        std::uint64_t size;
    };

    /** Ranges a simulator should pre-warm (code, hot set, warm set). */
    struct PrewarmHints
    {
        MemRange code;
        MemRange hot;
        MemRange warm;
    };

    /**
     * This thread's pre-warm ranges. Short simulations would otherwise pay
     * compulsory misses on footprints the paper's 100M-instruction
     * SimPoint regions have long since warmed.
     */
    PrewarmHints prewarmHints() const;

    /** Number of correct-path instructions generated so far. */
    std::uint64_t generatedCount() const { return base_ + buffer_.size(); }

    /** Number still buffered (uncommitted window size). */
    std::size_t bufferedCount() const { return buffer_.size(); }

    const BenchmarkProfile &profile() const { return profile_; }
    ThreadId tid() const { return tid_; }

    /**
     * Checkpoint hook: only the mutable stream state travels. Everything
     * the constructor derives deterministically from (profile, seed,
     * stream_id) — the op-class CDF, branch/jump site geometry, region
     * bases — is rebuilt by constructing the generator the normal way and
     * then overwriting this state on top. The buffered uncommitted window
     * CAN be non-empty at a drained boundary (instructions fetched,
     * squashed and not yet refetched stay buffered — the RNG has already
     * advanced past them, so they are not regenerable) and travels as the
     * template fields generateOne()/makeWrongPath() fill in.
     */
    template <class Ar>
    void
    serialize(Ar &ar)
    {
        ar(rng_);
        ar(wrongRng_);
        ar(base_);
        std::uint64_t n = buffer_.size();
        ar(n);
        if constexpr (Ar::loading) {
            buffer_.clear();
            for (std::uint64_t i = 0; i < n; ++i) {
                InstrTemplate in;
                serializeTemplate(ar, in);
                buffer_.push_back(in);
            }
        } else {
            for (std::uint64_t i = 0; i < n; ++i)
                serializeTemplate(ar, buffer_[i]);
        }
        ar(sites_);
        ar(curSite_);
        ar(pc_);
        ar(callStack_);
        ar(intChains_);
        ar(fpChains_);
        ar(curChain_);
        ar(hotStreams_);
        ar(warmStreams_);
        ar(coldStreams_);
        ar(nextStream_);
    }

  private:
    /** Per-static-branch behavioural state. */
    struct BranchSite
    {
        Addr pc = 0;
        Addr target = 0;
        bool random = false;    ///< entropy site: coin flips
        double takenProb = 0.5; ///< for random sites
        std::uint32_t period = 8; ///< for loop sites: taken period-1 of period
        std::uint32_t counter = 0;

        template <class Ar>
        void
        serialize(Ar &ar)
        {
            ar(pc);
            ar(target);
            ar(random);
            ar(takenProb);
            ar(period);
            ar(counter);
        }
    };

    /** One sequential access stream within a memory region. */
    struct AccessStream
    {
        Addr cursor = 0;

        template <class Ar>
        void
        serialize(Ar &ar)
        {
            ar(cursor);
        }
    };

    /**
     * A buffered template's fields. wrongPath does not travel: buffered
     * entries are correct-path by construction (makeWrongPath's records
     * go straight to the core, never into the buffer).
     */
    template <class Ar>
    static void
    serializeTemplate(Ar &ar, InstrTemplate &in)
    {
        ar(in.tid);
        ar(in.streamIdx);
        ar(in.pc);
        ar(in.op);
        ar(in.destReg);
        ar(in.srcReg1);
        ar(in.srcReg2);
        ar(in.memAddr);
        ar(in.memSize);
        ar(in.branchTaken);
        ar(in.branchTarget);
    }

    /** Constructor body: everything derived from (profile, seed, sid). */
    void init();

    InstrTemplate generateOne();
    OpClass pickOpClass();
    RegIndex pickSrc(bool fp);
    RegIndex pickDest(bool fp);
    void noteDef(RegIndex reg);
    Addr genDataAddress(std::uint8_t size);
    Addr codeAddr(std::uint64_t raw) const;

    BenchmarkProfile profile_;
    ThreadId tid_;
    std::uint32_t streamId_; ///< raw ctor argument (0xffffffff = tid)
    Rng rng_;
    Rng wrongRng_;

    /** Uncommitted window; ring reuse keeps generation allocation-free. */
    RingBuffer<InstrTemplate> buffer_;
    std::uint64_t base_ = 0; ///< stream index of buffer_.front()

    // cumulative op-class distribution, aligned with opOrder_
    std::array<double, numOpClasses> opCdf_{};
    std::array<OpClass, numOpClasses> opOrder_{};
    std::size_t opCount_ = 0;

    // Dataflow state: a ring of recent definitions per register class per
    // independent chain (parallel loop iterations in flight).
    static constexpr std::size_t defWindow = 8;
    struct DefRing
    {
        std::array<RegIndex, defWindow> regs{};
        std::size_t count = 0;

        template <class Ar>
        void
        serialize(Ar &ar)
        {
            ar(regs);
            ar(count);
        }
    };
    AVec<DefRing> intChains_;
    AVec<DefRing> fpChains_;
    std::size_t curChain_ = 0;

    /** A static unconditional jump/call site with a stable target. */
    struct JumpSite
    {
        Addr pc = 0;
        Addr target = 0;
        bool isCall = false;
    };

    // control state
    AVec<BranchSite> sites_;
    AVec<JumpSite> jumpSites_;
    std::size_t curSite_ = 0; ///< sticky branch site (loop behaviour)
    Addr pc_ = 0;
    AVec<Addr> callStack_;

    // Data regions: bases far apart so they never alias, plus a per-thread
    // offset so the multiprogrammed contexts have disjoint address spaces
    // (as the paper's SPEC mixes do).
    Addr threadOffset_ = 0;
    static constexpr Addr hotBase = 0x1000'0000;
    static constexpr Addr warmBase = 0x4000'0000;
    static constexpr Addr coldBase = 0x8000'0000;
    static constexpr std::size_t streamsPerRegion = 4;
    std::array<AccessStream, streamsPerRegion> hotStreams_;
    std::array<AccessStream, streamsPerRegion> warmStreams_;
    std::array<AccessStream, streamsPerRegion> coldStreams_;
    std::size_t nextStream_ = 0;

    static constexpr Addr codeBase = 0x0040'0000;
    static constexpr std::uint64_t codeFootprint = 6 * 1024;
    /** Page-granular skew of random data accesses (TLB locality). */
    static constexpr double pageZipfS = 0.9;
    static constexpr std::uint64_t pageBytes = 8192;
};

} // namespace smtavf

#endif // SMTAVF_WORKLOAD_GENERATOR_HH
