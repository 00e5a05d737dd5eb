#include "workload/generator.hh"

#include "base/logging.hh"

namespace smtavf
{

StreamGenerator::StreamGenerator(const BenchmarkProfile &profile,
                                 std::uint64_t seed, ThreadId tid,
                                 std::uint32_t stream_id)
    : profile_(profile), tid_(tid), streamId_(stream_id),
      rng_(seed ^ (0x51ed2700ull +
                   (stream_id == 0xffffffff ? tid : stream_id))),
      wrongRng_((seed * 0x9e3779b97f4a7c15ull) ^
                (0xbadcull + (stream_id == 0xffffffff ? tid : stream_id)))
{
    profile_.validate();
    init();
}

void
StreamGenerator::reset(std::uint64_t seed)
{
    // Same seeding expressions as the constructor's member initializers.
    std::uint64_t sid = streamId_ == 0xffffffff ? tid_ : streamId_;
    rng_ = Rng(seed ^ (0x51ed2700ull + sid));
    wrongRng_ = Rng((seed * 0x9e3779b97f4a7c15ull) ^ (0xbadcull + sid));
    buffer_.reset();
    base_ = 0;
    curSite_ = 0;
    curChain_ = 0;
    nextStream_ = 0;
    callStack_.clear();
    init();
}

void
StreamGenerator::init()
{
    // High bits separate the address spaces; the low page-aligned jitter
    // spreads different threads' footprints across cache sets, as distinct
    // physical page mappings would on a real machine.
    threadOffset_ = (static_cast<Addr>(tid_) << 40) +
                    static_cast<Addr>(tid_) * 0x25000;

    // Build the cumulative op-class distribution once.
    struct MixEntry { OpClass op; double frac; };
    const MixEntry mix[] = {
        {OpClass::Load, profile_.loadFrac},
        {OpClass::Store, profile_.storeFrac},
        {OpClass::BranchCond, profile_.branchFrac},
        {OpClass::BranchUncond, profile_.jumpFrac},
        {OpClass::FpAlu, profile_.fpAluFrac},
        {OpClass::FpMult, profile_.fpMulFrac},
        {OpClass::FpDiv, profile_.fpDivFrac},
        {OpClass::IntMult, profile_.intMulFrac},
        {OpClass::IntDiv, profile_.intDivFrac},
        {OpClass::Nop, profile_.nopFrac},
    };
    double cum = 0.0;
    opCount_ = 0;
    for (const auto &e : mix) {
        if (e.frac <= 0.0)
            continue;
        cum += e.frac;
        opOrder_[opCount_] = e.op;
        opCdf_[opCount_] = cum;
        ++opCount_;
    }
    // Remainder is integer ALU work.
    opOrder_[opCount_] = OpClass::IntAlu;
    opCdf_[opCount_] = 1.0;
    ++opCount_;

    // Initialize branch sites with stable PCs inside the code footprint.
    sites_.resize(profile_.staticBranches);
    for (std::uint32_t i = 0; i < profile_.staticBranches; ++i) {
        auto &s = sites_[i];
        s.pc = codeAddr(static_cast<std::uint64_t>(i) * 68 + 16);
        s.target = codeAddr(rng_.uniform(codeFootprint));
        s.random = rng_.bernoulli(profile_.branchEntropy);
        // Even data-dependent branches are usually biased; only a minority
        // are coin flips near the profile's global taken rate.
        if (rng_.bernoulli(0.7))
            s.takenProb = rng_.bernoulli(profile_.takenRate) ? 0.9 : 0.1;
        else
            s.takenProb = profile_.takenRate;
        s.period = static_cast<std::uint32_t>(rng_.uniformRange(4, 16));
        s.counter = 0;
    }

    // Unconditional jump/call sites with stable targets (BTB-learnable).
    jumpSites_.resize(profile_.staticBranches / 2 + 1);
    for (std::size_t i = 0; i < jumpSites_.size(); ++i) {
        auto &j = jumpSites_[i];
        j.pc = codeAddr(static_cast<std::uint64_t>(i) * 92 + 36);
        j.target = codeAddr(rng_.uniform(codeFootprint));
        j.isCall = rng_.bernoulli(0.5);
    }

    pc_ = threadOffset_ + codeBase;

    // The call stack is capped at 24 entries (see the Call emission in
    // generateOne); reserving the cap keeps its rare late growth out of
    // the steady-state tick loop's allocation-free window.
    callStack_.reserve(24);

    std::uint32_t chains = profile_.parallelChains;
    // assign, not resize: on a reset() re-run the vectors already have
    // this size and resize would leave stale definition rings behind.
    intChains_.assign(chains, DefRing{});
    fpChains_.assign(chains, DefRing{});

    auto init_streams = [this](std::array<AccessStream, streamsPerRegion> &ss,
                               Addr base, std::uint64_t size) {
        for (auto &s : ss)
            s.cursor = base + rng_.uniform(size);
    };
    init_streams(hotStreams_, threadOffset_ + hotBase, profile_.hotSetBytes);
    init_streams(warmStreams_, threadOffset_ + warmBase, profile_.warmSetBytes);
    init_streams(coldStreams_, threadOffset_ + coldBase, profile_.coldSetBytes);
}

Addr
StreamGenerator::codeAddr(std::uint64_t raw) const
{
    return threadOffset_ + codeBase + (raw % codeFootprint & ~Addr{3});
}

Addr
StreamGenerator::clampToCode(Addr pc) const
{
    Addr base = threadOffset_ + codeBase;
    return base + ((pc - base) % codeFootprint & ~Addr{3});
}

StreamGenerator::PrewarmHints
StreamGenerator::prewarmHints() const
{
    PrewarmHints h;
    h.code = {threadOffset_ + codeBase, codeFootprint};
    h.hot = {threadOffset_ + hotBase, profile_.hotSetBytes};
    h.warm = {threadOffset_ + warmBase, profile_.warmSetBytes};
    return h;
}

const InstrTemplate &
StreamGenerator::at(std::uint64_t idx)
{
    if (idx < base_)
        SMTAVF_PANIC("stream index ", idx, " already retired (base ", base_,
                     ")");
    while (base_ + buffer_.size() <= idx)
        buffer_.push_back(generateOne());
    return buffer_[idx - base_];
}

void
StreamGenerator::retireBelow(std::uint64_t idx)
{
    while (base_ < idx && !buffer_.empty()) {
        buffer_.pop_front();
        ++base_;
    }
}

OpClass
StreamGenerator::pickOpClass()
{
    double u = rng_.uniformReal();
    for (std::size_t i = 0; i < opCount_; ++i)
        if (u < opCdf_[i])
            return opOrder_[i];
    return OpClass::IntAlu;
}

void
StreamGenerator::noteDef(RegIndex reg)
{
    if (isZeroReg(reg))
        return;
    auto &chains = isFpReg(reg) ? fpChains_ : intChains_;
    auto &ring = chains[curChain_];
    ring.regs[ring.count % defWindow] = reg;
    ++ring.count;
}

RegIndex
StreamGenerator::pickSrc(bool fp)
{
    auto &chains = fp ? fpChains_ : intChains_;

    // Mostly read within the current chain; occasionally a loop-carried
    // value from another iteration.
    std::size_t chain = curChain_;
    if (chains.size() > 1 && rng_.bernoulli(profile_.crossChainFrac))
        chain = (curChain_ + 1 + rng_.uniform(chains.size() - 1)) %
                chains.size();

    const auto &ring = chains[chain];
    if (ring.count == 0)
        return pickDest(fp); // cold start: any register of the chain

    std::size_t window = ring.count < defWindow ? ring.count : defWindow;
    std::size_t back;
    if (rng_.bernoulli(profile_.shortDepFrac)) {
        // Tight chain: one of the two most recent definitions.
        back = rng_.uniform(window < 2 ? window : 2);
    } else {
        back = rng_.uniform(window);
    }
    return ring.regs[(ring.count - 1 - back) % defWindow];
}

RegIndex
StreamGenerator::pickDest(bool fp)
{
    // Chains own disjoint register-name partitions, so one chain's writes
    // never rename over another chain's live values.
    RegIndex base = fp ? numArchIntRegs : 0;
    std::uint32_t chains = static_cast<std::uint32_t>(intChains_.size());
    std::uint32_t span = 31 / chains;
    RegIndex lo = 1 + static_cast<RegIndex>(curChain_ * span);
    return base + lo + static_cast<RegIndex>(rng_.uniform(span));
}

Addr
StreamGenerator::genDataAddress(std::uint8_t size)
{
    double u = rng_.uniformReal();
    Addr base;
    std::uint64_t region_size;
    std::array<AccessStream, streamsPerRegion> *streams;
    if (u < profile_.hotAccessFrac) {
        base = threadOffset_ + hotBase;
        region_size = profile_.hotSetBytes;
        streams = &hotStreams_;
    } else if (u < profile_.hotAccessFrac + profile_.warmAccessFrac) {
        base = threadOffset_ + warmBase;
        region_size = profile_.warmSetBytes;
        streams = &warmStreams_;
    } else {
        base = threadOffset_ + coldBase;
        region_size = profile_.coldSetBytes;
        streams = &coldStreams_;
    }

    Addr addr;
    if (rng_.bernoulli(profile_.stridedFrac)) {
        auto &s = (*streams)[nextStream_ % streamsPerRegion];
        ++nextStream_;
        s.cursor += profile_.strideBytes;
        if (s.cursor >= base + region_size)
            s.cursor = base;
        addr = s.cursor;
    } else {
        // Random accesses are page-zipf skewed: many distinct lines (cache
        // pressure) but a hot page set the TLB can hold, as in real
        // pointer-chasing codes.
        std::uint64_t pages = region_size / pageBytes;
        if (pages < 2) {
            addr = base + rng_.uniform(region_size);
        } else {
            std::uint64_t page = rng_.zipf(pages, pageZipfS);
            addr = base + page * pageBytes + rng_.uniform(pageBytes);
        }
    }
    return addr & ~static_cast<Addr>(size - 1);
}

InstrTemplate
StreamGenerator::generateOne()
{
    InstrTemplate in;
    in.tid = tid_;
    in.streamIdx = base_ + buffer_.size();
    in.op = pickOpClass();
    in.pc = pc_;

    // Interleave the independent chains round-robin, like the unrolled
    // iterations of a software-pipelined loop.
    curChain_ = (curChain_ + 1) % intChains_.size();

    Addr next_pc = pc_ + 4;

    switch (in.op) {
      case OpClass::Nop:
        break;

      case OpClass::IntAlu:
      case OpClass::IntMult:
      case OpClass::IntDiv:
        in.srcReg1 = pickSrc(false);
        in.srcReg2 = pickSrc(false);
        in.destReg = pickDest(false);
        noteDef(in.destReg);
        break;

      case OpClass::FpAlu:
      case OpClass::FpMult:
      case OpClass::FpDiv:
        in.srcReg1 = pickSrc(true);
        in.srcReg2 = pickSrc(true);
        in.destReg = pickDest(true);
        noteDef(in.destReg);
        break;

      case OpClass::Load: {
        bool fp_dest = profile_.suite == BenchSuite::Fp &&
                       rng_.bernoulli(0.5);
        in.srcReg1 = pickSrc(false); // address base
        in.destReg = pickDest(fp_dest);
        in.memSize = fp_dest ? 8 : 4;
        in.memAddr = genDataAddress(in.memSize);
        noteDef(in.destReg);
        break;
      }

      case OpClass::Store: {
        bool fp_data = profile_.suite == BenchSuite::Fp &&
                       rng_.bernoulli(0.5);
        in.srcReg1 = pickSrc(false);   // address base
        in.srcReg2 = pickSrc(fp_data); // data
        in.memSize = fp_data ? 8 : 4;
        in.memAddr = genDataAddress(in.memSize);
        break;
      }

      case OpClass::BranchCond: {
        // Loop-nest model: the current site repeats until its loop exits
        // (the not-taken outcome), then control moves to the next site in
        // a mostly fixed cycle — so the global history carries a learnable
        // pattern, as in real loop nests. Entropy sites flip data-driven
        // coins and provide the irreducible mispredictions.
        auto &site = sites_[curSite_];
        in.pc = site.pc;
        in.srcReg1 = pickSrc(false);
        in.srcReg2 = pickSrc(false);
        if (site.random) {
            in.branchTaken = rng_.bernoulli(site.takenProb);
        } else {
            // Loop-style branch: taken period-1 times out of period.
            ++site.counter;
            if (site.counter >= site.period) {
                site.counter = 0;
                in.branchTaken = false;
            } else {
                in.branchTaken = true;
            }
        }
        if (!in.branchTaken) {
            // Loop exit: move on, occasionally jumping to hot code.
            if (rng_.bernoulli(0.85))
                curSite_ = (curSite_ + 1) % sites_.size();
            else
                curSite_ = rng_.zipf(sites_.size(), 0.6);
        }
        in.branchTarget = site.target;
        next_pc = in.branchTaken ? site.target : site.pc + 4;
        break;
      }

      case OpClass::BranchUncond:
      case OpClass::Call:
      case OpClass::Return: {
        // The mix only emits BranchUncond; refine it into jump/call/return
        // here, keeping call depth balanced so the RAS sees matched pairs.
        // Jump/call sites have stable PCs and targets so the BTB learns
        // them; returns target the matching call's fall-through.
        double kind = rng_.uniformReal();
        if (kind < 0.40 && !callStack_.empty()) {
            in.op = OpClass::Return;
            in.pc = codeAddr(rng_.uniform(codeFootprint));
            in.branchTarget = callStack_.back();
            callStack_.pop_back();
        } else {
            auto &site = jumpSites_[rng_.zipf(jumpSites_.size(), 0.6)];
            in.pc = site.pc;
            in.branchTarget = site.target;
            if (site.isCall && callStack_.size() < 24) {
                in.op = OpClass::Call;
                callStack_.push_back(in.pc + 4);
            } else {
                in.op = OpClass::BranchUncond;
            }
        }
        in.branchTaken = true;
        next_pc = in.branchTarget;
        break;
      }

      default:
        SMTAVF_PANIC("unhandled op class in generator");
    }

    // Sequential fall-through must stay inside the code footprint, or
    // low-branch streams would walk off into unmapped (IL1-hostile)
    // territory between redirects.
    pc_ = clampToCode(next_pc);
    return in;
}

InstrTemplate
StreamGenerator::makeWrongPath(Addr pc)
{
    InstrTemplate in;
    in.tid = tid_;
    in.wrongPath = true;
    in.pc = pc;

    // Wrong-path work is plain compute plus the occasional load whose cache
    // pollution is real even though its result is un-ACE.
    // Note: only wrongRng_ may be drawn here; touching rng_ would make the
    // correct-path stream depend on how much wrong-path work was fetched.
    double u = wrongRng_.uniformReal();
    if (u < profile_.loadFrac) {
        in.op = OpClass::Load;
        in.srcReg1 = 1;
        in.destReg = static_cast<RegIndex>(wrongRng_.uniformRange(1, 31));
        in.memSize = 4;
        // Wrong-path loads chase stale pointers into the same regions the
        // program uses (mostly the hot set), not arbitrary cold memory.
        double r = wrongRng_.uniformReal();
        Addr base;
        std::uint64_t size;
        if (r < profile_.hotAccessFrac) {
            base = threadOffset_ + hotBase;
            size = profile_.hotSetBytes;
        } else if (r < profile_.hotAccessFrac + profile_.warmAccessFrac) {
            base = threadOffset_ + warmBase;
            size = profile_.warmSetBytes;
        } else {
            base = threadOffset_ + coldBase;
            size = profile_.coldSetBytes;
        }
        in.memAddr = (base + wrongRng_.uniform(size)) & ~Addr{3};
    } else if (u < profile_.loadFrac + profile_.fpAluFrac) {
        in.op = OpClass::FpAlu;
        in.srcReg1 = numArchIntRegs + 1;
        in.srcReg2 = numArchIntRegs + 2;
        in.destReg = numArchIntRegs +
                     static_cast<RegIndex>(wrongRng_.uniformRange(1, 31));
    } else {
        in.op = OpClass::IntAlu;
        in.srcReg1 = 1;
        in.srcReg2 = 2;
        in.destReg = static_cast<RegIndex>(wrongRng_.uniformRange(1, 31));
    }
    return in;
}

} // namespace smtavf
