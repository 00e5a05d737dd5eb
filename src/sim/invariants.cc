#include "sim/invariants.hh"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <utility>
#include <vector>

#include "avf/ledger.hh"
#include "core/smt_core.hh"
#include "sim/errors.hh"

namespace smtavf
{

namespace
{

[[noreturn]] void
violated(const SmtCore &core, Cycle now, const char *invariant,
         const std::string &detail)
{
    throw InvariantError(invariant, now, detail, core.stateDump());
}

/**
 * Ownership tags for every physical register, used to prove the exact
 * partition  allocated = free + mapped + displaced  with no overlaps.
 */
enum class RegOwner : std::uint8_t { None, Free, Mapped, Displaced };

const char *
ownerName(RegOwner o)
{
    switch (o) {
      case RegOwner::None:
        return "unowned";
      case RegOwner::Free:
        return "free";
      case RegOwner::Mapped:
        return "rename-mapped";
      case RegOwner::Displaced:
        return "displaced-by-in-flight";
    }
    return "?";
}

void
checkRegfile(const SmtCore &core, Cycle now)
{
    const PhysRegFile &rf = core.regfileRef();
    const MachineConfig &cfg = core.config();
    const std::uint32_t total = rf.numInt() + rf.numFp();
    std::vector<RegOwner> owner(total, RegOwner::None);

    // --- regfile.freelist -----------------------------------------------
    for (bool fp : {false, true}) {
        const auto &list = rf.freeList(fp);
        const std::uint32_t count = fp ? rf.freeFp() : rf.freeInt();
        const char *bank = fp ? "fp" : "int";
        if (list.size() != count)
            violated(core, now, "regfile.freelist",
                     detail::concat(bank, " free list holds ", list.size(),
                                    " entries but the free counter says ",
                                    count));
        const RegIndex lo = fp ? static_cast<RegIndex>(rf.numInt()) : 0;
        const RegIndex hi = fp ? static_cast<RegIndex>(total)
                               : static_cast<RegIndex>(rf.numInt());
        for (RegIndex phys : list) {
            if (phys < lo || phys >= hi)
                violated(core, now, "regfile.freelist",
                         detail::concat(bank, " free list entry ", phys,
                                        " outside bank range [", lo, ", ",
                                        hi, ")"));
            if (owner[phys] != RegOwner::None)
                violated(core, now, "regfile.freelist",
                         detail::concat("register ", phys,
                                        " listed free twice"));
            if (rf.isAllocated(phys))
                violated(core, now, "regfile.freelist",
                         detail::concat("register ", phys,
                                        " is on the ", bank,
                                        " free list but marked allocated"));
            owner[phys] = RegOwner::Free;
        }
    }

    // --- rename.mapping + claim of mapped registers ----------------------
    for (unsigned t = 0; t < cfg.contexts; ++t) {
        auto tid = static_cast<ThreadId>(t);
        const RenameMap &map = core.renameMap(tid);
        for (RegIndex arch = 0; arch < numArchRegs; ++arch) {
            RegIndex phys = map.lookup(arch);
            if (phys == invalidReg)
                continue;
            if (phys < 0 || static_cast<std::uint32_t>(phys) >= total)
                violated(core, now, "rename.mapping",
                         detail::concat("T", t, " arch ", arch,
                                        " maps to out-of-range physical ",
                                        phys));
            bool arch_fp = isFpReg(arch);
            bool phys_fp = static_cast<std::uint32_t>(phys) >= rf.numInt();
            if (arch_fp != phys_fp)
                violated(core, now, "rename.mapping",
                         detail::concat("T", t, " arch ", arch,
                                        " maps across banks to physical ",
                                        phys));
            if (!rf.isAllocated(phys))
                violated(core, now, "rename.mapping",
                         detail::concat("T", t, " arch ", arch,
                                        " maps to unallocated physical ",
                                        phys));
            if (owner[phys] != RegOwner::None)
                violated(core, now, "regfile.conservation",
                         detail::concat("physical ", phys, " is ",
                                        ownerName(owner[phys]),
                                        " and also mapped by T", t,
                                        " arch ", arch));
            owner[phys] = RegOwner::Mapped;
        }
    }

    // --- claim of displaced old mappings held by in-flight instructions --
    for (unsigned t = 0; t < cfg.contexts; ++t) {
        auto tid = static_cast<ThreadId>(t);
        for (const auto &in : core.rob(tid)) {
            RegIndex old = in->oldDestPhys;
            if (old == invalidReg)
                continue;
            if (old < 0 || static_cast<std::uint32_t>(old) >= total)
                violated(core, now, "regfile.conservation",
                         detail::concat("T", t, " seq ", in->seq,
                                        " holds out-of-range displaced ",
                                        "register ", old));
            if (!rf.isAllocated(old))
                violated(core, now, "regfile.conservation",
                         detail::concat("T", t, " seq ", in->seq,
                                        " holds unallocated displaced ",
                                        "register ", old));
            if (owner[old] != RegOwner::None)
                violated(core, now, "regfile.conservation",
                         detail::concat("physical ", old, " is ",
                                        ownerName(owner[old]),
                                        " and also displaced by T", t,
                                        " seq ", in->seq));
            owner[old] = RegOwner::Displaced;
        }
    }

    // --- regfile.conservation: nothing is left unaccounted ---------------
    for (std::uint32_t p = 0; p < total; ++p) {
        if (owner[p] == RegOwner::None && !rf.isAllocated(p))
            violated(core, now, "regfile.conservation",
                     detail::concat("physical ", p,
                                    " is neither free, mapped, displaced, ",
                                    "nor marked allocated"));
        if (owner[p] == RegOwner::None && rf.isAllocated(p))
            violated(core, now, "regfile.conservation",
                     detail::concat("physical ", p, " is allocated but ",
                                    "unreachable from any rename map or ",
                                    "in-flight instruction (leak)"));
    }
}

void
checkRob(const SmtCore &core, Cycle now)
{
    const MachineConfig &cfg = core.config();
    for (unsigned t = 0; t < cfg.contexts; ++t) {
        auto tid = static_cast<ThreadId>(t);
        const Rob &rob = core.rob(tid);
        if (rob.size() > rob.capacity())
            violated(core, now, "rob.order",
                     detail::concat("T", t, " ROB holds ", rob.size(),
                                    " entries, capacity ", rob.capacity()));
        SeqNum prev = 0;
        bool first = true;
        for (const auto &in : rob) {
            if (in->tid != tid)
                violated(core, now, "rob.order",
                         detail::concat("T", t, " ROB holds seq ", in->seq,
                                        " of thread ", in->tid));
            if (!first && in->seq <= prev)
                violated(core, now, "rob.order",
                         detail::concat("T", t, " ROB out of program ",
                                        "order: seq ", in->seq, " after ",
                                        prev));
            prev = in->seq;
            first = false;

            // Residency stamps: still open, in the IQ exactly until it
            // issues, and an FU-latch end exactly when it issued to a unit.
            const bool fu_op = fuTypeFor(in->op) != FuType::None;
            if (in->residency != Residency::Open ||
                in->inIq == in->issued ||
                (in->fuEnd != 0) != (in->issued && fu_op))
                violated(core, now, "rob.residency",
                         detail::concat(
                             "T", t, " seq ", in->seq, " in flight with ",
                             "residency ", static_cast<int>(in->residency),
                             " inIq=", in->inIq, " issued=", in->issued,
                             " fuEnd=", in->fuEnd));
        }
    }
}

void
checkIq(const SmtCore &core, Cycle now)
{
    const MachineConfig &cfg = core.config();
    const IssueQueue &iq = core.issueQueue();
    if (iq.size() > iq.capacity())
        violated(core, now, "iq.occupancy",
                 detail::concat("issue queue holds ", iq.size(),
                                " entries, capacity ", iq.capacity()));

    std::vector<unsigned> per_thread(cfg.contexts, 0);
    SeqNum prev = 0;
    bool first = true;
    for (const auto &in : iq) {
        if (in->tid >= cfg.contexts)
            violated(core, now, "iq.occupancy",
                     detail::concat("issue-queue entry from unknown ",
                                    "thread ", in->tid));
        if (!in->inIq || in->squashed)
            violated(core, now, "iq.occupancy",
                     detail::concat("T", in->tid, " seq ", in->seq,
                                    " resident with inIq=", in->inIq,
                                    " squashed=", in->squashed));
        if (!first && in->globalSeq <= prev)
            violated(core, now, "iq.occupancy",
                     detail::concat("issue queue out of dispatch order: ",
                                    "globalSeq ", in->globalSeq, " after ",
                                    prev));
        prev = in->globalSeq;
        first = false;
        ++per_thread[in->tid];
    }

    unsigned sum = 0;
    for (unsigned t = 0; t < cfg.contexts; ++t) {
        auto tid = static_cast<ThreadId>(t);
        if (per_thread[t] != core.iqOccupancy(tid))
            violated(core, now, "iq.occupancy",
                     detail::concat("T", t, " occupancy counter says ",
                                    core.iqOccupancy(tid), " but ",
                                    per_thread[t], " entries are queued"));
        if (cfg.iqPartitioned &&
            per_thread[t] > cfg.iqSize / cfg.contexts)
            violated(core, now, "iq.occupancy",
                     detail::concat("T", t, " holds ", per_thread[t],
                                    " entries over its static partition ",
                                    "of ", cfg.iqSize / cfg.contexts));
        sum += per_thread[t];
    }
    if (sum != iq.size())
        violated(core, now, "iq.occupancy",
                 detail::concat("per-thread occupancies sum to ", sum,
                                " but the queue holds ", iq.size()));

    // --- iq.ready: exactly the operand-ready entries, oldest first ------
    const PhysRegFile &rf = core.regfileRef();
    const auto &ready = iq.readyList();
    for (std::size_t i = 0; i < ready.size(); ++i) {
        const auto &e = ready[i];
        if (i > 0 && e.globalSeq <= ready[i - 1].globalSeq)
            violated(core, now, "iq.ready",
                     detail::concat("ready list out of age order: ",
                                    "globalSeq ", e.globalSeq, " after ",
                                    ready[i - 1].globalSeq));
        if (e.globalSeq != e.in->globalSeq || e.seq != e.in->seq ||
            e.tid != e.in->tid || e.op != e.in->op)
            violated(core, now, "iq.ready",
                     detail::concat("ready entry globalSeq ", e.globalSeq,
                                    " disagrees with its instruction (T",
                                    e.in->tid, " seq ", e.in->seq, ")"));
    }
    // Wait-list membership each entry should have: one link per unwritten
    // source it needs (stores need only the address; a doubled source
    // waits once).
    std::vector<std::pair<const DynInstr *, RegIndex>> expect;
    std::size_t next_ready = 0;
    for (const DynInstr *in : iq) {
        bool r1 = rf.isReady(in->srcPhys1);
        bool r2 = in->op == OpClass::Store || rf.isReady(in->srcPhys2);
        bool listed = next_ready < ready.size() &&
                      ready[next_ready].in == in;
        if (listed)
            ++next_ready;
        if ((r1 && r2) != listed)
            violated(core, now, "iq.ready",
                     detail::concat("T", in->tid, " seq ", in->seq,
                                    (listed ? " is" : " is not"),
                                    " on the ready list with src1 ",
                                    (r1 ? "written" : "unwritten"),
                                    " and src2 ",
                                    (r2 ? "written/unneeded" : "unwritten")));
        if (!r1)
            expect.emplace_back(in, in->srcPhys1);
        if (!r2 && !(!r1 && in->srcPhys2 == in->srcPhys1))
            expect.emplace_back(in, in->srcPhys2);
    }
    if (next_ready != ready.size())
        violated(core, now, "iq.ready",
                 detail::concat("ready list holds ",
                                ready.size() - next_ready,
                                " entries that are not in the queue"));

    // --- iq.wakeup: every waiting entry is on each unwritten source's
    // wait list exactly once, and nothing else is on any list -----------
    std::vector<std::pair<const DynInstr *, RegIndex>> found;
    for (std::uint32_t p = 0; p < iq.numPhysRegs(); ++p) {
        auto phys = static_cast<RegIndex>(p);
        iq.forEachWaiter(phys, [&](const DynInstr &w) {
            found.emplace_back(&w, phys);
        });
    }
    std::sort(expect.begin(), expect.end());
    std::sort(found.begin(), found.end());
    if (expect != found) {
        auto [e, f] = std::mismatch(expect.begin(), expect.end(),
                                    found.begin(), found.end());
        bool missing = f == found.end() || (e != expect.end() && *e < *f);
        const auto &bad = missing ? *e : *f;
        violated(core, now, "iq.wakeup",
                 detail::concat("T", bad.first->tid, " seq ",
                                bad.first->seq,
                                (missing ? " is missing from"
                                         : " is wrongly or twice on"),
                                " the wait list of physical ",
                                bad.second));
    }
}

void
checkLsq(const SmtCore &core, Cycle now)
{
    const MachineConfig &cfg = core.config();
    for (unsigned t = 0; t < cfg.contexts; ++t) {
        auto tid = static_cast<ThreadId>(t);
        const Lsq &lsq = core.lsq(tid);
        if (lsq.size() > lsq.capacity())
            violated(core, now, "lsq.order",
                     detail::concat("T", t, " LSQ holds ", lsq.size(),
                                    " entries, capacity ", lsq.capacity()));
        SeqNum prev = 0;
        bool first = true;
        for (const auto &in : lsq) {
            if (!in->isMem())
                violated(core, now, "lsq.order",
                         detail::concat("T", t, " LSQ holds non-memory ",
                                        opClassName(in->op), " seq ",
                                        in->seq));
            if (!first && in->seq <= prev)
                violated(core, now, "lsq.order",
                         detail::concat("T", t, " LSQ out of program ",
                                        "order: seq ", in->seq, " after ",
                                        prev));
            prev = in->seq;
            first = false;
        }
        if (lsq.oldestUnissuedStore() != lsq.scanOldestUnissuedStore())
            violated(core, now, "lsq.oldest_store",
                     detail::concat("T", t, " LSQ caches oldest unissued ",
                                    "store seq ", lsq.oldestUnissuedStore(),
                                    " but a scan finds ",
                                    lsq.scanOldestUnissuedStore()));
    }
}

void
checkCommitTotal(const SmtCore &core, Cycle now)
{
    std::uint64_t sum = 0;
    for (unsigned t = 0; t < core.config().contexts; ++t)
        sum += core.committed(static_cast<ThreadId>(t));
    if (core.totalCommitted() != sum)
        violated(core, now, "core.commit_total",
                 detail::concat("running commit total ",
                                core.totalCommitted(),
                                " != per-thread sum ", sum));
}

void
checkMshrs(const SmtCore &core, Cycle now)
{
    for (const auto &d : core.hierarchy().mshrDue()) {
        if (d.due > d.earliestReady)
            violated(core, now, "mem.mshr_due",
                     detail::concat(d.table, " MSHRs are due at cycle ",
                                    d.due, " but an entry is ready at ",
                                    d.earliestReady));
    }
}

void
checkLedger(const SmtCore &core, const AvfLedger &ledger, Cycle now)
{
    for (std::size_t i = 0; i < numHwStructs; ++i) {
        auto s = static_cast<HwStruct>(i);
        std::uint64_t bits = ledger.structureBits(s);
        if (bits == 0)
            continue;
        std::uint64_t occupied =
            ledger.aceBitCycles(s) + ledger.unAceBitCycles(s);
        std::uint64_t capacity = bits * now;
        if (occupied > capacity)
            violated(core, now, "ledger.accounting",
                     detail::concat(hwStructName(s), " accounts ",
                                    occupied, " occupied bit-cycles but ",
                                    "only ", capacity,
                                    " existed (bits ", bits, " x ", now,
                                    " cycles)"));

        // Protection partition: the covered and residual tallies are
        // accumulated independently of the ACE total, so their sum
        // conserving against it (per thread, hence in aggregate) is a
        // real cross-check of the coverage math, not a tautology. An
        // unprotected structure must show zero covered bit-cycles.
        for (unsigned t = 0; t < ledger.numThreads(); ++t) {
            auto tid = static_cast<ThreadId>(t);
            std::uint64_t ace = ledger.aceBitCycles(s, tid);
            std::uint64_t covered = ledger.coveredAceBitCycles(s, tid);
            std::uint64_t residual = ledger.residualAceBitCycles(s, tid);
            if (covered + residual != ace)
                violated(core, now, "ledger.protection",
                         detail::concat(hwStructName(s), " T", t,
                                        ": covered ", covered,
                                        " + residual ", residual,
                                        " != ACE total ", ace));
            if (ledger.protection().schemeFor(s) == ProtScheme::None &&
                covered != 0)
                violated(core, now, "ledger.protection",
                         detail::concat(hwStructName(s), " T", t,
                                        " is unprotected but shows ",
                                        covered, " covered bit-cycles"));
        }
    }
}

} // namespace

void
checkInvariants(const SmtCore &core, const AvfLedger &ledger, Cycle now)
{
    checkRegfile(core, now);
    checkRob(core, now);
    checkIq(core, now);
    checkLsq(core, now);
    checkCommitTotal(core, now);
    checkMshrs(core, now);
    checkLedger(core, ledger, now);
}

} // namespace smtavf
