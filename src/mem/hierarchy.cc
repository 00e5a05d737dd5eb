#include "mem/hierarchy.hh"

#include <algorithm>

#include "base/logging.hh"

namespace smtavf
{

MemHierarchy::MemHierarchy(const MemConfig &cfg)
    : cfg_(cfg), il1_(cfg.il1), dl1_(cfg.dl1), l2_(cfg.l2),
      itlb_(cfg.itlb), dtlb_(cfg.dtlb),
      mshrPool_(std::make_shared<SlabPool>()),
      il1Mshrs_(mshrPool_), dl1Mshrs_(mshrPool_), l2Mshrs_(mshrPool_)
{
    // NOTE: do not reserve() these maps. drainMshrs replays fills in map
    // iteration order, which depends on the bucket count — changing it
    // reorders same-cycle ledger writes and perturbs the floating-point
    // AVF sums. Outstanding misses stay far below the default bucket
    // count anyway, so the maps never rehash in steady state.
}

void
MemHierarchy::reset()
{
    il1_.reset();
    dl1_.reset();
    l2_.reset();
    itlb_.reset();
    dtlb_.reset();
    il1Mshrs_ = MshrTable(mshrPool_);
    dl1Mshrs_ = MshrTable(mshrPool_);
    l2Mshrs_ = MshrTable(mshrPool_);
}

std::array<MemHierarchy::MshrDue, 3>
MemHierarchy::mshrDue() const
{
    auto earliest = [](const MshrTable &t) {
        Cycle e = noneDue;
        for (const auto &kv : t.map)
            e = std::min(e, kv.second.ready);
        return e;
    };
    return {{{"l2", l2Mshrs_.due, earliest(l2Mshrs_)},
             {"il1", il1Mshrs_.due, earliest(il1Mshrs_)},
             {"dl1", dl1Mshrs_.due, earliest(dl1Mshrs_)}}};
}

void
MemHierarchy::debugCorruptMshrDue(std::size_t table, Cycle due)
{
    MshrTable *tables[] = {&l2Mshrs_, &il1Mshrs_, &dl1Mshrs_};
    tables[table]->due = due;
}

Cycle
MemHierarchy::accessL2(ThreadId tid, Addr addr, Cycle now, bool &l2_miss)
{
    if (l2_.access(addr, 1, false, tid, now)) {
        l2_miss = false;
        return now + cfg_.l2.latency;
    }

    l2_miss = true;
    Addr l2_line = l2_.lineAddr(addr);
    auto it = l2Mshrs_.map.find(l2_line);
    if (it != l2Mshrs_.map.end())
        return it->second.ready;

    Cycle ready = now + cfg_.memLatency;
    l2Mshrs_.add(l2_line, Mshr{ready, true, tid, {}});
    return ready;
}

MemOutcome
MemHierarchy::accessL1(Cache &l1, MshrTable &mshrs, ThreadId tid,
                       Addr addr, std::uint32_t size, bool is_write,
                       Cycle now)
{
    MemOutcome out;
    if (l1.access(addr, size, is_write, tid, now)) {
        out.ready = now + l1.config().latency;
        return out;
    }

    out.l1Miss = true;
    Addr line = l1.lineAddr(addr);
    auto it = mshrs.map.find(line);
    if (it != mshrs.map.end()) {
        // Merge into the outstanding miss.
        out.ready = it->second.ready;
        out.l2Miss = it->second.l2Miss;
        it->second.ops.push_back({is_write, addr, size, tid});
        return out;
    }

    bool l2_miss = false;
    Cycle ready = accessL2(tid, addr, now, l2_miss);
    out.ready = ready;
    out.l2Miss = l2_miss;
    Mshr mshr;
    mshr.ready = ready;
    mshr.l2Miss = l2_miss;
    mshr.tid = tid;
    mshr.ops.push_back({is_write, addr, size, tid});
    mshrs.add(line, std::move(mshr));
    return out;
}

MemOutcome
MemHierarchy::load(ThreadId tid, Addr addr, std::uint32_t size, Cycle now)
{
    std::uint32_t tlb_penalty = dtlb_.access(addr, tid, now);
    MemOutcome out = accessL1(dl1_, dl1Mshrs_, tid, addr, size, false, now);
    if (tlb_penalty) {
        out.tlbMiss = true;
        out.ready += tlb_penalty;
    }
    return out;
}

std::uint32_t
MemHierarchy::translateData(ThreadId tid, Addr addr, Cycle now)
{
    return dtlb_.access(addr, tid, now);
}

MemOutcome
MemHierarchy::storeCommit(ThreadId tid, Addr addr, std::uint32_t size,
                          Cycle now)
{
    return accessL1(dl1_, dl1Mshrs_, tid, addr, size, true, now);
}

MemOutcome
MemHierarchy::fetch(ThreadId tid, Addr pc, Cycle now)
{
    std::uint32_t tlb_penalty = itlb_.access(pc, tid, now);
    MemOutcome out = accessL1(il1_, il1Mshrs_, tid, pc, 4, false, now);
    if (tlb_penalty) {
        out.tlbMiss = true;
        out.ready += tlb_penalty;
    }
    return out;
}

void
MemHierarchy::drainMshrs(Cache &l1, MshrTable &mshrs, Cycle now, bool force)
{
    if (!force && now < mshrs.due)
        return;
    Cycle due = noneDue;
    for (auto it = mshrs.map.begin(); it != mshrs.map.end();) {
        if (force || it->second.ready <= now) {
            Cycle land = std::min(it->second.ready, now);
            l1.fill(it->first, it->second.tid, land);
            for (const auto &op : it->second.ops) {
                bool hit [[maybe_unused]] =
                    l1.access(op.addr, op.size, op.isWrite, op.tid, land);
            }
            it = mshrs.map.erase(it);
        } else {
            due = std::min(due, it->second.ready);
            ++it;
        }
    }
    mshrs.due = due;
}

void
MemHierarchy::tick(Cycle now)
{
    // L2 fills must land before L1 fills that depend on them; both maps are
    // drained by ready time, and L1 ready times are never earlier than the
    // corresponding L2 fill, so draining L2 first suffices.
    if (now >= l2Mshrs_.due) {
        Cycle due = noneDue;
        for (auto it = l2Mshrs_.map.begin(); it != l2Mshrs_.map.end();) {
            if (it->second.ready <= now) {
                l2_.fill(it->first, it->second.tid, it->second.ready);
                it = l2Mshrs_.map.erase(it);
            } else {
                due = std::min(due, it->second.ready);
                ++it;
            }
        }
        l2Mshrs_.due = due;
    }
    drainMshrs(il1_, il1Mshrs_, now, false);
    drainMshrs(dl1_, dl1Mshrs_, now, false);
}

void
MemHierarchy::finalize(Cycle now)
{
    for (auto &kv : l2Mshrs_.map)
        l2_.fill(kv.first, kv.second.tid, now);
    l2Mshrs_.map.clear();
    l2Mshrs_.due = noneDue;
    drainMshrs(il1_, il1Mshrs_, now, true);
    drainMshrs(dl1_, dl1Mshrs_, now, true);
    dl1_.flushAll(now);
    il1_.flushAll(now);
    itlb_.flushAll(now);
    dtlb_.flushAll(now);
}

} // namespace smtavf
