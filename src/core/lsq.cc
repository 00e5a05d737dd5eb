#include "core/lsq.hh"

#include "base/logging.hh"

namespace smtavf
{

Lsq::Lsq(std::uint32_t capacity)
    : capacity_(capacity), entries_(capacity)
{
    if (capacity == 0)
        SMTAVF_FATAL("LSQ capacity must be positive");
}

void
Lsq::push(const InstPtr &in)
{
    if (full())
        SMTAVF_PANIC("push into a full LSQ");
    if (!in->isMem())
        SMTAVF_PANIC("non-memory instruction pushed into the LSQ");
    entries_.push_back(in);
    if (in->op == OpClass::Store && !in->issued &&
        oldestUnissuedStore_ == noStore)
        oldestUnissuedStore_ = in->seq;
}

void
Lsq::popCommitted(const InstPtr &in)
{
    if (entries_.empty() || entries_.front() != in)
        SMTAVF_PANIC("LSQ commit out of order");
    entries_.pop_front();
}

void
Lsq::squashAfter(SeqNum seq)
{
    while (!entries_.empty() && entries_.back()->seq > seq)
        entries_.pop_back();
    // If the cached store was squashed, so was every younger one.
    if (oldestUnissuedStore_ != noStore && oldestUnissuedStore_ > seq)
        oldestUnissuedStore_ = noStore;
}

void
Lsq::markIssued(DynInstr &store)
{
    store.issued = true;
    if (store.seq == oldestUnissuedStore_)
        oldestUnissuedStore_ = scanOldestUnissuedStore();
}

SeqNum
Lsq::scanOldestUnissuedStore() const
{
    for (const auto &e : entries_)
        if (e->op == OpClass::Store && !e->issued)
            return e->seq;
    return noStore;
}

} // namespace smtavf
