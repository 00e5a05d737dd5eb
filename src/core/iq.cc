#include "core/iq.hh"

#include "base/logging.hh"

namespace smtavf
{

IssueQueue::IssueQueue(std::uint32_t capacity, std::uint32_t num_phys_regs)
    : capacity_(capacity), slots_(capacity), nodes_(2 * std::size_t{capacity}),
      waitHead_(num_phys_regs, none)
{
    if (capacity == 0)
        SMTAVF_FATAL("IQ capacity must be positive");
    if (capacity > 0xffff)
        SMTAVF_FATAL("IQ capacity ", capacity, " exceeds 65535 slots");
    freeSlots_.reserve(capacity);
    ready_.reserve(capacity);
    reset();
}

void
IssueQueue::reset()
{
    size_ = 0;
    head_ = tail_ = none;
    slots_.assign(slots_.size(), Slot{});
    nodes_.assign(nodes_.size(), WaitNode{});
    waitHead_.assign(waitHead_.size(), none);
    ready_.clear();
    // Pop from the back: slot 0 is handed out first.
    freeSlots_.clear();
    for (std::uint32_t i = capacity_; i > 0; --i)
        freeSlots_.push_back(static_cast<std::int32_t>(i - 1));
}

void
IssueQueue::insert(const InstPtr &in, bool src1_ready, bool src2_ready)
{
    if (full())
        SMTAVF_PANIC("insert into a full IQ");
    if (tail_ != none && slots_[tail_].in->globalSeq >= in->globalSeq)
        SMTAVF_PANIC("IQ insert out of global dispatch order");

    std::int32_t s = freeSlots_.back();
    freeSlots_.pop_back();
    Slot &slot = slots_[s];
    slot.in = in.get();
    slot.prev = tail_;
    slot.next = none;
    slot.waiting = 0;
    if (tail_ != none)
        slots_[tail_].next = s;
    else
        head_ = s;
    tail_ = s;
    ++size_;
    in->inIq = true;
    in->iqSlot = static_cast<std::uint16_t>(s);

    if (!src1_ready) {
        linkWait(2 * s, in->srcPhys1);
        ++slot.waiting;
    }
    // A store issues (generates its address) once src1 is written; its
    // data only has to arrive by commit, which in-order commit of the
    // older producer guarantees. A source named twice waits once.
    if (in->op != OpClass::Store && !src2_ready &&
        !(!src1_ready && in->srcPhys2 == in->srcPhys1)) {
        linkWait(2 * s + 1, in->srcPhys2);
        ++slot.waiting;
    }
    if (slot.waiting == 0)
        ready_.push_back({in->globalSeq, in->seq, in.get(), in->tid, in->op});
}

void
IssueQueue::remove(const InstPtr &in)
{
    std::int32_t s = in->iqSlot;
    if (!in->inIq || static_cast<std::uint32_t>(s) >= capacity_ ||
        slots_[s].in != in.get())
        SMTAVF_PANIC("removing an instruction not in the IQ");
    if (slots_[s].waiting > 0) {
        unlinkWait(2 * s);
        unlinkWait(2 * s + 1);
    } else {
        auto it = std::lower_bound(
            ready_.begin(), ready_.end(), in->globalSeq,
            [](const ReadyEntry &e, SeqNum g) { return e.globalSeq < g; });
        ready_.erase(it);
    }
    release(*in);
}

void
IssueQueue::release(DynInstr &in)
{
    std::int32_t s = in.iqSlot;
    Slot &slot = slots_[s];
    if (slot.prev != none)
        slots_[slot.prev].next = slot.next;
    else
        head_ = slot.next;
    if (slot.next != none)
        slots_[slot.next].prev = slot.prev;
    else
        tail_ = slot.prev;
    slot = Slot{};
    freeSlots_.push_back(s);
    --size_;
    in.inIq = false;
}

void
IssueQueue::wakeup(RegIndex phys)
{
    std::int32_t n = waitHead_[phys];
    waitHead_[phys] = none;
    while (n != none) {
        WaitNode &w = nodes_[n];
        std::int32_t next = w.next;
        w = WaitNode{};
        Slot &slot = slots_[n >> 1];
        if (--slot.waiting == 0)
            makeReady(*slot.in);
        n = next;
    }
}

void
IssueQueue::makeReady(DynInstr &in)
{
    auto it = std::upper_bound(
        ready_.begin(), ready_.end(), in.globalSeq,
        [](SeqNum g, const ReadyEntry &e) { return g < e.globalSeq; });
    ready_.insert(it, {in.globalSeq, in.seq, &in, in.tid, in.op});
}

void
IssueQueue::linkWait(std::int32_t node, RegIndex phys)
{
    WaitNode &w = nodes_[node];
    w.reg = phys;
    w.prev = none;
    w.next = waitHead_[phys];
    if (w.next != none)
        nodes_[w.next].prev = node;
    waitHead_[phys] = node;
}

void
IssueQueue::unlinkWait(std::int32_t node)
{
    WaitNode &w = nodes_[node];
    if (w.reg == invalidReg)
        return;
    if (w.prev != none)
        nodes_[w.prev].next = w.next;
    else
        waitHead_[w.reg] = w.next;
    if (w.next != none)
        nodes_[w.next].prev = w.prev;
    w = WaitNode{};
}

} // namespace smtavf
