/**
 * @file
 * InstrPool: recycling allocator for in-flight dynamic instructions.
 *
 * Every dynamic instruction used to cost one global-heap round trip
 * (std::make_shared at fetch, free at last release). The pool carves
 * DynInstr records from a per-core SlabPool instead, so a committed or
 * squashed instruction's slot is reused by a later fetch without
 * touching the global allocator. There is no separate control block:
 * the reference count lives in the record (DynInstr::ref, see InstPtr).
 *
 * Correctness notes:
 *  - create() builds the full DynInstr from the generator's template
 *    record, with every pipeline field at its default, so every field of
 *    a recycled slot is overwritten — no state can leak from the
 *    previous occupant.
 *  - Every handle must drop before its pool dies. The core declares its
 *    pool ahead of every owner, so its own queues release first; a run's
 *    CommitTrace copies its records out at finalize() and holds no
 *    handles past the run. A handle that still outlived its pool would
 *    be a use-after-free, so the destructor aborts instead.
 */

#ifndef SMTAVF_ISA_INSTR_POOL_HH
#define SMTAVF_ISA_INSTR_POOL_HH

#include <cstdio>
#include <cstdlib>
#include <new>

#include "base/pool_alloc.hh"
#include "isa/instr.hh"

namespace smtavf
{

/** Per-core factory recycling DynInstr storage through a SlabPool. */
class InstrPool
{
  public:
    InstrPool() = default;
    InstrPool(const InstrPool &) = delete;
    InstrPool &operator=(const InstrPool &) = delete;

    ~InstrPool()
    {
        if (slabs_.liveBlocks() != 0) {
            std::fprintf(stderr,
                         "InstrPool destroyed with %zu live instructions\n",
                         slabs_.liveBlocks());
            std::abort();
        }
    }

    /** Materialise a pooled instruction from template @p proto. */
    InstPtr
    create(const InstrTemplate &proto)
    {
        void *mem = slabs_.allocate(sizeof(DynInstr), alignof(DynInstr));
        auto *in = new (mem) DynInstr(proto);
        in->ref.pool = this;
        return InstPtr(in);
    }

    /** Destroy a record whose last handle dropped (releaseInstr). */
    void
    destroy(DynInstr *in) noexcept
    {
        in->~DynInstr();
        slabs_.deallocate(in, sizeof(DynInstr), alignof(DynInstr));
    }

  private:
    SlabPool slabs_;
};

} // namespace smtavf

#endif // SMTAVF_ISA_INSTR_POOL_HH
