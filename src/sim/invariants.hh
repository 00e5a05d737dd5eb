/**
 * @file
 * End-of-cycle machine-state invariant checker.
 *
 * A soft-error *study* lives and dies by the integrity of its simulator's
 * bookkeeping: a leaked physical register or an over-counted AVF interval
 * does not crash anything — it silently skews every AVF number downstream.
 * This pass validates the cross-structure consistency properties the
 * pipeline maintains by construction and raises a structured
 * InvariantError (sim/errors.hh) the cycle they first fail, so a
 * corrupted run lands in the campaign's retry/quarantine path instead of
 * contributing poisoned results.
 *
 * Checked invariants (names appear in InvariantError::invariant):
 *
 *  - regfile.freelist      free-list sizes match the free counters; every
 *                          free entry is in its bank's index range, not
 *                          marked allocated, and listed exactly once
 *  - regfile.conservation  every allocated physical register is reachable
 *                          as exactly one rename-map entry or exactly one
 *                          in-flight instruction's displaced old mapping,
 *                          and nothing else is allocated
 *  - rename.mapping        every rename-map entry points at an allocated
 *                          register of the correct bank
 *  - rob.order             per-thread program order (strictly increasing
 *                          seq) and occupancy <= capacity
 *  - rob.residency         every ROB entry's residency is still open, it
 *                          sits in the IQ exactly until it issues, and it
 *                          has an FU-latch end exactly when it issued to
 *                          a function unit
 *  - iq.occupancy          shared-queue occupancy <= capacity, entries in
 *                          global dispatch order, per-thread occupancy
 *                          counters consistent, partition bound respected
 *                          when MachineConfig::iqPartitioned
 *  - iq.ready              the ready list is age-sorted and holds exactly
 *                          the entries whose needed sources are written
 *  - iq.wakeup             every other entry sits once on the wait list
 *                          of each unwritten source it needs, and no
 *                          list holds anything else
 *  - lsq.order             per-thread LSQ holds only memory instructions,
 *                          in program order, occupancy <= capacity
 *  - lsq.oldest_store      each LSQ's cached oldest unissued store equals
 *                          a fresh scan
 *  - core.commit_total     the running commit total equals the sum of
 *                          the per-thread commit counters
 *  - mem.mshr_due          no MSHR table's due cycle is later than its
 *                          earliest ready entry
 *  - ledger.accounting     per structure, accumulated ACE + un-ACE
 *                          bit-cycles never exceed capacity x elapsed
 *                          cycles (bit conservation)
 *
 * Enabled via MachineConfig::invariantCheckCycles (the check period); the
 * test suite turns it on for every simulation through the
 * SMTAVF_INVARIANTS environment variable.
 */

#ifndef SMTAVF_SIM_INVARIANTS_HH
#define SMTAVF_SIM_INVARIANTS_HH

#include "base/types.hh"

namespace smtavf
{

class SmtCore;
class AvfLedger;

/**
 * Validate the machine state at the end of cycle @p now; throws
 * InvariantError on the first violation found.
 */
void checkInvariants(const SmtCore &core, const AvfLedger &ledger,
                     Cycle now);

} // namespace smtavf

#endif // SMTAVF_SIM_INVARIANTS_HH
