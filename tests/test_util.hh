/**
 * @file
 * Shared test helpers: RAII guard that turns panic()/fatal() into thrown
 * SimError so death paths are testable in-process, and a source of
 * stand-alone instruction handles.
 */

#ifndef SMTAVF_TESTS_TEST_UTIL_HH
#define SMTAVF_TESTS_TEST_UTIL_HH

#include "base/logging.hh"
#include "isa/instr_pool.hh"

namespace smtavf
{

/** While alive, SMTAVF_PANIC/SMTAVF_FATAL throw SimError. */
class ThrowGuard
{
  public:
    ThrowGuard() { setLoggingThrows(true); }
    ~ThrowGuard() { setLoggingThrows(false); }
    ThrowGuard(const ThrowGuard &) = delete;
    ThrowGuard &operator=(const ThrowGuard &) = delete;
};

/**
 * A default-constructed instruction for unit tests that build pipeline
 * structures by hand. Its pool is never destroyed, so a test may hold the
 * handle as long as it likes.
 */
inline InstPtr
newTestInstr()
{
    static InstrPool &pool = *new InstrPool;
    return pool.create(DynInstr{});
}

} // namespace smtavf

#endif // SMTAVF_TESTS_TEST_UTIL_HH
