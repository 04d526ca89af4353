/**
 * @file
 * Status and error reporting in the gem5 style.
 *
 * panic()  -- an internal invariant was violated (a simulator bug);
 *             aborts so a debugger or core dump can catch it.
 * fatal()  -- the simulation cannot continue because of a user error
 *             (bad configuration, invalid argument); exits cleanly.
 * warn()   -- something is off but the run can proceed.
 */

#ifndef TOLEO_COMMON_LOGGING_HH
#define TOLEO_COMMON_LOGGING_HH

#include <cstdarg>
#include <string>

namespace toleo {

/** Report a simulator bug and abort. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report a user error and exit(1). */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report a recoverable problem. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace toleo

#endif // TOLEO_COMMON_LOGGING_HH
