/**
 * @file
 * Unit tests for the logging/report helpers.
 *
 * warn() writes a printf-formatted line to stderr; panic() aborts
 * and fatal() exits(1).  These are the error paths everything else
 * leans on (every accessor guard in Json, every config check), so
 * their contracts -- tag prefix, formatting, and the two distinct
 * termination modes -- get pinned here.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/logging.hh"

using namespace toleo;

namespace {

/** Run @p fn with stderr captured; returns what it wrote. */
template <typename Fn>
std::string
captureStderr(Fn &&fn)
{
    ::testing::internal::CaptureStderr();
    fn();
    return ::testing::internal::GetCapturedStderr();
}

} // namespace

TEST(Logging, WarnIsTaggedAndFormatted)
{
    const std::string out = captureStderr(
        [] { warn("bad value %d in %s", 7, "cfg"); });
    EXPECT_EQ(out, "warn: bad value 7 in cfg\n");
}

TEST(LoggingDeath, PanicAbortsWithTaggedMessage)
{
    EXPECT_DEATH(panic("invariant %s broke", "X"),
                 "panic: invariant X broke");
}

TEST(LoggingDeath, FatalExitsWithStatusOne)
{
    // fatal() is a clean exit(1), not an abort -- callers rely on the
    // distinction (fatal for user error, panic for internal bugs).
    EXPECT_EXIT(fatal("no such file %s", "a.json"),
                ::testing::ExitedWithCode(1),
                "fatal: no such file a.json");
}
