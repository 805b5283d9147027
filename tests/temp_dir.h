/**
 * @file
 * Per-test, per-process scratch directories.
 *
 * ctest -j runs every test as its own concurrent process, so a fixed
 * directory name under ::testing::TempDir() would let one process's
 * cleanup wipe another's files (a second copy of the suite, or a
 * fixture shared by several tests). freshTempDir() names the
 * directory after the running test and the process id instead.
 */

#ifndef BFGTS_TESTS_TEMP_DIR_H
#define BFGTS_TESTS_TEMP_DIR_H

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include <unistd.h>

namespace testutil {

/**
 * An empty directory TempDir()/<suite>.<test>.<pid>, created after
 * removing anything left there. The caller removes it when done.
 */
inline std::string
freshTempDir()
{
    const ::testing::TestInfo *test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir())
        / (std::string(test->test_suite_name()) + "." + test->name()
           + "." + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

} // namespace testutil

#endif // BFGTS_TESTS_TEMP_DIR_H
