/**
 * @file
 * A test's scratch directory under the system temp dir (TMPDIR).
 *
 * The guard creates the directory empty and removes it, with all it
 * holds, when it goes out of scope: at the end of the test, after an
 * ASSERT_* returns early, or while an exception unwinds. A forked
 * child that leaves through _exit() runs no destructors, so only the
 * parent removes it.
 */

#ifndef RRM_TESTS_TEST_TEMP_DIR_HH
#define RRM_TESTS_TEST_TEMP_DIR_HH

#include <filesystem>
#include <string>
#include <system_error>

#include <unistd.h>

namespace rrm::test
{

class TempDir
{
  public:
    /** `rrm_test_<name>_<pid>`: the pid keeps parallel ctest runs apart. */
    explicit TempDir(const std::string &name)
        : path_(std::filesystem::temp_directory_path() /
                ("rrm_test_" + name + "_" + std::to_string(::getpid())))
    {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }

    ~TempDir()
    {
        std::error_code ignored; // a destructor must not throw
        std::filesystem::remove_all(path_, ignored);
    }

    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    operator const std::filesystem::path &() const { return path_; }

    std::string string() const { return path_.string(); }

    std::filesystem::path
    operator/(const std::filesystem::path &leaf) const
    {
        return path_ / leaf;
    }

  private:
    std::filesystem::path path_;
};

} // namespace rrm::test

#endif // RRM_TESTS_TEST_TEMP_DIR_HH
