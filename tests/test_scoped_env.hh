/**
 * @file
 * One environment variable set for a test's scope.
 *
 * The guard sets the variable and, when it goes out of scope (at the
 * end of the test, after an ASSERT_* returns early, or while an
 * exception unwinds), puts back the value it replaced, or unsets it if
 * there was none. So a test that pins SOURCE_DATE_EPOCH cannot leak it
 * into the tests after it when a whole binary runs in one process.
 */

#ifndef RRM_TESTS_TEST_SCOPED_ENV_HH
#define RRM_TESTS_TEST_SCOPED_ENV_HH

#include <cstdlib>
#include <optional>
#include <string>

namespace rrm::test
{

class ScopedEnv
{
  public:
    ScopedEnv(std::string name, const std::string &value)
        : name_(std::move(name))
    {
        if (const char *old = std::getenv(name_.c_str()))
            old_ = old;
        ::setenv(name_.c_str(), value.c_str(), 1);
    }

    ~ScopedEnv()
    {
        if (old_)
            ::setenv(name_.c_str(), old_->c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }

    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    std::string name_;
    std::optional<std::string> old_;
};

} // namespace rrm::test

#endif // RRM_TESTS_TEST_SCOPED_ENV_HH
