/**
 * @file
 * RAII environment variable for the tests that drive SILC_* knobs.
 */

#ifndef SILC_TESTS_SCOPED_ENV_HH
#define SILC_TESTS_SCOPED_ENV_HH

#include <cstdlib>

/** Sets @p name to @p value until destruction, then unsets it. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        ::setenv(name, value, 1);
    }
    ~ScopedEnv() { ::unsetenv(name_); }

    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    const char *name_;
};

#endif // SILC_TESTS_SCOPED_ENV_HH
