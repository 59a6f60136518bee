#ifndef EXO2_UTIL_ENV_H_
#define EXO2_UTIL_ENV_H_

/**
 * @file
 * One audited path for reading configuration from the environment.
 *
 * Every `EXO2_*` knob used to be parsed at its point of use with a
 * bare `atoi`/`atof`, which silently mapped typos ("2O" -> 2, "" -> 0)
 * onto surprising defaults. These helpers centralize the rules:
 *
 *  - unset or empty variables return the caller's fallback;
 *  - set variables must parse *completely* (no trailing junk) and lie
 *    inside the caller's declared range, or a ConfigError is thrown
 *    whose message names the variable, the offending value, and the
 *    accepted range — a misconfigured worker fails loudly at startup
 *    instead of running with a nonsense limit.
 *
 * Knobs consolidated here: EXO2_CJIT_TIMEOUT, EXO2_SANDBOX_WALL,
 * EXO2_SANDBOX, EXO2_TUNE_* (beam/rounds/restarts/topk/seed/verbose),
 * EXO2_CACHE_DIR, EXO2_VERBOSE_DOWNGRADES, the JIT's CC, and the
 * EXO2_SERVE_* family (workers, queue, deadline). EXO2_FAULTS keeps
 * its own structured parser
 * (sandbox.h: parse_fault_spec) and EXO2_NATIVE_ISA its enum
 * validation (cjit.h), both already strict.
 */

#include <cstdint>
#include <string>

namespace exo2 {
namespace util {

/**
 * Integer knob. Unset/empty -> `fallback`. Set -> must be a full
 * decimal integer in [min, max], else ConfigError.
 */
int64_t env_int(const char* name, int64_t fallback, int64_t min,
                int64_t max);

/**
 * Floating-point knob (seconds, probabilities, ...). Unset/empty ->
 * `fallback`. Set -> must parse fully and lie in [min, max], else
 * ConfigError.
 */
double env_double(const char* name, double fallback, double min,
                  double max);

/**
 * Boolean knob. Unset/empty -> `fallback`. Accepts 0/1, on/off,
 * true/false, yes/no (case-insensitive); anything else throws
 * ConfigError.
 */
bool env_flag(const char* name, bool fallback);

/** String knob: unset or empty -> `fallback` (no validation). */
std::string env_string(const char* name, const std::string& fallback);

}  // namespace util
}  // namespace exo2

#endif  // EXO2_UTIL_ENV_H_
