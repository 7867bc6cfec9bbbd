// Failpoints — runtime fault injection for robustness testing.
//
// A failpoint is a named site in production code that can be armed to
// "fire" (report true) on a configurable schedule. Production code asks
// `CORRA_FAILPOINT("corf.pread.eio")` at the site and injects its fault
// (a synthetic errno, a flipped byte, an early error return) only when
// the site fires. With nothing armed, a site costs one relaxed atomic
// load.
//
// Trigger specs (string grammar, used by Configure and the env):
//   "off"             never fires (parks the site but keeps its stats)
//   "prob:P"          fires each evaluation with probability P in [0,1]
//   "prob:P:SEED"     same, with an explicit RNG seed (deterministic
//                     schedules for the chaos soak)
//   "every:N"         fires every Nth evaluation (N >= 1)
//   "times:N"         fires the first N evaluations, then never again
//
// Configuration sources, later wins per site:
//   * the CORRA_FAILPOINTS environment variable, parsed once on first
//     use: "site=spec;site2=spec" (e.g.
//     CORRA_FAILPOINTS="corf.pread.eio=prob:0.01;cache.load_error=every:7")
//   * programmatic Configure()/ScopedFailpoint (tests).
//
// Sites are evaluated under a mutex — firing schedules stay exact under
// concurrency — but only *armed* sites ever reach that mutex. The fast
// path for an unarmed process is a single relaxed load of the global
// armed-site count, mirroring obs::Enabled().
//
// This framework is a testing tool: arming failpoints in production
// serving processes is not supported (the per-evaluation mutex on armed
// sites is deliberate, favoring exact schedules over hot-path speed).

#ifndef CORRA_COMMON_FAILPOINT_H_
#define CORRA_COMMON_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace corra::fail {

namespace internal {
/// Number of armed sites; -1 until CORRA_FAILPOINTS has been parsed.
/// One relaxed load of this gates every site in the process.
extern std::atomic<int> g_armed;
/// Slow path: parses the env on first use, then evaluates `site`
/// against the armed table (exact schedules, under a mutex).
bool EvaluateSlow(const char* site);
}  // namespace internal

/// Evaluates the site: true when the site is armed and its trigger
/// fires this evaluation. Production code calls this through
/// CORRA_FAILPOINT.
[[nodiscard]] inline bool Triggered(const char* site) {
  if (internal::g_armed.load(std::memory_order_relaxed) == 0) {
    return false;  // Nothing armed anywhere: the common (release) case.
  }
  return internal::EvaluateSlow(site);
}

/// Arms `site` with trigger `spec` (grammar above), replacing any prior
/// trigger and resetting the site's counters. InvalidArgument on a
/// malformed spec.
Status Configure(std::string_view site, std::string_view spec);

/// Arms every "site=spec" pair in `config` (';'-separated, the
/// CORRA_FAILPOINTS grammar). Stops at the first malformed pair.
Status ConfigureFromString(std::string_view config);

/// Disarms one site / every site. Counters are discarded.
void Clear(std::string_view site);
void ClearAll();

/// Times the site was evaluated / fired since it was (re)configured.
/// 0 for unknown sites.
[[nodiscard]] uint64_t Evaluations(std::string_view site);
[[nodiscard]] uint64_t Fires(std::string_view site);

/// RAII arming for tests: configures on construction, clears the site
/// on destruction. A malformed spec is surfaced via status().
class ScopedFailpoint {
 public:
  ScopedFailpoint(std::string_view site, std::string_view spec)
      : site_(site), status_(Configure(site, spec)) {}
  ~ScopedFailpoint() { Clear(site_); }
  ScopedFailpoint(const ScopedFailpoint&) = delete;
  ScopedFailpoint& operator=(const ScopedFailpoint&) = delete;

  [[nodiscard]] const Status& status() const { return status_; }

 private:
  std::string site_;
  Status status_;
};

}  // namespace corra::fail

/// Site check for production code. Reads as a condition:
///   if (CORRA_FAILPOINT("corf.pread.eio")) { inject EIO; }
#define CORRA_FAILPOINT(site) (::corra::fail::Triggered(site))

#endif  // CORRA_COMMON_FAILPOINT_H_
