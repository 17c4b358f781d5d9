#ifndef CATAPULT_UTIL_FAILPOINT_H_
#define CATAPULT_UTIL_FAILPOINT_H_

#include <cstddef>
#include <string>

// Deterministic failpoint-style fault injection (the rocksdb/etcd idiom).
// Code declares named sites via CATAPULT_FAILPOINT("some.site"); tests arm a
// site to force its failure path (deadline expiry, budget exhaustion, parse
// failure) and assert that the degradation ladder actually engages.
//
// Fast path: when nothing is armed, a site costs one relaxed atomic load of
// a global counter.

namespace catapult::failpoint {

// Arms `site`: its next `count` evaluations fire (count < 0 = fire on every
// evaluation until disarmed). Re-arming resets the count and hit counter.
void Arm(const std::string& site, long count = -1);

// Disarms `site`; evaluations no longer fire. Hit counts survive until the
// site is re-armed (so tests can disarm, then assert).
void Disarm(const std::string& site);

// Disarms every site and clears all hit counts.
void DisarmAll();

// Number of times `site` fired since it was last armed.
size_t HitCount(const std::string& site);

// True when at least one site is armed (the fast-path gate).
bool AnyArmed();

// Evaluates `site`: true iff armed with firings remaining (consumes one).
// Use the CATAPULT_FAILPOINT macro instead of calling this directly.
bool Evaluate(const char* site);

// RAII arming for tests: arms in the constructor, disarms in the destructor.
class ScopedFailpoint {
 public:
  explicit ScopedFailpoint(std::string site, long count = -1);
  ~ScopedFailpoint();
  ScopedFailpoint(const ScopedFailpoint&) = delete;
  ScopedFailpoint& operator=(const ScopedFailpoint&) = delete;

 private:
  std::string site_;
};

}  // namespace catapult::failpoint

#define CATAPULT_FAILPOINT(site)            \
  (::catapult::failpoint::AnyArmed() &&     \
   ::catapult::failpoint::Evaluate(site))

#endif  // CATAPULT_UTIL_FAILPOINT_H_
