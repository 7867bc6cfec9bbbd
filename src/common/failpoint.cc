#include "common/failpoint.h"

#include <cstdlib>
#include <map>

#include "common/mutex.h"
#include "common/random.h"

namespace corra::fail {

namespace {

enum class Mode { kOff, kProb, kEvery, kTimes };

struct Site {
  Mode mode = Mode::kOff;
  double prob = 0.0;     // kProb
  uint64_t n = 0;        // kEvery period / kTimes budget
  Rng rng{0};            // kProb; seeded at Configure for determinism
  uint64_t evaluations = 0;
  uint64_t fires = 0;
};

struct Table {
  Mutex mu;
  // less<> so string_view lookups don't allocate.
  std::map<std::string, Site, std::less<>> sites CORRA_GUARDED_BY(mu);
};

Table& GetTable() {
  static Table* table = new Table();  // Leaked: sites may be evaluated
  return *table;                      // during static destruction.
}

// Parses "mode[:arg[:seed]]" into *site. The caller holds no lock.
Status ParseSpec(std::string_view spec, std::string_view name,
                 Site* site) {
  const auto bad = [&](const char* what) {
    return Status::InvalidArgument("failpoint '" + std::string(name) +
                                   "': " + what + " in spec '" +
                                   std::string(spec) + "'");
  };
  const size_t colon = spec.find(':');
  const std::string_view mode = spec.substr(0, colon);
  std::string_view rest =
      colon == std::string_view::npos ? std::string_view{}
                                      : spec.substr(colon + 1);
  const size_t colon2 = rest.find(':');
  const std::string arg(rest.substr(0, colon2));
  const std::string seed_str(
      colon2 == std::string_view::npos ? std::string_view{}
                                       : rest.substr(colon2 + 1));

  if (mode == "off") {
    if (!arg.empty()) {
      return bad("'off' takes no argument");
    }
    site->mode = Mode::kOff;
    return Status::OK();
  }
  if (mode == "prob") {
    char* end = nullptr;
    const double p = arg.empty() ? -1.0 : std::strtod(arg.c_str(), &end);
    // !(p >= 0 && p <= 1) rather than (p < 0 || p > 1) so NaN — which
    // compares false to everything — is rejected too.
    if (arg.empty() || *end != '\0' || !(p >= 0.0 && p <= 1.0)) {
      return bad("probability must be in [0, 1]");
    }
    uint64_t seed = 0x5DEECE66Dull;
    if (!seed_str.empty()) {
      char* send = nullptr;
      seed = std::strtoull(seed_str.c_str(), &send, 10);
      if (*send != '\0') {
        return bad("seed must be an unsigned integer");
      }
    }
    site->mode = Mode::kProb;
    site->prob = p;
    site->rng = Rng(seed);
    return Status::OK();
  }
  if (mode == "every" || mode == "times") {
    if (!seed_str.empty()) {
      return bad("only 'prob' takes a seed");
    }
    char* end = nullptr;
    const uint64_t n =
        arg.empty() ? 0 : std::strtoull(arg.c_str(), &end, 10);
    if (arg.empty() || *end != '\0' || (mode == "every" && n == 0)) {
      return bad("count must be a positive integer");
    }
    site->mode = mode == "every" ? Mode::kEvery : Mode::kTimes;
    site->n = n;
    return Status::OK();
  }
  return bad("unknown mode (want off|prob|every|times)");
}

// Parses "site=spec;site=spec" pairs into the table.
Status ConfigureLocked(Table& table, std::string_view config)
    CORRA_REQUIRES(table.mu) {
  while (!config.empty()) {
    const size_t semi = config.find(';');
    const std::string_view pair = config.substr(0, semi);
    config = semi == std::string_view::npos ? std::string_view{}
                                            : config.substr(semi + 1);
    if (pair.empty()) {
      continue;  // Tolerate empty segments ("a=b;;c=d", trailing ';').
    }
    const size_t eq = pair.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return Status::InvalidArgument(
          "failpoint config: expected 'site=spec', got '" +
          std::string(pair) + "'");
    }
    Site site;
    CORRA_RETURN_NOT_OK(
        ParseSpec(pair.substr(eq + 1), pair.substr(0, eq), &site));
    table.sites.insert_or_assign(std::string(pair.substr(0, eq)),
                                 std::move(site));
  }
  return Status::OK();
}

// First-use env parse. Idempotent: after this, g_armed is >= 0 and
// reflects the table size.
void InitFromEnvLocked(Table& table) CORRA_REQUIRES(table.mu) {
  if (internal::g_armed.load(std::memory_order_relaxed) >= 0) {
    return;
  }
  if (const char* env = std::getenv("CORRA_FAILPOINTS")) {
    // A malformed env spec is ignored from the hot path (no channel to
    // report it); ConfigureFromString surfaces it to explicit callers.
    (void)ConfigureLocked(table, env);
  }
  internal::g_armed.store(static_cast<int>(table.sites.size()),
                          std::memory_order_relaxed);
}

}  // namespace

namespace internal {

std::atomic<int> g_armed{-1};

bool EvaluateSlow(const char* site) {
  Table& table = GetTable();
  MutexLock lock(table.mu);
  InitFromEnvLocked(table);
  auto it = table.sites.find(std::string_view(site));
  if (it == table.sites.end()) {
    return false;
  }
  Site& s = it->second;
  ++s.evaluations;
  bool fired = false;
  switch (s.mode) {
    case Mode::kOff:
      break;
    case Mode::kProb:
      fired = s.rng.Bernoulli(s.prob);
      break;
    case Mode::kEvery:
      fired = s.evaluations % s.n == 0;
      break;
    case Mode::kTimes:
      fired = s.evaluations <= s.n;
      break;
  }
  s.fires += fired ? 1 : 0;
  return fired;
}

}  // namespace internal

Status Configure(std::string_view site, std::string_view spec) {
  if (site.empty()) {
    return Status::InvalidArgument("failpoint site name is empty");
  }
  Site parsed;
  CORRA_RETURN_NOT_OK(ParseSpec(spec, site, &parsed));
  Table& table = GetTable();
  MutexLock lock(table.mu);
  InitFromEnvLocked(table);
  table.sites.insert_or_assign(std::string(site), std::move(parsed));
  internal::g_armed.store(static_cast<int>(table.sites.size()),
                          std::memory_order_relaxed);
  return Status::OK();
}

Status ConfigureFromString(std::string_view config) {
  Table& table = GetTable();
  MutexLock lock(table.mu);
  InitFromEnvLocked(table);
  const Status status = ConfigureLocked(table, config);
  internal::g_armed.store(static_cast<int>(table.sites.size()),
                          std::memory_order_relaxed);
  return status;
}

void Clear(std::string_view site) {
  Table& table = GetTable();
  MutexLock lock(table.mu);
  InitFromEnvLocked(table);
  auto it = table.sites.find(site);
  if (it != table.sites.end()) {
    table.sites.erase(it);
  }
  internal::g_armed.store(static_cast<int>(table.sites.size()),
                          std::memory_order_relaxed);
}

void ClearAll() {
  Table& table = GetTable();
  MutexLock lock(table.mu);
  table.sites.clear();
  // Also swallows any pending env config: ClearAll means "no sites".
  internal::g_armed.store(0, std::memory_order_relaxed);
}

uint64_t Evaluations(std::string_view site) {
  Table& table = GetTable();
  MutexLock lock(table.mu);
  auto it = table.sites.find(site);
  return it == table.sites.end() ? 0 : it->second.evaluations;
}

uint64_t Fires(std::string_view site) {
  Table& table = GetTable();
  MutexLock lock(table.mu);
  auto it = table.sites.find(site);
  return it == table.sites.end() ? 0 : it->second.fires;
}

}  // namespace corra::fail
