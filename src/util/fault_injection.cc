#include "util/fault_injection.h"

#include <cstdlib>
#include <limits>
#include <mutex>

#include "util/logging.h"
#include "util/strings.h"

namespace otif::fault {
namespace {

/// SplitMix64-style stateless mix of (seed, token): the fault decision for
/// a given token is a pure function, so a replayed run reproduces the same
/// faults no matter how threads interleave.
uint64_t MixToken(uint64_t seed, uint64_t token) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (token + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Uniform double in [0, 1) from the mixed bits.
double MixToUnit(uint64_t z) {
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

struct Registry {
  std::mutex mu;
  // The two sites, in name order (ArmedSites lists them sorted). Each is
  // created on first use, so a run that never consults or arms a site
  // registers no fault.injected.* counter. Leaked (process lifetime).
  Site* detect = nullptr;  // Guarded by mu.
  Site* proxy = nullptr;   // Guarded by mu.
  // Configs published to sites. Retired on reconfigure but leaked rather
  // than freed: a racing reader may still hold the pointer, and chaos runs
  // reconfigure a handful of times per process at most.
  std::vector<const internal::SiteConfig*> configs;
};

Registry& GetRegistry() {
  static Registry* const registry = new Registry;
  return *registry;
}

/// Returns the site for kDetectSite or kProxySite, creating it on first
/// use. Caller holds registry.mu.
Site* SiteLocked(Registry& registry, std::string_view name) {
  OTIF_CHECK(name == kDetectSite || name == kProxySite)
      << "unknown fault site \"" << name << "\"";
  Site*& site = name == kDetectSite ? registry.detect : registry.proxy;
  if (site == nullptr) site = new Site(std::string(name));
  return site;
}

bool ParseKind(std::string_view text, Kind* out) {
  if (text == "error") {
    *out = Kind::kError;
  } else if (text == "stall") {
    *out = Kind::kStall;
  } else {
    return false;
  }
  return true;
}

/// Uninstalls every created site's config. Caller holds registry.mu.
void DisarmAllLocked(Registry& registry) {
  for (Site* site : {registry.detect, registry.proxy}) {
    if (site != nullptr) site->SetConfig(nullptr);
  }
}

}  // namespace

Site::Site(std::string name)
    : name_(std::move(name)),
      injected_(telemetry::MetricsRegistry::Global().GetCounter(
          "fault.injected." + name_)) {}

bool Site::Inject(int64_t clip, int64_t token, Injection* out) {
  const internal::SiteConfig* config =
      config_.load(std::memory_order_acquire);
  if (config == nullptr) return false;
  if (config->clip >= 0 && clip != config->clip) return false;
  if (MixToUnit(MixToken(config->seed, static_cast<uint64_t>(token))) >=
      config->rate) {
    return false;
  }
  out->kind = config->kind;
  out->stall_ms = config->stall_ms;
  injected_->Add(1);
  return true;
}

Site* GetSite(const std::string& name) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  return SiteLocked(registry, name);
}

Status ConfigureFaults(const std::string& spec) {
  // Parse the whole spec before touching any site so a malformed entry
  // leaves the previous configuration fully intact.
  struct Entry {
    std::string site;
    internal::SiteConfig config;
  };
  std::vector<Entry> entries;
  for (const std::string& raw : StrSplit(spec, ',')) {
    const std::string_view item = StripWhitespace(raw);
    if (item.empty()) continue;
    const std::vector<std::string> fields = StrSplit(item, ':');
    if (fields.size() < 4) {
      return Status::InvalidArgument(
          StrFormat("fault spec entry \"%s\": want site:kind:rate:seed",
                    std::string(item).c_str()));
    }
    Entry entry;
    entry.site = fields[0];
    if (entry.site != kProxySite && entry.site != kDetectSite) {
      return Status::InvalidArgument(
          StrFormat("fault spec \"%s\": unknown site (want %s or %s)",
                    entry.site.c_str(), kProxySite, kDetectSite));
    }
    if (!ParseKind(fields[1], &entry.config.kind)) {
      return Status::InvalidArgument(
          StrFormat("fault spec \"%s\": unknown kind \"%s\"",
                    entry.site.c_str(), fields[1].c_str()));
    }
    // ParseDouble rejects NaN, which would pass both range comparisons.
    if (!ParseDouble(fields[2], &entry.config.rate) ||
        entry.config.rate < 0.0 || entry.config.rate > 1.0) {
      return Status::InvalidArgument(
          StrFormat("fault spec \"%s\": rate \"%s\" not in [0, 1]",
                    entry.site.c_str(), fields[2].c_str()));
    }
    int64_t seed = 0;
    if (!ParseInt64(fields[3], &seed) || seed < 0) {
      return Status::InvalidArgument(
          StrFormat("fault spec \"%s\": bad seed \"%s\"", entry.site.c_str(),
                    fields[3].c_str()));
    }
    entry.config.seed = static_cast<uint64_t>(seed);
    for (size_t i = 4; i < fields.size(); ++i) {
      const std::string& option = fields[i];
      int64_t value = 0;
      if (StartsWith(option, "clip=") &&
          ParseInt64(std::string_view(option).substr(5), &value) &&
          value >= 0) {
        entry.config.clip = value;
      } else if (StartsWith(option, "ms=") &&
                 ParseInt64(std::string_view(option).substr(3), &value) &&
                 value >= 0 && value <= std::numeric_limits<int>::max()) {
        entry.config.stall_ms = static_cast<int>(value);
      } else {
        return Status::InvalidArgument(
            StrFormat("fault spec \"%s\": bad option \"%s\"",
                      entry.site.c_str(), option.c_str()));
      }
    }
    entries.push_back(std::move(entry));
  }

  Registry& registry = GetRegistry();
  {
    std::lock_guard<std::mutex> lock(registry.mu);
    DisarmAllLocked(registry);
    for (const Entry& entry : entries) {
      auto* config = new internal::SiteConfig(entry.config);
      registry.configs.push_back(config);
      SiteLocked(registry, entry.site)->SetConfig(config);
    }
  }
  telemetry::internal::SetFlag(telemetry::kFaultFlag, !entries.empty());
  return Status::OK();
}

void ClearFaults() {
  telemetry::internal::SetFlag(telemetry::kFaultFlag, false);
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  DisarmAllLocked(registry);
}

void InitFaultsFromEnv() {
  static const bool initialized = [] {
    const char* spec = std::getenv("OTIF_FAULTS");
    if (spec == nullptr || spec[0] == '\0') return true;
    const Status status = ConfigureFaults(spec);
    if (!status.ok()) {
      OTIF_LOG(kWarning) << "ignoring OTIF_FAULTS: " << status.ToString();
      return true;
    }
    std::vector<std::string> armed = ArmedSites();
    OTIF_LOG(kWarning) << "fault injection armed for " << armed.size()
                       << " site(s): " << StrJoin(armed, ", ");
    return true;
  }();
  (void)initialized;
}

std::vector<std::string> ArmedSites() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  std::vector<std::string> armed;
  for (const Site* site : {registry.detect, registry.proxy}) {
    if (site != nullptr && site->armed()) armed.push_back(site->name());
  }
  return armed;
}

}  // namespace otif::fault
