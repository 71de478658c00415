#include "util/fault_injection.h"

#include <cerrno>
#include <cstdlib>
#include <map>
#include <mutex>

#include "util/logging.h"
#include "util/strings.h"
#include "util/trace_timeline.h"

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
  std::map<std::string, Site*> sites;  // Values leak (process lifetime).
  // Configs published to sites. Retired on reconfigure but leaked rather
  // than freed: a racing reader may still hold the pointer, and chaos runs
  // reconfigure a handful of times per process at most.
  std::vector<const internal::SiteConfig*> configs;
};

Registry& GetRegistry() {
  static Registry* const registry = new Registry;
  return *registry;
}

bool ParseKind(std::string_view text, Kind* out) {
  if (text == "error") {
    *out = Kind::kError;
  } else if (text == "stall") {
    *out = Kind::kStall;
  } else if (text == "deny") {
    *out = Kind::kDeny;
  } else {
    return false;
  }
  return true;
}

bool ParseInt64(std::string_view text, int64_t* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const std::string copy(text);
  const long long value = std::strtoll(copy.c_str(), &end, 10);
  if (errno != 0 || end != copy.c_str() + copy.size()) return false;
  *out = value;
  return true;
}

bool ParseRate(std::string_view text, double* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const std::string copy(text);
  const double value = std::strtod(copy.c_str(), &end);
  if (errno != 0 || end != copy.c_str() + copy.size()) return false;
  if (value < 0.0 || value > 1.0) return false;
  *out = value;
  return true;
}

/// Uninstalls every site's config under the registry lock. Returns whether
/// any site had been armed (for logging).
void DisarmAllLocked(Registry& registry) {
  for (auto& [name, site] : registry.sites) site->SetConfig(nullptr);
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
  // The auto-token counter only advances for decisions that passed the
  // clip filter, so clip-scoped specs see a dense token sequence.
  const uint64_t effective_token =
      token >= 0 ? static_cast<uint64_t>(token)
                 : hits_.fetch_add(1, std::memory_order_relaxed);
  if (MixToUnit(MixToken(config->seed, effective_token)) >= config->rate) {
    return false;
  }
  out->kind = config->kind;
  out->stall_ms = config->stall_ms;
  injected_->Add(1);
  return true;
}

bool Site::Inject(int64_t token, Injection* out) {
  return Inject(telemetry::timeline::CurrentContext().clip, token, out);
}

Site* GetSite(const std::string& name) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  auto it = registry.sites.find(name);
  if (it == registry.sites.end()) {
    it = registry.sites.emplace(name, new Site(name)).first;
  }
  return it->second;
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
    if (entry.site.empty()) {
      return Status::InvalidArgument("fault spec entry has empty site name");
    }
    if (!ParseKind(fields[1], &entry.config.kind)) {
      return Status::InvalidArgument(
          StrFormat("fault spec \"%s\": unknown kind \"%s\"",
                    entry.site.c_str(), fields[1].c_str()));
    }
    if (!ParseRate(fields[2], &entry.config.rate)) {
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
                 value >= 0) {
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
      auto it = registry.sites.find(entry.site);
      if (it == registry.sites.end()) {
        it = registry.sites.emplace(entry.site, new Site(entry.site)).first;
      }
      auto* config = new internal::SiteConfig(entry.config);
      registry.configs.push_back(config);
      it->second->SetConfig(config);
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
  const char* spec = std::getenv("OTIF_FAULTS");
  if (spec == nullptr || spec[0] == '\0') return;
  const Status status = ConfigureFaults(spec);
  if (!status.ok()) {
    OTIF_LOG(kWarning) << "ignoring OTIF_FAULTS: " << status.ToString();
    return;
  }
  std::vector<std::string> armed = ArmedSites();
  OTIF_LOG(kWarning) << "fault injection armed for " << armed.size()
                     << " site(s): " << StrJoin(armed, ", ");
}

std::vector<std::string> ArmedSites() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  std::vector<std::string> armed;
  for (const auto& [name, site] : registry.sites) {
    if (site->armed()) armed.push_back(name);
  }
  return armed;
}

}  // namespace otif::fault
