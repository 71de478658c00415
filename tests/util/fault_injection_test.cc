// Deterministic fault-injection tests: spec parsing (only the two
// instrumented sites are accepted), the everything-off default, seeded
// replayability, rate endpoints, clip scoping, the injected-fault
// counters, and OTIF_FAULTS applied once per process.

#include "util/fault_injection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/introspection_server.h"
#include "util/status.h"
#include "util/strings.h"
#include "util/telemetry.h"

namespace otif::fault {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override { ClearFaults(); }
};

TEST_F(FaultInjectionTest, DisabledByDefault) {
  EXPECT_FALSE(Enabled());
  Injection inj;
  // A probe on an unarmed site never fires.
  EXPECT_FALSE(GetSite(kDetectSite)->Inject(/*clip=*/0, /*token=*/0, &inj));
}

TEST_F(FaultInjectionTest, ConfigureArmsAndClearDisarms) {
  ASSERT_TRUE(ConfigureFaults("detect.invoke:error:1:42").ok());
  EXPECT_TRUE(Enabled());
  const std::vector<std::string> armed = ArmedSites();
  EXPECT_NE(std::find(armed.begin(), armed.end(), kDetectSite), armed.end());

  Injection inj;
  Site* site = GetSite(kDetectSite);
  EXPECT_TRUE(site->Inject(/*clip=*/0, /*token=*/0, &inj));
  EXPECT_EQ(inj.kind, Kind::kError);

  ClearFaults();
  EXPECT_FALSE(Enabled());
  EXPECT_FALSE(site->Inject(/*clip=*/0, /*token=*/0, &inj));
  EXPECT_TRUE(ArmedSites().empty());
}

TEST_F(FaultInjectionTest, MalformedSpecsRejectedAndPreviousConfigKept) {
  ASSERT_TRUE(ConfigureFaults("detect.invoke:error:1:7").ok());
  for (const char* bad :
       {"site_only", "a:b", "proxy.invoke:notakind:0.5:1",
        "proxy.invoke:error:1.5:1", "proxy.invoke:error:-0.1:1",
        "proxy.invoke:error:0.5:notanumber",
        "proxy.invoke:error:0.5:1:bogus=3", ":error:0.5:1",
        "proxy.invoke:error:0.5:1:clip=-2", "proxy.invoke:corrupt:0.5:1",
        "proxy.invoke:deny:0.5:1", "detect.invok:error:1:7",
        "detect.invoke:error:nan:7", "detect.invoke:error:NaN:7",
        "detect.invoke:error:-nan:7", "proxy.invoke:stall:1:9:ms=2147483648",
        "proxy.invoke:stall:1:9:ms=4294967297"}) {
    EXPECT_EQ(ConfigureFaults(bad).code(), StatusCode::kInvalidArgument)
        << "spec: " << bad;
  }
  // The last good configuration survived every rejected attempt.
  EXPECT_TRUE(Enabled());
  Injection inj;
  EXPECT_TRUE(GetSite(kDetectSite)->Inject(/*clip=*/0, /*token=*/0, &inj));
}

TEST_F(FaultInjectionTest, ParsesOptionsAndMultipleEntries) {
  ASSERT_TRUE(ConfigureFaults(
                  "proxy.invoke:stall:1:3:ms=25, detect.invoke:error:1:4:clip=2")
                  .ok());
  Injection inj;
  ASSERT_TRUE(GetSite(kProxySite)->Inject(/*clip=*/0, /*token=*/0, &inj));
  EXPECT_EQ(inj.kind, Kind::kStall);
  EXPECT_EQ(inj.stall_ms, 25);

  // The detector site is scoped to clip 2 only.
  EXPECT_FALSE(GetSite(kDetectSite)->Inject(/*clip=*/0, /*token=*/0, &inj));
  ASSERT_TRUE(GetSite(kDetectSite)->Inject(/*clip=*/2, /*token=*/0, &inj));
  EXPECT_EQ(inj.kind, Kind::kError);
}

TEST_F(FaultInjectionTest, SeededDecisionsAreDeterministicPerToken) {
  ASSERT_TRUE(ConfigureFaults("detect.invoke:error:0.5:1234").ok());
  Site* site = GetSite(kDetectSite);
  std::vector<bool> first;
  Injection inj;
  for (int64_t token = 0; token < 256; ++token) {
    first.push_back(site->Inject(/*clip=*/0, token, &inj));
  }
  // Same seed, same tokens: bit-identical replay, any number of times.
  for (int64_t token = 0; token < 256; ++token) {
    EXPECT_EQ(site->Inject(/*clip=*/0, token, &inj), first[token]) << token;
  }
  // Roughly half fire at rate 0.5 (deterministic, just sanity-bounded).
  const int fired = std::count(first.begin(), first.end(), true);
  EXPECT_GT(fired, 64);
  EXPECT_LT(fired, 192);

  // A different seed produces a different decision sequence.
  ASSERT_TRUE(ConfigureFaults("detect.invoke:error:0.5:99").ok());
  std::vector<bool> reseeded;
  for (int64_t token = 0; token < 256; ++token) {
    reseeded.push_back(site->Inject(/*clip=*/0, token, &inj));
  }
  EXPECT_NE(first, reseeded);
}

TEST_F(FaultInjectionTest, RateEndpoints) {
  ASSERT_TRUE(
      ConfigureFaults("proxy.invoke:error:0:1,detect.invoke:error:1:1").ok());
  Injection inj;
  for (int64_t token = 0; token < 64; ++token) {
    EXPECT_FALSE(GetSite(kProxySite)->Inject(/*clip=*/0, token, &inj));
    EXPECT_TRUE(GetSite(kDetectSite)->Inject(/*clip=*/0, token, &inj));
  }
}

TEST_F(FaultInjectionTest, InjectedCounterCountsFiredFaultsOnly) {
  telemetry::Counter* counter =
      telemetry::MetricsRegistry::Global().GetCounter(
          "fault.injected.detect.invoke");
  const int64_t before = counter->value();
  ASSERT_TRUE(ConfigureFaults("detect.invoke:error:1:1").ok());
  Injection inj;
  Site* site = GetSite(kDetectSite);
  EXPECT_TRUE(site->Inject(/*clip=*/0, /*token=*/0, &inj));
  EXPECT_TRUE(site->Inject(/*clip=*/0, /*token=*/1, &inj));
  EXPECT_EQ(counter->value(), before + 2);

  ASSERT_TRUE(ConfigureFaults("detect.invoke:error:0:1").ok());
  EXPECT_FALSE(site->Inject(/*clip=*/0, /*token=*/2, &inj));
  EXPECT_EQ(counter->value(), before + 2);
}

TEST(FaultInjectionDeathTest, SiteCountersAppearOnlyOnceASiteIsUsed) {
  // A fault-free run must add no fault.injected.* series to /metrics: each
  // site, and with it its counter, is created on first use. Checked in a
  // fresh child, where no other test has touched a site yet.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        auto fault_counters = [] {
          std::vector<std::string> names;
          for (const telemetry::CounterSample& c :
               telemetry::MetricsRegistry::Global().Snapshot().counters) {
            if (StartsWith(c.name, "fault.injected.")) names.push_back(c.name);
          }
          return names;
        };
        ClearFaults();
        const bool none_when_cleared = fault_counters().empty();
        const bool configured = ConfigureFaults("detect.invoke:error:0:1").ok();
        const std::vector<std::string> counters = fault_counters();
        std::fprintf(stderr, "fault counters: %s\n",
                     StrJoin(counters, ", ").c_str());
        std::exit(none_when_cleared && configured &&
                          counters == std::vector<std::string>{
                                          "fault.injected.detect.invoke"}
                      ? 0
                      : 1);
      },
      ::testing::ExitedWithCode(0),
      "fault counters: fault.injected.detect.invoke\n");
}

TEST(FaultInjectionDeathTest, UnknownSiteIsFatal) {
  EXPECT_DEATH(GetSite("detect.invok"), "unknown fault site");
}

TEST(FaultInjectionDeathTest, EnvSpecInstallsOncePerProcess) {
  // The harness calls obs::InitFromEnv once per experiment after the
  // binary's own call. A later call must neither re-arm OTIF_FAULTS nor
  // replace what a caller installed with ConfigureFaults in between. The
  // once-guard is per process, so the check runs in a fresh child.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        setenv("OTIF_FAULTS", "detect.invoke:error:1:7", /*overwrite=*/1);
        obs::InitFromEnv();
        const bool env_armed =
            ArmedSites() == std::vector<std::string>{kDetectSite};
        const bool configured = ConfigureFaults("proxy.invoke:stall:1:9").ok();
        obs::InitFromEnv();
        const std::vector<std::string> armed = ArmedSites();
        std::fprintf(stderr, "armed after the second init: %s\n",
                     StrJoin(armed, ", ").c_str());
        std::exit(env_armed && configured &&
                          armed == std::vector<std::string>{kProxySite}
                      ? 0
                      : 1);
      },
      ::testing::ExitedWithCode(0), "armed after the second init: proxy");
}

}  // namespace
}  // namespace otif::fault
