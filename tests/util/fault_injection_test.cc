// Deterministic fault-injection registry tests: spec parsing, the
// everything-off default, seeded replayability, rate endpoints, clip
// scoping, and the injected-fault counters.

#include "util/fault_injection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "util/status.h"
#include "util/telemetry.h"
#include "util/trace_timeline.h"

namespace otif::fault {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override { ClearFaults(); }
};

TEST_F(FaultInjectionTest, DisabledByDefault) {
  EXPECT_FALSE(Enabled());
  Injection inj;
  // A macro-style probe on an unarmed site never fires.
  EXPECT_FALSE(OTIF_FAULT_POINT("test.default", 0, &inj));
}

TEST_F(FaultInjectionTest, ConfigureArmsAndClearDisarms) {
  ASSERT_TRUE(ConfigureFaults("test.arm:error:1:42").ok());
  EXPECT_TRUE(Enabled());
  const std::vector<std::string> armed = ArmedSites();
  EXPECT_NE(std::find(armed.begin(), armed.end(), "test.arm"), armed.end());

  Injection inj;
  EXPECT_TRUE(OTIF_FAULT_POINT("test.arm", 0, &inj));
  EXPECT_EQ(inj.kind, Kind::kError);

  ClearFaults();
  EXPECT_FALSE(Enabled());
  EXPECT_FALSE(OTIF_FAULT_POINT("test.arm", 0, &inj));
  EXPECT_TRUE(ArmedSites().empty());
}

TEST_F(FaultInjectionTest, MalformedSpecsRejectedAndPreviousConfigKept) {
  ASSERT_TRUE(ConfigureFaults("test.keep:error:1:7").ok());
  for (const char* bad :
       {"site_only", "a:b", "a:notakind:0.5:1", "a:error:1.5:1",
        "a:error:-0.1:1", "a:error:0.5:notanumber", "a:error:0.5:1:bogus=3",
        ":error:0.5:1", "a:error:0.5:1:clip=-2", "a:corrupt:0.5:1"}) {
    EXPECT_EQ(ConfigureFaults(bad).code(), StatusCode::kInvalidArgument)
        << "spec: " << bad;
  }
  // The last good configuration survived every rejected attempt.
  EXPECT_TRUE(Enabled());
  Injection inj;
  EXPECT_TRUE(OTIF_FAULT_POINT("test.keep", 0, &inj));
}

TEST_F(FaultInjectionTest, ParsesOptionsAndMultipleEntries) {
  ASSERT_TRUE(
      ConfigureFaults("test.a:stall:1:3:ms=25, test.b:deny:1:4:clip=2").ok());
  Injection inj;
  ASSERT_TRUE(GetSite("test.a")->Inject(/*clip=*/0, /*token=*/0, &inj));
  EXPECT_EQ(inj.kind, Kind::kStall);
  EXPECT_EQ(inj.stall_ms, 25);

  // test.b is scoped to clip 2 only.
  EXPECT_FALSE(GetSite("test.b")->Inject(/*clip=*/0, /*token=*/0, &inj));
  ASSERT_TRUE(GetSite("test.b")->Inject(/*clip=*/2, /*token=*/0, &inj));
  EXPECT_EQ(inj.kind, Kind::kDeny);
}

TEST_F(FaultInjectionTest, SeededDecisionsAreDeterministicPerToken) {
  ASSERT_TRUE(ConfigureFaults("test.det:error:0.5:1234").ok());
  Site* site = GetSite("test.det");
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
  ASSERT_TRUE(ConfigureFaults("test.det:error:0.5:99").ok());
  std::vector<bool> reseeded;
  for (int64_t token = 0; token < 256; ++token) {
    reseeded.push_back(site->Inject(/*clip=*/0, token, &inj));
  }
  EXPECT_NE(first, reseeded);
}

TEST_F(FaultInjectionTest, RateEndpoints) {
  ASSERT_TRUE(ConfigureFaults("test.never:error:0:1,test.always:error:1:1")
                  .ok());
  Injection inj;
  for (int64_t token = 0; token < 64; ++token) {
    EXPECT_FALSE(GetSite("test.never")->Inject(/*clip=*/0, token, &inj));
    EXPECT_TRUE(GetSite("test.always")->Inject(/*clip=*/0, token, &inj));
  }
}

TEST_F(FaultInjectionTest, AutoTokenUsesTimelineClipContext) {
  ASSERT_TRUE(ConfigureFaults("test.ctx:error:1:5:clip=3").ok());
  Injection inj;
  // No timeline context: clip resolves to the default (not 3) and the
  // clip-scoped site stays quiet.
  EXPECT_FALSE(OTIF_FAULT_POINT("test.ctx", -1, &inj));
  {
    telemetry::timeline::ScopedContext ctx({.clip = 3});
    EXPECT_TRUE(OTIF_FAULT_POINT("test.ctx", -1, &inj));
  }
  EXPECT_FALSE(OTIF_FAULT_POINT("test.ctx", -1, &inj));
}

TEST_F(FaultInjectionTest, InjectedCounterCountsFiredFaultsOnly) {
  telemetry::Counter* counter =
      telemetry::MetricsRegistry::Global().GetCounter(
          "fault.injected.test.count");
  const int64_t before = counter->value();
  ASSERT_TRUE(ConfigureFaults("test.count:error:1:1").ok());
  Injection inj;
  EXPECT_TRUE(OTIF_FAULT_POINT("test.count", 0, &inj));
  EXPECT_TRUE(OTIF_FAULT_POINT("test.count", 1, &inj));
  EXPECT_EQ(counter->value(), before + 2);

  ASSERT_TRUE(ConfigureFaults("test.count:error:0:1").ok());
  EXPECT_FALSE(OTIF_FAULT_POINT("test.count", 2, &inj));
  EXPECT_EQ(counter->value(), before + 2);
}

}  // namespace
}  // namespace otif::fault
