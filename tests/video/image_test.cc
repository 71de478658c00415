#include "video/image.h"

#include <gtest/gtest.h>

#include <utility>

namespace otif::video {
namespace {

TEST(ImageTest, ConstructionAndAccess) {
  Image img(4, 3, 0.5f);
  EXPECT_EQ(img.width(), 4);
  EXPECT_EQ(img.height(), 3);
  EXPECT_EQ(img.size(), 12u);
  EXPECT_FLOAT_EQ(img.at(2, 1), 0.5f);
  img.set(2, 1, 0.9f);
  EXPECT_FLOAT_EQ(img.at(2, 1), 0.9f);
  EXPECT_FLOAT_EQ(img.row(1)[2], 0.9f);
}

TEST(ImageTest, EmptyImage) {
  Image img;
  EXPECT_TRUE(img.empty());
  EXPECT_EQ(img.size(), 0u);
}

TEST(ImageDeathTest, OutOfBoundsAborts) {
  Image img(2, 2);
  EXPECT_DEATH(img.at(2, 0), "Check failed");
  EXPECT_DEATH(img.at(0, -1), "Check failed");
}

TEST(ImageTest, ClampBoundsPixels) {
  Image img(2, 1);
  img.set(0, 0, -0.5f);
  img.set(1, 0, 1.5f);
  img.Clamp();
  EXPECT_FLOAT_EQ(img.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(img.at(1, 0), 1.0f);
}

TEST(ImageTest, MeanAbsDiff) {
  Image a(2, 2, 0.5f);
  Image b(2, 2, 0.75f);
  EXPECT_NEAR(a.MeanAbsDiff(b), 0.25f, 1e-6f);
  EXPECT_FLOAT_EQ(a.MeanAbsDiff(a), 0.0f);
}

// --- Copy and move semantics --------------------------------------------

Image TestPattern(int w, int h) {
  Image img(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      img.set(x, y, static_cast<float>((x * 31 + y * 17) % 97) / 96.0f);
    }
  }
  return img;
}

void ExpectBitIdentical(const Image& a, const Image& b) {
  ASSERT_EQ(a.width(), b.width());
  ASSERT_EQ(a.height(), b.height());
  for (int y = 0; y < a.height(); ++y) {
    for (int x = 0; x < a.width(); ++x) {
      ASSERT_EQ(a.at(x, y), b.at(x, y)) << x << "," << y;
    }
  }
}

TEST(ImageTest, CopyAssignReusesCapacityAndCopiesPixels) {
  const Image src = TestPattern(6, 5);
  Image dst(8, 8);  // Larger capacity than src needs.
  const float* before = dst.data();
  dst = src;
  EXPECT_EQ(dst.data(), before) << "fitting copy-assign reallocated";
  ExpectBitIdentical(dst, src);
  // Source is untouched and independent: mutating dst must not alias src.
  dst.set(0, 0, 0.123f);
  EXPECT_NE(src.at(0, 0), 0.123f);
}

TEST(ImageTest, MoveLeavesSourceEmpty) {
  Image src = TestPattern(4, 4);
  const float* p = src.data();
  Image dst = std::move(src);
  EXPECT_EQ(dst.data(), p);
  EXPECT_TRUE(src.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(src.width(), 0);
}

}  // namespace
}  // namespace otif::video
