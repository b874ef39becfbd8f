// The benchmark's own tests: the clutter generator, the percentile rule and
// span self-time arithmetic.
#include <gtest/gtest.h>

#include <cstring>

#include "clutter.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

bool same_bits(const photon::Vec3& a, const photon::Vec3& b) {
  return std::memcmp(&a.x, &b.x, sizeof(double)) == 0 &&
         std::memcmp(&a.y, &b.y, sizeof(double)) == 0 &&
         std::memcmp(&a.z, &b.z, sizeof(double)) == 0;
}

bool same_patches(const photon::Scene& a, const photon::Scene& b) {
  if (a.patch_count() != b.patch_count()) return false;
  for (std::size_t i = 0; i < a.patch_count(); ++i) {
    const photon::Patch& p = a.patch(static_cast<int>(i));
    const photon::Patch& q = b.patch(static_cast<int>(i));
    if (!same_bits(p.origin(), q.origin()) || !same_bits(p.edge_s(), q.edge_s()) ||
        !same_bits(p.edge_t(), q.edge_t()) || p.material_id() != q.material_id()) {
      return false;
    }
  }
  return true;
}

TEST(Clutter, SameSeedGivesBitwiseIdenticalPatchList) {
  const photon::Scene a = make_clutter_scene(42);
  const photon::Scene b = make_clutter_scene(42);
  EXPECT_TRUE(same_patches(a, b));
  EXPECT_FALSE(same_patches(a, make_clutter_scene(43)));
}

TEST(Clutter, ShapeAndValidity) {
  const photon::Scene scene = make_clutter_scene(7);
  EXPECT_EQ(scene.patch_count(), 6u * 8000u + 6u + 1u);  // boxes, room shell, light
  EXPECT_EQ(scene.luminaires().size(), 1u);
  EXPECT_NO_THROW(photon::validate_scene(scene));
}

TEST(Percentile, RefusedWithFewerThanTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 99; ++i) v.push_back(i);
  EXPECT_FALSE(percentile(v, 90).has_value());  // rank 90 of 99: 9 beyond
  v.push_back(100);
  ASSERT_TRUE(percentile(v, 90).has_value());   // rank 90 of 100: 10 beyond
  EXPECT_EQ(*percentile(v, 90), 90.0);

  std::vector<double> w(19, 1.0);
  EXPECT_FALSE(percentile(w, 50).has_value());  // rank 10 of 19: 9 beyond
  w.push_back(1.0);
  EXPECT_TRUE(percentile(w, 50).has_value());
  EXPECT_FALSE(percentile({}, 50).has_value());
}

TEST(Percentile, NearestRankIgnoresInputOrder) {
  std::vector<double> v;
  for (int i = 200; i >= 1; --i) v.push_back(i * 0.5);
  EXPECT_EQ(*percentile(v, 50), 50.0);  // 100th smallest of 0.5..100
  EXPECT_EQ(*percentile(v, 90), 90.0);  // 180th smallest
  EXPECT_EQ(median({3.0, 1.0, 2.0, 4.0}), 2.5);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfDirectChildren) {
  std::vector<Span> s(5);
  s[0] = {"engine.run", 0.0, 10.0, -1, 1};
  s[1] = {"sim.trace", 1.0, 3.0, 0, 1};
  s[2] = {"hist.record", 2.0, 5.0, 0, 1};   // overlaps s[1]: [1, 5) covered once
  s[3] = {"geom.intersect", 8.0, 12.0, 0, 1};  // clipped to the parent's end
  s[4] = {"geom.intersect", 2.5, 2.75, 1, 1};  // grandchild: not subtracted from s[0]
  EXPECT_DOUBLE_EQ(self_time(s, 0), 10.0 - 4.0 - 2.0);
  EXPECT_DOUBLE_EQ(self_time(s, 1), 2.0 - 0.25);
  EXPECT_DOUBLE_EQ(self_time(s, 2), 3.0);

  const auto by_layer = self_time_by_layer(s);
  EXPECT_DOUBLE_EQ(by_layer.at("engine"), 4.0);
  EXPECT_DOUBLE_EQ(by_layer.at("geom"), 4.0 + 0.25);
  EXPECT_DOUBLE_EQ(by_layer.at("sim"), 1.75);
  EXPECT_DOUBLE_EQ(by_layer.at("hist"), 3.0);
}

TEST(Spans, RecorderNestsPerThreadAndSkipsWhenDisabled) {
  SpanRecorder recorder(true);
  {
    SpanRecorder::Scope outer(recorder, "bench.setup", 3);
    SpanRecorder::Scope inner(recorder, "geom.scene", 3);
  }
  const std::vector<Span> spans = recorder.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].run, 3u);
  EXPECT_LE(spans[0].start, spans[1].start);
  EXPECT_GE(spans[0].end, spans[1].end);
  EXPECT_EQ(span_layer(spans[1].name), "geom");

  SpanRecorder off(false);
  { SpanRecorder::Scope scope(off, "bench.setup"); }
  EXPECT_TRUE(off.spans().empty());
}

}  // namespace
}  // namespace perfbench
