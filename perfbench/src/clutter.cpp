#include "clutter.hpp"

#include <array>

#include "seeded.hpp"

namespace perfbench {
namespace {

constexpr int kBoxes = 8000;       // six patches each
constexpr double kRoom = 40.0;     // cube edge of the room
constexpr double kMinEdge = 0.1;   // box edge lengths are uniform in [kMinEdge, kMaxEdge]
constexpr double kMaxEdge = 0.6;

// Six faces of [lo, hi]; cross(e1, e2) points away from the box, or into it
// when `inward` (the room shell).
void add_box(photon::Scene& scene, const photon::Vec3& lo, const photon::Vec3& hi, int material,
             bool inward) {
  const photon::Vec3 d = hi - lo;
  struct Face {
    photon::Vec3 origin, e1, e2;
  };
  const std::array<Face, 6> faces = {{
      {lo, {d.x, 0, 0}, {0, 0, d.z}},
      {{lo.x, hi.y, lo.z}, {0, 0, d.z}, {d.x, 0, 0}},
      {lo, {0, 0, d.z}, {0, d.y, 0}},
      {{hi.x, lo.y, lo.z}, {0, d.y, 0}, {0, 0, d.z}},
      {lo, {0, d.y, 0}, {d.x, 0, 0}},
      {{lo.x, lo.y, hi.z}, {d.x, 0, 0}, {0, d.y, 0}},
  }};
  for (const Face& f : faces) {
    scene.add_patch(inward ? photon::Patch(f.origin, f.e2, f.e1, material)
                           : photon::Patch(f.origin, f.e1, f.e2, material));
  }
}

}  // namespace

photon::Scene make_clutter_scene(std::uint64_t seed) {
  using photon::Material;
  using photon::Vec3;
  photon::Scene scene;
  scene.set_name("clutter");
  const double w = kRoom;
  const int walls = scene.add_material(Material::lambertian({0.70, 0.70, 0.70}));
  const std::array<int, 3> box_materials = {
      scene.add_material(Material::lambertian({0.75, 0.72, 0.65})),
      scene.add_material(Material::lambertian({0.60, 0.25, 0.20})),
      scene.add_material(Material::lambertian({0.25, 0.40, 0.60})),
  };
  const int light_material = scene.add_material(Material::emitter({30.0, 28.0, 24.0}));

  add_box(scene, {0, 0, 0}, {w, w, w}, walls, /*inward=*/true);
  // Ceiling panel a hair below the ceiling, facing down (-y normal).
  const double ly = w - 0.01;
  const int light = scene.add_patch(photon::Patch::from_corners(
      {0.3 * w, ly, 0.3 * w}, {0.7 * w, ly, 0.3 * w}, {0.3 * w, ly, 0.7 * w}, light_material));
  scene.add_luminaire(light);

  // Boxes stay below the light so none of them encloses it.
  SplitMix rng(seed);
  const double top = ly - kMaxEdge - 0.01;
  for (int i = 0; i < kBoxes; ++i) {
    const Vec3 size{rng.uniform(kMinEdge, kMaxEdge), rng.uniform(kMinEdge, kMaxEdge),
                    rng.uniform(kMinEdge, kMaxEdge)};
    const Vec3 lo{rng.uniform(0.01, w - size.x - 0.01), rng.uniform(0.0, top),
                  rng.uniform(0.01, w - size.z - 0.01)};
    const int material = box_materials[static_cast<std::size_t>(rng.next() % box_materials.size())];
    add_box(scene, lo, lo + size, material, /*inward=*/false);
  }
  return scene;
}

}  // namespace perfbench
