// The clutter-dist4 scene: a closed room lit from the ceiling and filled with
// seeded random boxes — a trace-bound input two orders of magnitude larger
// than the bundled cornell box, built through the public Scene/Patch API.
#pragma once

#include <cstdint>

#include "geom/scene.hpp"

namespace perfbench {

// Generates the 8000-box room (48,007 patches) from `seed` alone (SplitMix from seeded.hpp and its
// explicit double conversion, so a seed gives a bitwise-identical list on any
// platform). The scene is returned unbuilt: the caller picks and times the
// acceleration structure.
photon::Scene make_clutter_scene(std::uint64_t seed);

}  // namespace perfbench
