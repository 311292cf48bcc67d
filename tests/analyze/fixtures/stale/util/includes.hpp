// Fixture for the --stale audit over a cross-file rule: the first allow
// covers a real upward include (live, kept), the second an include that
// stays inside util (stale, reported).  Never compiled.
#pragma once

// mris-analyze: allow(layer-upward)
#include "sim/engine.hpp"

// mris-analyze: allow(layer-upward)
#include "util/base.hpp"
