// The parallel explorer is explorer<Machine> with options.workers > 1 (see
// explorer.hpp: the successor-generation stage runs on a worker pool). This
// name is kept for code that spells it.
#pragma once

#include "modelcheck/explorer.hpp"

namespace anoncoord {

template <class Machine>
using parallel_explorer = explorer<Machine>;

}  // namespace anoncoord
