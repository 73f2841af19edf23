// The engine headers are self-contained: this TU includes them before any
// machine or payload header, so every name the explorer templates look up
// at their definition (hash_value on a plain std::uint64_t register value,
// which has no namespace for ADL to search) must come from the engine's
// own includes. Instantiating explorer<fa_mutex> and explorer<anon_mutex>
// here fails to compile if one is missing.
#include "modelcheck/explorer.hpp"
#include "modelcheck/parallel_explorer.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/anon_mutex.hpp"
#include "core/fa_mutex.hpp"
#include "mem/naming.hpp"

namespace anoncoord {
namespace {

TEST(HeaderOrderTest, ExplorerIncludedFirstInstantiatesForBothMachines) {
  explorer<fa_mutex> fa(2, naming_assignment::identity(2, 2),
                        std::vector<fa_mutex>(2, fa_mutex(2)));
  const auto fres = fa.explore();
  EXPECT_TRUE(fres.complete);
  EXPECT_GT(fres.num_states, 1u);

  parallel_explorer<anon_mutex>::options opt;
  opt.workers = 2;
  parallel_explorer<anon_mutex> anon(
      2, naming_assignment::identity(2, 2),
      {anon_mutex(1, 2), anon_mutex(2, 2)}, opt);
  const auto ares = anon.explore();
  EXPECT_TRUE(ares.complete);
  EXPECT_EQ(ares.num_edges, ares.num_states - 1 + ares.dedup_hits);
}

}  // namespace
}  // namespace anoncoord
