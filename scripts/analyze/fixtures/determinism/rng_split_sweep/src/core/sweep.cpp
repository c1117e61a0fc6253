#include <vector>
#include "util/rng.hpp"
#include "util/threadpool.hpp"
namespace fixture {

// The run_sweep_grid seeding shape: a base generator captured by reference
// but only .split() (const) is called on it; each task derives its own
// substream, here via `auto` so no `Rng` token appears in the declaration.
// Sanctioned: per-task split generators are interleaving-independent.
std::vector<std::uint64_t> sweep(util::ThreadPool& pool, std::uint64_t seed) {
  const util::Rng base(seed);
  std::vector<std::uint64_t> seeds(64, 0);
  pool.parallel_for(0, seeds.size(), [&](std::size_t i) {
    auto rng = base.split(static_cast<std::uint64_t>(i));
    seeds[i] = rng.next_below(1u << 20);
  });
  return seeds;
}

}  // namespace fixture
