#include <vector>
#include "util/rng.hpp"
#include "util/threadpool.hpp"
namespace fixture {
void sweep(util::ThreadPool& pool, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> out(64, 0.0);
  pool.parallel_for(0, out.size(), [&](std::size_t i) {
    out[i] = rng.next_double();  // shared generator across tasks: flagged
  });
}
}  // namespace fixture
