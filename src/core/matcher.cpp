#include "core/matcher.h"

#include <cmath>

#include "exact/hopcroft_karp.h"
#include "mpc/mpc_matching.h"
#include "util/require.h"

namespace wmatch::core {

namespace {

std::size_t phases_for(double delta) {
  WMATCH_REQUIRE(delta > 0.0 && delta < 1.0, "delta in (0,1)");
  return static_cast<std::size_t>(std::ceil(1.0 / delta));
}

std::size_t pass_cost(std::size_t phases) {
  // Phase i explores paths of length 2i+1 -> 2i+1 passes.
  std::size_t cost = 0;
  for (std::size_t i = 1; i <= phases; ++i) cost += 2 * i + 1;
  return cost;
}

}  // namespace

Matching HkStreamingMatcher::solve(const GraphView& g,
                                   const std::vector<char>& side,
                                   double delta) {
  auto result = exact::hopcroft_karp(g, side, phases_for(delta));
  charge_invocation(pass_cost(result.phases));
  return std::move(result.matching);
}

std::unique_ptr<UnweightedMatcher> HkStreamingMatcher::fork_for_class(
    std::uint64_t /*seed*/, runtime::Arena*) {
  return std::make_unique<HkStreamingMatcher>();
}

Matching MpcMatcher::solve(const GraphView& g, const std::vector<char>& side,
                           double delta) {
  auto result = mpc::mpc_bipartite_matching(g, side, delta, *ctx_, *rng_);
  charge_invocation(result.rounds_used);
  return std::move(result.matching);
}

MpcMatcher::MpcMatcher(const mpc::MpcConfig& config, std::uint64_t seed)
    : owned_ctx_(std::make_unique<mpc::MpcContext>(config)),
      owned_rng_(std::make_unique<Rng>(seed)),
      ctx_(owned_ctx_.get()),
      rng_(owned_rng_.get()) {}

std::unique_ptr<UnweightedMatcher> MpcMatcher::fork_for_class(
    std::uint64_t seed, runtime::Arena*) {
  return std::unique_ptr<UnweightedMatcher>(
      new MpcMatcher(ctx_->config(), seed));
}

void MpcMatcher::merge_class(const UnweightedMatcher& sub) {
  UnweightedMatcher::merge_class(sub);
  ctx_->merge_parallel(*dynamic_cast<const MpcMatcher&>(sub).ctx_);
}

Matching ExactMatcher::solve(const GraphView& g, const std::vector<char>& side,
                             double delta) {
  (void)delta;
  auto result = exact::hopcroft_karp(g, side);
  charge_invocation(result.phases);
  return std::move(result.matching);
}

std::unique_ptr<UnweightedMatcher> ExactMatcher::fork_for_class(
    std::uint64_t /*seed*/, runtime::Arena*) {
  return std::make_unique<ExactMatcher>();
}

}  // namespace wmatch::core
