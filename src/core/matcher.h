// The `Unw-Bip-Matching` black box interface (Theorems 4.1 / 4.8).
//
// The reduction is parametric in any (1-delta)-approximation algorithm for
// maximum-cardinality matching in bipartite graphs. Implementations also
// account for the cost of each invocation in their model's currency
// (streaming passes or MPC rounds), so the drivers can report the paper's
// complexity claims. Invocations made "in parallel" by the reduction (all
// tau pairs / all weight classes of one iteration) cost the *maximum*
// invocation cost, not the sum — that is exactly how the paper charges
// them (Section 4.4, implementation paragraphs).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph_view.h"
#include "graph/matching.h"
#include "mpc/mpc_context.h"
#include "runtime/runtime.h"
#include "util/rng.h"

namespace wmatch::runtime {
class Arena;  // only for fork_for_class's unused parameter (see below)
}  // namespace wmatch::runtime

namespace wmatch::core {

class UnweightedMatcher {
 public:
  virtual ~UnweightedMatcher() = default;

  /// (1-delta)-approximate maximum-cardinality matching of the bipartite
  /// graph g (side[v] in {0,1}). Implementations record their model cost
  /// via charge_invocation.
  virtual Matching solve(const GraphView& g, const std::vector<char>& side,
                         double delta) = 0;

  std::size_t invocations() const { return invocations_; }
  /// Cumulative model cost over all invocations.
  std::size_t total_cost() const { return total_cost_; }
  /// Largest single-invocation cost (parallel-composition charge).
  std::size_t max_invocation_cost() const { return max_cost_; }

  /// Per-class sub-accounting for one parallel improvement round (the
  /// merge discipline of DESIGN.md §5). `fork_for_class` returns an
  /// independent matcher whose counters (and, for MPC, simulated-cluster
  /// context) accumulate locally while weight classes run concurrently;
  /// `seed` feeds any randomness the fork owns. `merge_class` folds a
  /// fork back — call it at the round barrier, in class-ladder order,
  /// never concurrently; the base fold covers the shared counters, and
  /// overrides must invoke it before folding their own state. A nullptr
  /// fork means the matcher does not support forking and must be invoked
  /// serially instead.
  // The unused Arena* keeps perfbench/wmatch_perf.cpp's override compiling.
  virtual std::unique_ptr<UnweightedMatcher> fork_for_class(
      std::uint64_t seed, runtime::Arena* = nullptr) {
    (void)seed;
    return nullptr;
  }
  virtual void merge_class(const UnweightedMatcher& sub) {
    invocations_ += sub.invocations_;
    total_cost_ += sub.total_cost_;
    max_cost_ = std::max(max_cost_, sub.max_cost_);
  }

 protected:
  /// Records one black-box invocation of `cost` (model currency).
  void charge_invocation(std::size_t cost) {
    ++invocations_;
    total_cost_ += cost;
    max_cost_ = std::max(max_cost_, cost);
  }

 private:
  std::size_t invocations_ = 0;
  std::size_t total_cost_ = 0;
  std::size_t max_cost_ = 0;
};

/// Streaming black box: phase-limited Hopcroft–Karp. A phase that explores
/// augmenting paths of length 2i+1 costs 2i+1 passes (one pass per BFS
/// layer), so one invocation costs sum_{i<=phases}(2i+1) = O(1/delta^2)
/// passes — independent of n, which is what makes Theorem 1.2's pass count
/// Oe(1).
class HkStreamingMatcher final : public UnweightedMatcher {
 public:
  // The ignored RuntimeConfig keeps perfbench/wmatch_perf.cpp compiling.
  explicit HkStreamingMatcher(const runtime::RuntimeConfig& = {}) {}

  Matching solve(const GraphView& g, const std::vector<char>& side,
                 double delta) override;
  std::unique_ptr<UnweightedMatcher> fork_for_class(std::uint64_t seed,
                                                    runtime::Arena*) override;
};

/// MPC black box: LMSV11-style filtering + phase-limited Hopcroft–Karp on
/// the simulated cluster; costs are rounds charged to the MpcContext.
class MpcMatcher final : public UnweightedMatcher {
 public:
  MpcMatcher(mpc::MpcContext& ctx, Rng& rng) : ctx_(&ctx), rng_(&rng) {}

  Matching solve(const GraphView& g, const std::vector<char>& side,
                 double delta) override;
  /// A fork simulates its class on a private cluster of the same shape
  /// (own MpcContext + own seed-derived Rng); merge_class folds rounds,
  /// communication, the per-machine peak, and the violation flag back
  /// into the parent context (MpcContext::merge_parallel) on top of the
  /// base counter fold.
  std::unique_ptr<UnweightedMatcher> fork_for_class(std::uint64_t seed,
                                                    runtime::Arena*) override;
  void merge_class(const UnweightedMatcher& sub) override;

 private:
  MpcMatcher(const mpc::MpcConfig& config, std::uint64_t seed);

  std::unique_ptr<mpc::MpcContext> owned_ctx_;  ///< forks only
  std::unique_ptr<Rng> owned_rng_;              ///< forks only
  mpc::MpcContext* ctx_;
  Rng* rng_;
};

/// Exact black box (delta ignored; Hopcroft–Karp to optimality). Useful in
/// tests to isolate reduction behaviour from black-box slack.
class ExactMatcher final : public UnweightedMatcher {
 public:
  Matching solve(const GraphView& g, const std::vector<char>& side,
                 double delta) override;
  std::unique_ptr<UnweightedMatcher> fork_for_class(std::uint64_t seed,
                                                    runtime::Arena*) override;
};

}  // namespace wmatch::core
