#include "sim/replicate.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"
#include "rng/philox.hpp"

namespace ksw::sim {

std::uint64_t replicate_seed(std::uint64_t base_seed, unsigned replicate) {
  // Mix the replicate index through SplitMix64 so nearby base seeds and
  // indices give decorrelated streams.
  rng::SplitMix64 sm(base_seed ^ (0x5851f42d4c957f2dULL *
                                  (static_cast<std::uint64_t>(replicate) + 1)));
  return sm.next();
}

NetworkResults replicate_network(const NetworkConfig& base,
                                 unsigned replicates, par::ThreadPool& pool) {
  if (replicates == 0)
    throw std::invalid_argument("replicate_network: replicates == 0");
  // Static contiguous-chunk sharding: replicates are equal-cost, so one
  // chunk per worker beats dynamic index stealing, and each replicate's
  // seed depends only on its index — results land in parts[i] regardless
  // of which worker ran it.
  std::vector<NetworkResults> parts(replicates);
  par::parallel_for_chunks(pool, replicates, [&](std::size_t i) {
    NetworkConfig cfg = base;
    cfg.seed = replicate_seed(base.seed, static_cast<unsigned>(i));
    parts[i] = run_network(cfg);
  });
  NetworkResults merged = std::move(parts[0]);
  {
    // Index-order merge keeps every aggregate bit-identical for a fixed
    // seed regardless of thread count; the timer makes the reduction cost
    // visible in run reports.
    obs::ScopedTimer timer(base.obs.enabled
                               ? &merged.metrics.timer("sim.phase.merge")
                               : nullptr);
    for (unsigned i = 1; i < replicates; ++i) merged.merge(parts[i]);
  }
  return merged;
}

FirstStageResults replicate_first_stage(const FirstStageConfig& base,
                                        unsigned replicates,
                                        par::ThreadPool& pool) {
  if (replicates == 0)
    throw std::invalid_argument("replicate_first_stage: replicates == 0");
  std::vector<FirstStageResults> parts(replicates);
  par::parallel_for_chunks(pool, replicates, [&](std::size_t i) {
    FirstStageConfig cfg = base;
    cfg.seed = replicate_seed(base.seed, static_cast<unsigned>(i));
    parts[i] = run_first_stage(cfg);
  });
  FirstStageResults merged = std::move(parts[0]);
  for (unsigned i = 1; i < replicates; ++i) merged.merge(parts[i]);
  return merged;
}

std::vector<double> replicate_network_means(const NetworkConfig& base,
                                            unsigned replicates,
                                            par::ThreadPool& pool,
                                            unsigned stage_index) {
  if (replicates == 0)
    throw std::invalid_argument("replicate_network_means: replicates == 0");
  std::vector<double> means(replicates);
  par::parallel_for_chunks(pool, replicates, [&](std::size_t i) {
    NetworkConfig cfg = base;
    cfg.seed = replicate_seed(base.seed, static_cast<unsigned>(i));
    const NetworkResults res = run_network(cfg);
    if (stage_index >= res.stage_wait.size())
      throw std::invalid_argument(
          "replicate_network_means: stage index out of range");
    means[i] = res.stage_wait[stage_index].mean();
  });
  return means;
}

}  // namespace ksw::sim
