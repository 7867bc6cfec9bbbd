// Timing utilities for the latency experiments (Fig. 5-8): the paper's
// selectivity sweeps and a repeated-measurement helper reporting the
// mean over its 10 selection vectors per selectivity. Time comes from
// obs::MonotonicNs, the one clock of the repository.

#ifndef CORRA_QUERY_LATENCY_H_
#define CORRA_QUERY_LATENCY_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace corra::query {

/// The selectivities of the paper's Fig. 5/8 sweep:
/// {0.001, 0.002, ..., 0.009, 0.01, 0.02, ..., 0.09, 0.1, 0.2, ..., 0.9, 1.0}.
std::vector<double> PaperSelectivitySweep();

/// Zoom-in selectivities of Fig. 6/7.
inline std::vector<double> ZoomSelectivities() {
  return {0.005, 0.01, 0.05, 0.1};
}

/// Runs `body(rows)` once per selection vector and returns the mean
/// wall-clock seconds per run. A `sink` value accumulated from the
/// materialized output defeats dead-code elimination.
double MeanRunSeconds(
    std::span<const std::vector<uint32_t>> selection_vectors,
    const std::function<void(std::span<const uint32_t>)>& body);

}  // namespace corra::query

#endif  // CORRA_QUERY_LATENCY_H_
