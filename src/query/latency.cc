#include "query/latency.h"

#include "obs/trace.h"

namespace corra::query {

std::vector<double> PaperSelectivitySweep() {
  std::vector<double> sweep;
  for (int i = 1; i <= 9; ++i) {
    sweep.push_back(0.001 * i);
  }
  for (int i = 1; i <= 9; ++i) {
    sweep.push_back(0.01 * i);
  }
  for (int i = 1; i <= 10; ++i) {
    sweep.push_back(0.1 * i);
  }
  return sweep;
}

double MeanRunSeconds(
    std::span<const std::vector<uint32_t>> selection_vectors,
    const std::function<void(std::span<const uint32_t>)>& body) {
  if (selection_vectors.empty()) {
    return 0;
  }
  const uint64_t begin = obs::MonotonicNs();
  for (const auto& rows : selection_vectors) {
    body(rows);
  }
  return obs::SecondsSince(begin) /
         static_cast<double>(selection_vectors.size());
}

}  // namespace corra::query
