#include "common/bit_util.h"

#include <algorithm>

namespace corra::bit_util {

MinMax ComputeMinMax(std::span<const int64_t> values) {
  MinMax mm{values.empty() ? 0 : values[0], values.empty() ? 0 : values[0]};
  for (int64_t v : values) {
    mm.min = std::min(mm.min, v);
    mm.max = std::max(mm.max, v);
  }
  return mm;
}

}  // namespace corra::bit_util
