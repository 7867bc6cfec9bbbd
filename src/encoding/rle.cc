#include "encoding/rle.h"

#include <algorithm>

#include "common/bit_util.h"
#include "common/simd/simd.h"

namespace corra::enc {

RleColumn::RleColumn(std::vector<int64_t> run_values,
                     std::vector<uint32_t> run_ends,
                     std::vector<uint32_t> checkpoints, size_t count)
    : run_values_(std::move(run_values)),
      run_ends_(std::move(run_ends)),
      checkpoints_(std::move(checkpoints)),
      count_(count) {}

Result<std::unique_ptr<RleColumn>> RleColumn::Encode(
    std::span<const int64_t> values) {
  if (values.size() > UINT32_MAX) {
    return Status::InvalidArgument("RLE column limited to 2^32-1 rows");
  }
  std::vector<int64_t> run_values;
  std::vector<uint32_t> run_ends;
  for (size_t i = 0; i < values.size();) {
    size_t j = i + 1;
    while (j < values.size() && values[j] == values[i]) {
      ++j;
    }
    run_values.push_back(values[i]);
    run_ends.push_back(static_cast<uint32_t>(j));
    i = j;
  }
  // Checkpoint: run index containing row k * interval.
  std::vector<uint32_t> checkpoints;
  size_t run = 0;
  for (size_t row = 0; row < values.size(); row += kCheckpointInterval) {
    while (run_ends[run] <= row) {
      ++run;
    }
    checkpoints.push_back(static_cast<uint32_t>(run));
  }
  return std::unique_ptr<RleColumn>(
      new RleColumn(std::move(run_values), std::move(run_ends),
                    std::move(checkpoints), values.size()));
}

size_t RleColumn::EstimateSizeBytes(std::span<const int64_t> values) {
  size_t runs = 0;
  for (size_t i = 0; i < values.size();) {
    size_t j = i + 1;
    while (j < values.size() && values[j] == values[i]) {
      ++j;
    }
    ++runs;
    i = j;
  }
  const size_t checkpoints =
      values.empty() ? 0 : (values.size() - 1) / kCheckpointInterval + 1;
  return runs * (sizeof(int64_t) + sizeof(uint32_t)) +
         checkpoints * sizeof(uint32_t);
}

Result<std::unique_ptr<RleColumn>> RleColumn::Deserialize(
    BufferReader* reader) {
  std::vector<int64_t> run_values;
  std::vector<uint32_t> run_ends;
  std::vector<uint32_t> checkpoints;
  uint64_t count = 0;
  CORRA_RETURN_NOT_OK(reader->ReadInt64Array(&run_values));
  CORRA_RETURN_NOT_OK(reader->ReadUint32Array(&run_ends));
  CORRA_RETURN_NOT_OK(reader->ReadUint32Array(&checkpoints));
  CORRA_RETURN_NOT_OK(reader->Read(&count));
  if (run_values.size() != run_ends.size()) {
    return Status::Corruption("RLE run arrays disagree");
  }
  // Run ends must be strictly increasing and finish exactly at count.
  uint32_t prev = 0;
  for (uint32_t end : run_ends) {
    if (end <= prev) {
      return Status::Corruption("RLE run ends not increasing");
    }
    prev = end;
  }
  if (!run_ends.empty() && run_ends.back() != count) {
    return Status::Corruption("RLE runs do not cover the column");
  }
  if (run_ends.empty() && count != 0) {
    return Status::Corruption("RLE missing runs");
  }
  const size_t expected_checkpoints =
      count == 0 ? 0 : (count - 1) / kCheckpointInterval + 1;
  if (checkpoints.size() != expected_checkpoints) {
    return Status::Corruption("RLE checkpoint count mismatch");
  }
  for (uint32_t c : checkpoints) {
    if (c >= run_values.size()) {
      return Status::Corruption("RLE checkpoint out of range");
    }
  }
  return std::unique_ptr<RleColumn>(
      new RleColumn(std::move(run_values), std::move(run_ends),
                    std::move(checkpoints), count));
}

size_t RleColumn::SizeBytes() const {
  return run_values_.size() * (sizeof(int64_t) + sizeof(uint32_t)) +
         checkpoints_.size() * sizeof(uint32_t);
}

namespace {

// Smallest run index >= `run` whose run covers `row`. The linear probe
// wins for the common short distances; selections that land many runs
// past the checkpoint (pathological run-per-row data) switch to a
// binary search over the run-end index instead of an unbounded walk.
size_t SeekRun(const std::vector<uint32_t>& run_ends, size_t run,
               size_t row) {
  constexpr size_t kLinearProbe = 8;
  const size_t probe_end = std::min(run + kLinearProbe, run_ends.size());
  for (size_t r = run; r < probe_end; ++r) {
    if (run_ends[r] > row) {
      return r;
    }
  }
  return static_cast<size_t>(
      std::upper_bound(run_ends.begin() + probe_end, run_ends.end(),
                       static_cast<uint32_t>(row)) -
      run_ends.begin());
}

}  // namespace

int64_t RleColumn::Get(size_t row) const {
  return run_values_[SeekRun(run_ends_, checkpoints_[row / kCheckpointInterval],
                             row)];
}

void RleColumn::GatherRange(std::span<const uint32_t> rows,
                            int64_t* out) const {
  const size_t n = rows.size();
  if (n == 0) {
    return;
  }
  // Density split (measured crossover at an average gap of ~8 rows on
  // the dev box: at gap 4 the dense path costs 1.9 vs 3.7 ns/row, at
  // gap 20 it costs 6.8 vs 4.9): a dense selection expands whole runs
  // into a window buffer with the vectorized ExpandRuns kernel and
  // compacts the selected values out — the per-row run *search* of the
  // walk below is the bound, not the expansion. Sparse (or unsorted)
  // selections walk run-by-run instead.
  constexpr size_t kDenseGatherMaxGap = 8;
  const size_t span = rows[n - 1] >= rows[0] ? rows[n - 1] - rows[0] + 1 : 0;
  if (span != 0 && span <= n * kDenseGatherMaxGap) {
    int64_t buffer[kMorselRows];
    size_t i = 0;
    while (i < n) {
      const size_t begin = rows[i];
      const size_t window_end = begin + kMorselRows;
      size_t j = i;
      size_t last = begin;
      while (j < n && rows[j] >= last && rows[j] < window_end) {
        last = rows[j];
        ++j;
      }
      const size_t run =
          SeekRun(run_ends_, checkpoints_[begin / kCheckpointInterval],
                  begin);
      simd::ExpandRuns(run_values_.data(), run_ends_.data(), run, begin,
                       last - begin + 1, buffer);
      for (; i < j; ++i) {
        out[i] = buffer[rows[i] - begin];
      }
    }
    return;
  }
  // The run pointer moves forward over a sorted selection, with a
  // checkpoint jump capping the forward scan when the selection skips
  // far ahead; a backward position (unsorted caller) re-seeks from its
  // checkpoint instead of returning a stale run.
  size_t run = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    const size_t row = rows[i];
    const size_t hint = checkpoints_[row / kCheckpointInterval];
    const size_t run_start = run == 0 ? 0 : run_ends_[run - 1];
    run = row < run_start ? hint : std::max(run, hint);
    run = SeekRun(run_ends_, run, row);
    out[i] = run_values_[run];
  }
}

void RleColumn::DecodeRange(size_t row_begin, size_t count,
                            int64_t* out) const {
  if (count == 0) {
    return;
  }
  // Checkpoint-seek to the run covering row_begin, then hand the whole
  // window to the vectorized run-expansion kernel (broadcast stores
  // instead of a per-row loop).
  const size_t run =
      SeekRun(run_ends_, checkpoints_[row_begin / kCheckpointInterval],
              row_begin);
  simd::ExpandRuns(run_values_.data(), run_ends_.data(), run, row_begin,
                   count, out);
}

void RleColumn::Serialize(BufferWriter* writer) const {
  writer->Write<uint8_t>(static_cast<uint8_t>(Scheme::kRle));
  writer->WriteInt64Array(run_values_);
  writer->WriteUint32Array(run_ends_);
  writer->WriteUint32Array(checkpoints_);
  writer->Write<uint64_t>(count_);
}

}  // namespace corra::enc
