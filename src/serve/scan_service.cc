#include "serve/scan_service.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <utility>

#include "encoding/scheme.h"
#include "query/aggregate.h"
#include "query/filter.h"
#include "query/scan.h"
#include "query/table_scan.h"

namespace corra::serve {

// One block's share of a request: `block` is the block to pin, and
// `slot` indexes the request's per-unit outputs (the block itself for
// Execute, the selection slice for Gather).
struct ScanService::Unit {
  size_t slot = 0;
  size_t block = 0;
};

// What every unit of one request shares.
struct ScanService::UnitWork {
  uint64_t deadline_ns = 0;  // Absolute MonotonicNs; 0 = none.
  std::span<const size_t> columns;  // Annotated on each unit's span.
  std::span<Status> statuses;       // By slot.
  std::span<obs::BlockSpan> spans;  // By slot; empty when not tracing.
  // The request's work against one pinned block; returns the rows the
  // block contributed to the request.
  std::function<uint64_t(size_t slot, const Block& block)> run;
};

// A request's claim cursor, shared with its helper tasks. Refcounted: a
// helper that starts after the request returned finds nothing to claim.
struct ScanService::Claims {
  const TableReader* reader;
  std::span<const Unit> units;
  const UnitWork* work;
  Mutex mu;
  CondVar cv;  // Signals the last unit done.
  size_t next CORRA_GUARDED_BY(mu) = 0;  // Next unit to claim.
  size_t done CORRA_GUARDED_BY(mu) = 0;  // Units run, pins released.

  // Claims units in order and runs each, until none is left. Only the
  // first claim waited in the queue (`handoff_ns`; 0 for the caller).
  // The caller then waits out the helpers still running a unit.
  void Run(uint64_t handoff_ns, bool caller) {
    MutexLock lock(mu);
    while (next < units.size()) {
      const Unit& unit = units[next++];
      lock.Unlock();
      RunUnit(*reader, unit, *work, std::exchange(handoff_ns, 0));
      lock.Lock();  // RunUnit released the pin before the unit is done.
      if (++done == units.size()) {
        cv.NotifyOne();  // Only the caller waits.
      }
    }
    while (caller && done < units.size()) {
      cv.Wait(mu);
    }
  }
};

namespace {

// Partial results of one block's share of a request; merged in block
// order once every unit is done.
struct BlockPartial {
  uint64_t rows_scanned = 0;
  uint64_t rows_matched = 0;
  std::vector<uint64_t> positions;
  std::vector<std::vector<int64_t>> columns;
  uint64_t agg_sum = 0;  // Wrap-around, like query::SumColumn.
  std::optional<int64_t> agg_min;
  std::optional<int64_t> agg_max;
};

Status ValidateColumns(const TableReader& reader,
                       const ScanRequest& request) {
  const size_t fields = reader.schema().num_fields();
  if (request.filter_column && *request.filter_column >= fields) {
    return Status::InvalidArgument("filter column out of range");
  }
  for (size_t col : request.project_columns) {
    if (col >= fields) {
      return Status::InvalidArgument("projected column out of range");
    }
  }
  if (request.aggregate && request.aggregate_column >= fields) {
    return Status::InvalidArgument("aggregate column out of range");
  }
  return Status::OK();
}

void FoldAggregate(AggregateOp op, std::span<const int64_t> values,
                   BlockPartial* out) {
  for (int64_t v : values) {
    switch (op) {
      case AggregateOp::kSum:
        out->agg_sum += static_cast<uint64_t>(v);
        break;
      case AggregateOp::kMin:
        out->agg_min = out->agg_min ? std::min(*out->agg_min, v) : v;
        break;
      case AggregateOp::kMax:
        out->agg_max = out->agg_max ? std::max(*out->agg_max, v) : v;
        break;
    }
  }
}

// Executes `request` against one pinned block. `base` is the global
// position of the block's first row.
void ScanOneBlock(const Block& block, uint64_t base,
                  const ScanRequest& request, BlockPartial* out) {
  out->rows_scanned = block.rows();

  // Selection: predicate pushdown, or the whole block.
  std::vector<uint32_t> selection;
  const bool all_rows = !request.filter_column.has_value();
  if (!all_rows) {
    selection = query::FilterToSelection(
        block.column(*request.filter_column), request.filter_lo,
        request.filter_hi);
    out->rows_matched = selection.size();
  } else {
    out->rows_matched = block.rows();
  }

  if (request.return_positions) {
    if (all_rows) {
      out->positions.resize(block.rows());
      std::iota(out->positions.begin(), out->positions.end(), base);
    } else {
      out->positions.reserve(selection.size());
      for (uint32_t row : selection) {
        out->positions.push_back(base + row);
      }
    }
  }

  out->columns.reserve(request.project_columns.size());
  for (size_t col : request.project_columns) {
    if (all_rows) {
      // Whole-block morsel decode through the ranged kernel — no
      // position vector is materialized for a dense scan.
      std::vector<int64_t> values(block.rows());
      query::ScanColumnRange(block, col, 0, block.rows(), values.data());
      out->columns.push_back(std::move(values));
    } else {
      out->columns.push_back(query::ScanColumn(block, col, selection));
    }
  }

  if (request.aggregate) {
    const size_t col = request.aggregate_column;
    if (all_rows) {
      // Whole-block aggregates run in the compressed domain.
      switch (*request.aggregate) {
        case AggregateOp::kSum:
          out->agg_sum =
              static_cast<uint64_t>(query::SumColumn(block.column(col)));
          break;
        case AggregateOp::kMin:
          if (const auto range = query::MinMaxColumn(block.column(col))) {
            out->agg_min = range->min;
          }
          break;
        case AggregateOp::kMax:
          if (const auto range = query::MinMaxColumn(block.column(col))) {
            out->agg_max = range->max;
          }
          break;
      }
    } else {
      // Reuse the projection's decode when the aggregate column was
      // already materialized for this selection.
      const auto projected = std::find(request.project_columns.begin(),
                                       request.project_columns.end(), col);
      if (projected != request.project_columns.end()) {
        FoldAggregate(
            *request.aggregate,
            out->columns[static_cast<size_t>(
                projected - request.project_columns.begin())],
            out);
      } else {
        const std::vector<int64_t> values =
            query::ScanColumn(block, col, selection);
        FoldAggregate(*request.aggregate, values, out);
      }
    }
  }
}

// The distinct columns a request touches, in first-use order (filter,
// then projections, then the aggregate) — the trace's per-block scheme
// annotation covers exactly these.
std::vector<size_t> TouchedColumns(const ScanRequest& request) {
  std::vector<size_t> cols;
  auto add = [&cols](size_t col) {
    if (std::find(cols.begin(), cols.end(), col) == cols.end()) {
      cols.push_back(col);
    }
  };
  if (request.filter_column) {
    add(*request.filter_column);
  }
  for (size_t col : request.project_columns) {
    add(col);
  }
  if (request.aggregate) {
    add(request.aggregate_column);
  }
  return cols;
}

// "index:scheme" comma-joined for `columns` of one block — the trace's
// per-block kernel annotation. Schemes are per block (auto-selection
// can differ block to block), so this runs against the pinned block.
std::string SchemesAnnotation(const Block& block,
                              std::span<const size_t> columns) {
  std::string out;
  for (size_t col : columns) {
    if (!out.empty()) {
      out += ',';
    }
    out += std::to_string(col);
    out += ':';
    out += enc::SchemeToString(block.column(col).scheme());
  }
  return out;
}

// First non-OK status across a request's block units, if any.
Status FirstError(std::span<const Status> statuses) {
  for (const Status& status : statuses) {
    if (!status.ok()) {
      return status;
    }
  }
  return Status::OK();
}

}  // namespace

ScanService::ScanService() : ScanService(Options{}) {}

ScanService::ScanService(Options options)
    : slow_trace_ns_(options.slow_trace_ns),
      slow_traces_(options.slow_trace_capacity),
      max_inflight_(options.max_inflight_requests) {
  obs::Registry& reg =
      options.registry != nullptr ? *options.registry : obs::Registry::Default();
  metrics_.requests = &reg.counter("serve.requests");
  metrics_.gather_requests = &reg.counter("serve.gather_requests");
  metrics_.rows_scanned = &reg.counter("serve.rows_scanned");
  metrics_.rows_matched = &reg.counter("serve.rows_matched");
  metrics_.gather_rows = &reg.counter("serve.gather_rows");
  metrics_.blocks_pruned = &reg.counter("serve.blocks_pruned");
  metrics_.rejected = &reg.counter("serve.rejected");
  metrics_.deadline_missed = &reg.counter("serve.deadline_missed");
  metrics_.partial_results = &reg.counter("serve.partial_results");
  metrics_.queue_depth = &reg.gauge("serve.queue_depth");
  metrics_.inflight = &reg.gauge("serve.inflight_requests");
  metrics_.latency_us =
      &reg.histogram("serve.request_latency_us", obs::LatencyBucketBoundsUs());
  for (size_t p = 0; p < obs::kNumPhases; ++p) {
    std::string name = "serve.phase_us{phase=\"";
    name += obs::PhaseName(static_cast<obs::Phase>(p));
    name += "\"}";
    metrics_.phase_us[p] =
        &reg.histogram(name, obs::LatencyBucketBoundsUs());
  }
  workers_.reserve(options.num_threads);
  for (size_t t = 0; t < options.num_threads; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void ScanService::FinishRequest(obs::RequestTrace trace, uint64_t start_ns,
                                obs::RequestTrace* sink) {
  trace.total_ns = obs::MonotonicNs() - start_ns;
  auto phase = [&trace](obs::Phase p) -> uint64_t& {
    return trace.phase_ns[static_cast<size_t>(p)];
  };
  uint64_t pruned = 0;
  for (const obs::BlockSpan& span : trace.blocks) {
    phase(obs::Phase::kQueueWait) += span.queue_ns;
    phase(obs::Phase::kCachePin) += span.pin_ns;
    phase(obs::Phase::kMissFill) += span.fill_ns;
    phase(obs::Phase::kDecodeFilter) += span.decode_ns;
    pruned += span.pruned ? 1 : 0;
  }
  metrics_.latency_us->Record(trace.total_ns / 1000);
  for (size_t p = 0; p < obs::kNumPhases; ++p) {
    metrics_.phase_us[p]->Record(trace.phase_ns[p] / 1000);
  }
  metrics_.rows_scanned->Add(trace.rows_scanned);
  metrics_.rows_matched->Add(trace.rows_matched);
  metrics_.blocks_pruned->Add(pruned);
  if (trace.total_ns >= slow_trace_ns_) {
    if (sink != nullptr) {
      slow_traces_.Push(trace);  // The caller keeps the original.
    } else {
      slow_traces_.Push(std::move(trace));
      return;
    }
  }
  if (sink != nullptr) {
    *sink = std::move(trace);
  }
}

Status ScanService::Admit(uint64_t deadline_ns) {
  if (deadline_ns != 0 && obs::MonotonicNs() > deadline_ns) {
    metrics_.deadline_missed->Increment();
    return Status::DeadlineExceeded("deadline expired before admission");
  }
  const size_t prior = inflight_.fetch_add(1, std::memory_order_relaxed);
  if (max_inflight_ != 0 && prior >= max_inflight_) {
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    metrics_.rejected->Increment();
    return Status::ResourceExhausted("scan service over max in-flight requests");
  }
  metrics_.inflight->Add(1);
  return Status::OK();
}

void ScanService::ReleaseSlot() {
  inflight_.fetch_sub(1, std::memory_order_relaxed);
  metrics_.inflight->Sub(1);
}

ScanService::~ScanService() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ScanService::WorkerLoop() {
  for (;;) {
    Helper helper;
    {
      MutexLock lock(mu_);
      while (!stop_ && helpers_.empty()) {
        cv_.Wait(mu_);
      }
      if (helpers_.empty()) {
        return;  // stop_ set and queue drained.
      }
      helper = std::move(helpers_.front());
      helpers_.pop_front();
    }
    metrics_.queue_depth->Sub(1);
    helper.claims->Run(helper.handoff_ns, /*caller=*/false);
  }
}

void ScanService::RunUnit(const TableReader& reader, const Unit& unit,
                          const UnitWork& work, uint64_t handoff_ns) {
  obs::BlockSpan* span = work.spans.empty() ? nullptr : &work.spans[unit.slot];
  const uint64_t t_start =
      span != nullptr || work.deadline_ns != 0 ? obs::MonotonicNs() : 0;
  if (span != nullptr) {
    span->block = static_cast<uint32_t>(unit.block);
    span->queue_ns = handoff_ns != 0 ? t_start - handoff_ns : 0;
  }
  if (work.deadline_ns != 0 && t_start > work.deadline_ns) {
    work.statuses[unit.slot] =
        Status::DeadlineExceeded("deadline expired before block scan");
    return;
  }
  BlockFetchStats fetch;
  auto handle = reader.GetBlock(unit.block, span != nullptr ? &fetch : nullptr);
  if (!handle.ok()) {
    work.statuses[unit.slot] = handle.status();
    return;
  }
  const uint64_t t_pinned = span != nullptr ? obs::MonotonicNs() : 0;
  const uint64_t rows = work.run(unit.slot, *handle.value());
  if (span != nullptr) {
    const uint64_t t_done = obs::MonotonicNs();
    span->rows = rows;
    span->cache_hit = !fetch.miss;
    span->retried = fetch.retries > 0;
    span->fill_ns = fetch.fill_ns;
    const uint64_t pin_total = t_pinned - t_start;
    span->pin_ns = pin_total > fetch.fill_ns ? pin_total - fetch.fill_ns : 0;
    span->decode_ns = t_done - t_pinned;
    span->schemes = SchemesAnnotation(*handle.value(), work.columns);
  }
}

void ScanService::RunUnits(const TableReader& reader,
                           std::span<const Unit> units,
                           const UnitWork& work) {
  auto claims = std::make_shared<Claims>(&reader, units, &work);
  const size_t helpers =
      units.size() > 1 ? std::min(workers_.size(), units.size() - 1) : 0;
  if (helpers > 0) {
    const uint64_t handoff_ns = work.spans.empty() ? 0 : obs::MonotonicNs();
    metrics_.queue_depth->Add(static_cast<int64_t>(helpers));
    MutexLock lock(mu_);
    helpers_.insert(helpers_.end(), helpers, Helper{claims, handoff_ns});
    lock.Unlock();  // Before notifying, so a woken worker can take mu_.
    for (size_t h = 0; h < helpers; ++h) {
      cv_.NotifyOne();
    }
  }
  claims->Run(0, /*caller=*/true);
}

Result<ScanResult> ScanService::Execute(const TableReader& reader,
                                        const ScanRequest& request) {
  CORRA_RETURN_NOT_OK(ValidateColumns(reader, request));
  CORRA_RETURN_NOT_OK(Admit(request.deadline_ns));
  struct Slot {
    ScanService* service;
    ~Slot() { service->ReleaseSlot(); }
  } slot{this};

  const size_t num_blocks = reader.num_blocks();
  std::vector<BlockPartial> partials(num_blocks);
  std::vector<Status> statuses(num_blocks);

  // All telemetry below keys off this one gate: with observability off
  // the request takes zero clock reads and allocates no spans.
  const bool tracing = obs::Enabled();
  const uint64_t t_start = tracing ? obs::MonotonicNs() : 0;
  obs::RequestTrace trace;
  trace.op = "execute";
  std::vector<obs::BlockSpan> spans;
  std::vector<size_t> touched;
  if (tracing) {
    spans.resize(num_blocks);
    touched = TouchedColumns(request);
  }

  // Stats pruning: a filtered request skips every block whose persisted
  // [min, max] cannot intersect the predicate — the block is never
  // fetched or decoded. Results are identical to the unpruned scan
  // because a disjoint range admits no matching row.
  const FileInfo& info = reader.info();
  const bool can_prune =
      request.filter_column.has_value() && info.has_column_stats;
  uint64_t blocks_skipped = 0;
  std::vector<Unit> units;
  units.reserve(num_blocks);
  for (size_t b = 0; b < num_blocks; ++b) {
    if (can_prune) {
      const ColumnStats& stats = info.Stats(b, *request.filter_column);
      if (request.filter_lo > stats.max || request.filter_hi < stats.min) {
        partials[b].rows_scanned = reader.block_rows(b);
        ++blocks_skipped;
        if (tracing) {
          spans[b].block = static_cast<uint32_t>(b);
          spans[b].rows = reader.block_rows(b);
          spans[b].pruned = true;
        }
        continue;
      }
    }
    units.push_back({.slot = b, .block = b});
  }
  const uint64_t t_built = tracing ? obs::MonotonicNs() : 0;

  RunUnits(reader, units,
           {.deadline_ns = request.deadline_ns,
            .columns = touched,
            .statuses = statuses,
            .spans = spans,
            .run = [&](size_t b, const Block& block) -> uint64_t {
              ScanOneBlock(block, reader.block_row_offsets()[b], request,
                           &partials[b]);
              return partials[b].rows_scanned;
            }});
  const uint64_t t_merge = tracing ? obs::MonotonicNs() : 0;

  // With allow_partial, per-block failures degrade the result instead
  // of failing it: the block's original status lands on failed_blocks
  // and the merge skips it. DeadlineExceeded is never downgraded.
  Status first_error;
  std::vector<ScanResult::BlockError> failed_blocks;
  size_t matched = 0;  // Sizes the merged outputs.
  for (size_t b = 0; b < num_blocks; ++b) {
    const Status& status = statuses[b];
    if (status.ok()) {
      matched += partials[b].rows_matched;
      continue;
    }
    if (status.IsDeadlineExceeded() || !request.allow_partial) {
      first_error = status;
      break;
    }
    failed_blocks.push_back({static_cast<uint64_t>(b), status});
  }
  if (!first_error.ok()) {
    if (first_error.IsDeadlineExceeded()) {
      metrics_.deadline_missed->Increment();
    }
    return first_error;
  }

  // Merge in block order, into outputs sized once.
  ScanResult result;
  result.blocks_skipped = blocks_skipped;
  result.positions.reserve(request.return_positions ? matched : 0);
  result.columns.resize(request.project_columns.size());
  for (std::vector<int64_t>& column : result.columns) {
    column.reserve(matched);
  }
  uint64_t agg_sum = 0;
  for (size_t b = 0; b < num_blocks; ++b) {
    if (!statuses[b].ok()) {
      continue;  // Reported on failed_blocks; contributes nothing.
    }
    BlockPartial& partial = partials[b];
    result.rows_scanned += partial.rows_scanned;
    result.rows_matched += partial.rows_matched;
    result.positions.insert(result.positions.end(),
                            partial.positions.begin(),
                            partial.positions.end());
    // Stats-pruned blocks carry no column vectors at all.
    for (size_t c = 0; c < partial.columns.size(); ++c) {
      result.columns[c].insert(result.columns[c].end(),
                               partial.columns[c].begin(),
                               partial.columns[c].end());
    }
    agg_sum += partial.agg_sum;
    if (partial.agg_min) {
      result.agg_min = result.agg_min
                           ? std::min(*result.agg_min, *partial.agg_min)
                           : partial.agg_min;
    }
    if (partial.agg_max) {
      result.agg_max = result.agg_max
                           ? std::max(*result.agg_max, *partial.agg_max)
                           : partial.agg_max;
    }
  }
  result.agg_sum = static_cast<int64_t>(agg_sum);
  result.failed_blocks = std::move(failed_blocks);
  if (!result.failed_blocks.empty()) {
    metrics_.partial_results->Increment();
  }

  if (tracing) {
    trace.rows_scanned = result.rows_scanned;
    trace.rows_matched = result.rows_matched;
    trace.phase_ns[static_cast<size_t>(obs::Phase::kBlockPrune)] =
        t_built - t_start;
    trace.phase_ns[static_cast<size_t>(obs::Phase::kMerge)] =
        obs::MonotonicNs() - t_merge;
    trace.blocks = std::move(spans);
    metrics_.requests->Increment();
    FinishRequest(std::move(trace), t_start,
                  request.collect_trace ? &result.trace.emplace() : nullptr);
  }
  return result;
}

Result<std::vector<std::vector<int64_t>>> ScanService::Gather(
    const TableReader& reader, std::span<const size_t> columns,
    std::span<const uint64_t> rows, const GatherOptions& options) {
  const size_t fields = reader.schema().num_fields();
  for (size_t col : columns) {
    if (col >= fields) {
      return Status::InvalidArgument("gathered column out of range");
    }
  }
  CORRA_RETURN_NOT_OK(Admit(options.deadline_ns));
  struct Slot {
    ScanService* service;
    ~Slot() { service->ReleaseSlot(); }
  } slot{this};

  const bool tracing = obs::Enabled();
  const uint64_t t_start = tracing ? obs::MonotonicNs() : 0;

  CORRA_ASSIGN_OR_RETURN(
      auto slices,
      query::SplitSelectionByBlocks(reader.block_row_offsets(), rows));

  std::vector<std::vector<int64_t>> out(columns.size());
  for (auto& column : out) {
    column.resize(rows.size());
  }
  std::vector<Status> statuses(slices.size());
  std::vector<obs::BlockSpan> spans;
  if (tracing) {
    spans.resize(slices.size());
  }
  std::vector<Unit> units;
  units.reserve(slices.size());
  for (size_t s = 0; s < slices.size(); ++s) {
    units.push_back({.slot = s, .block = slices[s].block});
  }

  RunUnits(reader, units,
           {.deadline_ns = options.deadline_ns,
            .columns = columns,
            .statuses = statuses,
            .spans = spans,
            .run = [&](size_t s, const Block& block) -> uint64_t {
              const query::SelectionSlice& slice = slices[s];
              for (size_t c = 0; c < columns.size(); ++c) {
                query::ScanColumn(block, columns[c], slice.local_rows,
                                  out[c].data() + slice.out_offset);
              }
              return slice.local_rows.size();
            }});

  const Status first_error = FirstError(statuses);
  if (!first_error.ok()) {
    if (first_error.IsDeadlineExceeded()) {
      metrics_.deadline_missed->Increment();
    }
    return first_error;
  }

  if (tracing) {
    obs::RequestTrace trace;
    trace.op = "gather";
    trace.rows_scanned = rows.size();
    trace.rows_matched = rows.size();
    trace.blocks = std::move(spans);
    metrics_.gather_requests->Increment();
    metrics_.gather_rows->Add(rows.size());
    FinishRequest(std::move(trace), t_start, options.trace);
  }
  return out;
}

}  // namespace corra::serve
