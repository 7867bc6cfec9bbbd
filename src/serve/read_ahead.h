// ReadAhead — asynchronous cold reads for the serving front door.
//
// One background thread issues block fetches in scan order, ahead of
// the request's caller and helpers consuming them. A prefetched block
// enters the BlockCache through the same single-flight GetOrLoad as any
// other load, so a unit arriving at a block the prefetcher is filling
// waits on the cache's in-flight-load signal (attributed as cache_pin)
// instead of running the loader itself (miss_fill) — for sequential
// scans the disk time moves off the request's critical path entirely,
// and units mostly pin already-resident blocks.
//
// Requests open a Session naming the ordered blocks they will touch;
// the prefetcher interleaves sessions FIFO. A session's destructor
// cancels its outstanding prefetches and waits out an in-flight one, so
// the reader a session borrows can never be dereferenced after the
// owning request returns.
//
// Prefetch failures are deliberately swallowed: the scan path re-runs
// the same load and surfaces the error with full context.

#ifndef CORRA_SERVE_READ_AHEAD_H_
#define CORRA_SERVE_READ_AHEAD_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "obs/metrics.h"
#include "serve/table_reader.h"

namespace corra::serve {

class ReadAhead {
 public:
  /// Registry series (resolved by the owning service; never null).
  struct Counters {
    obs::Counter* issued = nullptr;   // Prefetch loads actually started.
    obs::Counter* skipped = nullptr;  // Blocks already resident/cancelled.
  };

  explicit ReadAhead(Counters counters);
  ~ReadAhead();
  ReadAhead(const ReadAhead&) = delete;
  ReadAhead& operator=(const ReadAhead&) = delete;

  /// One request's prefetch plan; destroying it cancels whatever has
  /// not been issued yet and blocks until any in-flight fetch for this
  /// session finishes (bounded by one block load).
  class Session {
   public:
    ~Session();
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

   private:
    friend class ReadAhead;
    Session(ReadAhead* owner, uint64_t id) : owner_(owner), id_(id) {}
    ReadAhead* owner_;
    uint64_t id_;
  };

  /// Queues `blocks` of `reader` for prefetch, in order. The reader
  /// must outlive the returned session.
  std::unique_ptr<Session> Start(const TableReader& reader,
                                 std::vector<size_t> blocks);

 private:
  struct Job {
    uint64_t session = 0;
    const TableReader* reader = nullptr;
    size_t block = 0;
  };

  void Loop();
  void Cancel(uint64_t session_id);

  Counters counters_;
  Mutex mu_;
  CondVar cv_;  // Signals new jobs, shutdown, and fetch completion.
  std::deque<Job> jobs_ CORRA_GUARDED_BY(mu_);
  // Session of the job being fetched.
  uint64_t active_session_ CORRA_GUARDED_BY(mu_) = 0;
  uint64_t next_session_ CORRA_GUARDED_BY(mu_) = 1;
  bool stop_ CORRA_GUARDED_BY(mu_) = false;
  std::thread thread_;  // Written by the ctor only.
};

}  // namespace corra::serve

#endif  // CORRA_SERVE_READ_AHEAD_H_
