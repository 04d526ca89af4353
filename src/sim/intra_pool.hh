/**
 * @file
 * The simulator's one worker pool.
 *
 * Three tiers run on it, each with bodies over disjoint state: each
 * FrontEnd's per-core private phase (CoreFront::stage: one core's
 * generator draws and L1/L2, sim/front_end.hh), rack nodes' private
 * epoch halves (sim/rack.cc), and sweep cells (sim/sweep.cc).  The
 * shared work (L3, topology, engine, device) still replays the exact
 * global order single-threaded afterwards.  This pool is the sanctioned
 * home for threads (tools/toleo_lint bans raw std::thread elsewhere
 * -- new parallelism must go through a pool that preserves the
 * deterministic-replay structure).
 *
 * Design constraints, in order:
 *  - determinism: work assignment is a pure function of (index,
 *    thread count); nothing about scheduling can leak into results
 *    because the per-index bodies share no mutable state.  Static
 *    striping also keeps each core's or node's state on the same
 *    thread every batch.  The sweep, whose cells differ in cost,
 *    runs one body per thread that claims cells itself;
 *  - cheap dispatch: one batch of the private phase is only a few
 *    thousand references, so a dispatch is one mutex round-trip and
 *    one condition-variable wake, with the threads kept alive across
 *    the whole run (no spawn/join per batch);
 *  - clean teardown under exceptions: a throwing body is captured
 *    and rethrown on the caller after the barrier.
 */

#ifndef TOLEO_SIM_INTRA_POOL_HH
#define TOLEO_SIM_INTRA_POOL_HH

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace toleo {

class IntraPool
{
  public:
    /**
     * @param threads Total concurrency including the calling thread:
     * the pool spawns threads - 1 workers.  Must be >= 1; 1 spawns
     * nothing and run() degenerates to a plain loop.
     */
    explicit IntraPool(unsigned threads);
    ~IntraPool();

    IntraPool(const IntraPool &) = delete;
    IntraPool &operator=(const IntraPool &) = delete;

    /** Total concurrency (workers + the calling thread). */
    unsigned threads() const { return workers_ + 1; }

    /**
     * Run fn(i) for every i in [0, n), striped statically across the
     * pool (slot s handles i = s, s + T, ...; the caller is slot 0).
     * Blocks until every index has completed; the first exception
     * thrown by any body is rethrown here after the barrier.  The
     * bodies must touch disjoint state per index -- the pool adds no
     * locking around them.
     */
    void run(unsigned n, const std::function<void(unsigned)> &fn);

  private:
    void workerLoop(unsigned slot);
    /** Execute slot @p slot's stripe of the current task. */
    void runSlice(unsigned slot, const std::function<void(unsigned)> &fn,
                  unsigned n);

    unsigned workers_; ///< spawned threads (total - 1)
    std::vector<std::thread> pool_;

    std::mutex mutex_;
    std::condition_variable start_;
    std::condition_variable done_;
    /** Dispatch ticket: bumped once per run(); workers latch it. */
    std::uint64_t epoch_ = 0;
    /** Workers still inside the current task. */
    unsigned pending_ = 0;
    bool stop_ = false;
    unsigned taskN_ = 0;
    const std::function<void(unsigned)> *task_ = nullptr;
    std::exception_ptr firstError_;
};

} // namespace toleo

#endif // TOLEO_SIM_INTRA_POOL_HH
