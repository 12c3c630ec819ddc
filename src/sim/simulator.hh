/**
 * @file
 * The Simulator owns the clock and the event queue and provides the
 * run-loop plus relative-time scheduling conveniences.
 */
// isol: domain(sim)

#ifndef ISOL_SIM_SIMULATOR_HH
#define ISOL_SIM_SIMULATOR_HH

#include <cstdint>
#include <functional>

#include "common/logging.hh"
#include "common/types.hh"
#include "sim/event_queue.hh"

namespace isol::sim
{

/**
 * Thrown instead of fatal() when an execution budget (the runAll event
 * storm guard) trips on a thread where budgets are recoverable — i.e.
 * the run executes as a sweep pool task, whose guard converts it into a
 * structured resource_exhausted task error instead of tearing down the
 * whole sweep. Runs outside the pool keep the hard fatal() path.
 */
class BudgetExceeded : public std::runtime_error
{
  public:
    explicit BudgetExceeded(const std::string &msg)
        : std::runtime_error(msg)
    {
    }
};

// isol-lint: allow(D4): per-thread error-path policy flag set by the
// sweep pool's task guard; never read by simulation decisions
inline thread_local bool t_recoverable_budgets = false;

/** True when budget overruns should throw BudgetExceeded (pool task). */
inline bool
recoverableBudgets()
{
    return t_recoverable_budgets;
}

/** Mark this thread's budget overruns recoverable (task guard scope). */
inline void
setRecoverableBudgets(bool on)
{
    t_recoverable_budgets = on;
}

/**
 * Deterministic single-threaded discrete-event simulator.
 *
 * Components hold a Simulator reference and schedule callbacks either at
 * absolute times (`at`) or relative delays (`after`). The driver calls
 * runUntil()/runAll() to advance the simulation.
 */
class Simulator
{
  public:
    using Callback = EventQueue::Callback;

    Simulator() = default;
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated time (ns). */
    SimTime now() const { return now_; }

    /** Total events executed so far (for performance reporting). */
    uint64_t eventsExecuted() const { return events_executed_; }

    /** High-water mark of pending events (for performance reporting). */
    size_t peakQueueDepth() const { return queue_.peakDepth(); }

    /** Schedule at an absolute time; must not be in the past. */
    EventId
    at(SimTime when, Callback cb)
    {
        if (when < now_)
            panic("Simulator::at: scheduling into the past");
        return queue_.schedule(when, std::move(cb));
    }

    /** Schedule after a non-negative relative delay. */
    EventId
    after(SimTime delay, Callback cb)
    {
        if (delay < 0)
            panic("Simulator::after: negative delay");
        return queue_.schedule(now_ + delay, std::move(cb));
    }

    /** Cancel a pending event. Returns true if it had not yet fired. */
    bool cancel(EventId id) { return queue_.cancel(id); }

    /** True when no further events are pending. */
    bool idle() const { return queue_.empty(); }

    /**
     * Run events with time <= `deadline`; afterwards now() == deadline
     * (even if the queue drained earlier), so periodic statistics windows
     * line up across runs.
     */
    void
    runUntil(SimTime deadline)
    {
        while (!queue_.empty() && queue_.nextTime() <= deadline)
            step();
        if (deadline > now_)
            now_ = deadline;
    }

    /**
     * Run up to `max_steps` events with time <= `deadline`. Returns the
     * number of events executed; when fewer than `max_steps` ran, the
     * queue is drained up to the deadline and now() == deadline, exactly
     * as after runUntil(). Lets a caller interleave watchdog/budget
     * polls with event execution without perturbing the simulation.
     */
    uint64_t
    runChunk(SimTime deadline, uint64_t max_steps)
    {
        uint64_t executed = 0;
        while (executed < max_steps && !queue_.empty() &&
               queue_.nextTime() <= deadline) {
            step();
            ++executed;
        }
        if (executed < max_steps && deadline > now_)
            now_ = deadline;
        return executed;
    }

    /**
     * Run until the event queue is empty. A non-zero `max_events` caps
     * how many events this call may execute: self-rescheduling event
     * storms (e.g. a mis-wired periodic timer) then fail loudly instead
     * of hanging the process — via a recoverable BudgetExceeded in a
     * sweep pool task, via fatal() otherwise.
     */
    void
    runAll(uint64_t max_events = 0)
    {
        uint64_t executed = 0;
        while (!queue_.empty()) {
            if (max_events != 0 && executed >= max_events) {
                std::string msg =
                    strCat("Simulator::runAll: executed ", executed,
                           " events without draining the queue — "
                           "event storm? (limit ", max_events, ")");
                if (recoverableBudgets())
                    throw BudgetExceeded(msg);
                fatal(msg);
            }
            step();
            ++executed;
        }
    }

    /** Execute exactly one event; returns false if none were pending. */
    bool
    step()
    {
        if (queue_.empty())
            return false;
        auto [when, cb] = queue_.pop();
        if (when < now_)
            panic("Simulator: time went backwards");
        now_ = when;
        ++events_executed_;
        cb();
        return true;
    }

  private:
    EventQueue queue_;
    SimTime now_ = 0;
    uint64_t events_executed_ = 0;
};

/**
 * Repeating timer helper: fires a callback every `period` ns until
 * stopped. Used for rq-qos window processing (io.latency / io.cost) and
 * statistics sampling.
 */
class PeriodicTimer
{
  public:
    /**
     * @param sim simulator driving the timer
     * @param period interval between firings (must be > 0)
     * @param cb invoked once per period
     */
    PeriodicTimer(Simulator &sim, SimTime period, SmallCallback cb)
        : sim_(sim), period_(period), cb_(std::move(cb))
    {
        if (period_ <= 0)
            panic("PeriodicTimer: period must be positive");
    }

    ~PeriodicTimer() { stop(); }

    PeriodicTimer(const PeriodicTimer &) = delete;
    PeriodicTimer &operator=(const PeriodicTimer &) = delete;

    /** Arm the timer; first firing after one period. */
    void
    start()
    {
        if (running_)
            return;
        running_ = true;
        armNext();
    }

    /** Disarm; pending firing is cancelled. */
    void
    stop()
    {
        running_ = false;
        if (pending_ != kInvalidEventId) {
            sim_.cancel(pending_);
            pending_ = kInvalidEventId;
        }
    }

    bool running() const { return running_; }

  private:
    void
    armNext()
    {
        pending_ = sim_.after(period_, [this] {
            pending_ = kInvalidEventId;
            if (!running_)
                return;
            cb_();
            if (running_)
                armNext();
        });
    }

    Simulator &sim_;
    SimTime period_;
    SmallCallback cb_;
    bool running_ = false;
    EventId pending_ = kInvalidEventId;
};

} // namespace isol::sim

#endif // ISOL_SIM_SIMULATOR_HH
