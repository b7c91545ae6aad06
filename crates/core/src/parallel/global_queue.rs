//! The original global-queue scheduler, kept as the measured baseline.
//!
//! One LIFO work queue protected by a mutex plus a condition variable;
//! workers go to sleep when the queue is empty and the run terminates when
//! the queue is empty *and* no worker is mid-expansion (tracked by an
//! in-flight counter under the same lock). The seen-set is sharded into 64
//! independently locked hash sets. Every scheduling decision crosses the
//! single queue lock, which is exactly the serialisation the work-stealing
//! engine removes — the `parallel_scaling` bench and `BENCH_parallel.json`
//! quantify the difference.

use std::collections::{HashSet, VecDeque};
use std::sync::PoisonError;
use std::time::Duration;

use crate::sync::{plock, thread, Condvar, Mutex};

use super::seen::fnv1a;
use super::{expand_solution, ParRuntime, ParallelConfig, ParallelStats};
use crate::biplex::Biplex;
use crate::initial::initial_left_anchored;
use crate::stats::TraversalStats;
use crate::three_step::ThreeStep;

/// Number of independently locked shards of the seen-set.
const SHARDS: usize = 64;

/// Shared state of one global-queue run.
struct Shared {
    /// Pending solutions awaiting expansion + count of in-flight expansions.
    queue: Mutex<(VecDeque<Biplex>, usize)>,
    /// Wakes idle workers when work arrives or the run finishes.
    wake: Condvar,
    /// Sharded seen-set keyed on canonical keys.
    seen: Vec<Mutex<HashSet<Vec<u32>>>>,
    /// Solutions passing the size filter, collected across workers.
    results: Mutex<Vec<Biplex>>,
}

impl Shared {
    fn new() -> Self {
        Shared {
            queue: Mutex::new((VecDeque::new(), 0)),
            wake: Condvar::new(),
            seen: (0..SHARDS).map(|_| Mutex::new(HashSet::new())).collect(),
            results: Mutex::new(Vec::new()),
        }
    }

    /// Inserts `solution` into the sharded seen-set; `true` if it was new.
    fn insert(&self, solution: &Biplex) -> bool {
        let key = solution.canonical_key();
        let shard = fnv1a(&key) as usize % SHARDS;
        plock(&self.seen[shard]).insert(key)
    }

    /// Pushes a freshly discovered solution onto the work queue.
    fn push_work(&self, solution: Biplex) {
        let mut q = plock(&self.queue);
        q.0.push_back(solution);
        drop(q);
        self.wake.notify_one();
    }

    /// Pops a work item, blocking until one is available or the run is
    /// complete (queue empty and nothing in flight) or cancelled. Maintains
    /// the in-flight counter: the caller *must* call [`Shared::finish_work`]
    /// after processing a returned item.
    fn pop_work(&self, rt: &ParRuntime<'_>) -> Option<Biplex> {
        let mut q = plock(&self.queue);
        loop {
            if rt.should_stop() {
                // Abandon queued work; wake everyone so they observe the
                // flag instead of sleeping on an emptying queue.
                self.wake.notify_all();
                return None;
            }
            if let Some(item) = q.0.pop_back() {
                q.1 += 1;
                return Some(item);
            }
            if q.1 == 0 {
                // Nothing queued and nothing in flight: the traversal is
                // complete. Wake everyone so they observe the same state.
                self.wake.notify_all();
                return None;
            }
            q = if rt.cancel.is_some() || rt.deadline.is_some() {
                // With a cancellation flag or deadline in play the sleep is
                // bounded, so an external cancel (e.g. a dropped stream) or
                // an expiring deadline is observed without a notifier.
                self.wake
                    .wait_timeout(q, Duration::from_millis(1))
                    .unwrap_or_else(PoisonError::into_inner)
                    .0
            } else {
                self.wake.wait(q).unwrap_or_else(PoisonError::into_inner)
            };
        }
    }

    /// Marks the current work item as fully expanded.
    fn finish_work(&self) {
        let mut q = plock(&self.queue);
        q.1 -= 1;
        if q.0.is_empty() && q.1 == 0 {
            drop(q);
            self.wake.notify_all();
        }
    }
}

/// Runs the global-queue enumeration. Called through [`super::par_run`]
/// with [`ParallelEngine::GlobalQueue`](super::ParallelEngine::GlobalQueue).
pub(super) fn run(
    step: &ThreeStep<'_>,
    config: &ParallelConfig,
    rt: &ParRuntime<'_>,
) -> (Vec<Biplex>, ParallelStats) {
    let g = step.g;
    let threads = config.resolved_threads().max(1);
    let shared = Shared::new();
    let mut stats = ParallelStats { threads, ..ParallelStats::default() };

    let initial = initial_left_anchored(g, config.k);
    shared.insert(&initial);
    stats.solutions = 1;
    if initial.left.len() >= config.theta_left && initial.right.len() >= config.theta_right {
        stats.reported = 1;
        if !rt.deliver(&initial) {
            plock(&shared.results).push(initial.clone());
        }
    }
    shared.push_work(initial);

    thread::scope(|scope| {
        let handles: Vec<_> =
            (0..threads).map(|_| scope.spawn(|| worker(step, config, rt, &shared))).collect();
        for handle in handles {
            match handle.join() {
                Ok(counters) => stats.absorb(&counters),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });

    stats.stopped_early = rt.cancelled();
    let results = shared.results.into_inner().unwrap_or_else(PoisonError::into_inner);
    (results, stats)
}

/// One worker: repeatedly pops a solution and expands it.
fn worker(
    step: &ThreeStep<'_>,
    config: &ParallelConfig,
    rt: &ParRuntime<'_>,
    shared: &Shared,
) -> TraversalStats {
    let mut counters = TraversalStats::default();
    // Install the configured intersection kernel for this worker's whole
    // tenure (`--kernel` A/B override; workers start from `Kernel::Auto`).
    let _kernel = bigraph::intersect::set_thread_kernel(config.kernel);
    while let Some(host) = shared.pop_work(rt) {
        let on_new = |solution: Biplex, report: bool, expandable: bool| {
            if report && !rt.deliver(&solution) {
                plock(&shared.results).push(solution.clone());
            }
            if expandable && !rt.cancelled() {
                shared.push_work(solution);
            }
        };
        expand_solution(
            step,
            &host,
            &mut counters,
            |s: &Biplex| shared.insert(s),
            on_new,
            rt.cancel,
        );
        shared.finish_work();
    }
    counters
}
