//! Pieces the workloads share: options, graph generation, repeated set-up,
//! timestamped engine runs and the per-layer counters of those runs.

use std::time::{Duration, Instant};

use bigraph::gen::chung_lu_bipartite;
use bigraph::BipartiteGraph;
use kbiplex::{ApiError, Biplex, Control, Enumerator, ParallelStats, RunReport, TraversalStats};

use crate::report::{metric, Metric, Source};
use crate::stats::{median, percentile_sorted};
use crate::trace::Tracer;

/// Options of one run.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Workload seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// Chung–Lu generator parameters.
#[derive(Clone, Copy, Debug)]
pub struct GenParams {
    /// Left vertices.
    pub left: u32,
    /// Right vertices.
    pub right: u32,
    /// Requested edges.
    pub edges: u64,
    /// Power-law exponent.
    pub gamma: f64,
    /// Generator seed.
    pub seed: u64,
}

impl GenParams {
    /// Generates the graph (sampling plus the CSR build).
    pub fn generate(&self) -> BipartiteGraph {
        chung_lu_bipartite(self.left, self.right, self.edges, self.gamma, self.seed)
    }
}

/// Runs `f` `reps` times inside `setup` spans and returns the median time in
/// seconds with the last result. Earlier results are dropped before the
/// next repetition starts, so peak memory is that of a single set-up.
pub fn repeated_setup<T>(
    reps: usize,
    tracer: &mut Tracer,
    mut f: impl FnMut(&mut Tracer) -> T,
) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for i in 0..reps.max(1) {
        drop(last.take());
        let open = tracer.enter("setup", i as u64);
        let t0 = Instant::now();
        let value = f(tracer);
        times.push(t0.elapsed().as_secs_f64());
        tracer.exit(open);
        last = Some(value);
    }
    (median(&times).unwrap_or(0.0), last.expect("at least one set-up ran"))
}

/// One engine run with every result timestamped by the benchmark's sink.
#[derive(Debug)]
pub struct TimedRun {
    /// The facade's report.
    pub report: RunReport,
    /// When the benchmark called `run`.
    pub start: Instant,
    /// Wall time around `run`, as the caller sees it.
    pub wall: Duration,
    /// Arrival time of every result at the sink.
    pub stamps: Vec<Instant>,
}

impl TimedRun {
    /// Time from the call to the first result.
    pub fn ttfr(&self) -> Option<Duration> {
        self.stamps.first().map(|t| t.saturating_duration_since(self.start))
    }

    /// Gaps between consecutive results, ns.
    pub fn gaps_ns(&self) -> impl Iterator<Item = f64> + '_ {
        self.stamps.windows(2).map(|w| w[1].saturating_duration_since(w[0]).as_nanos() as f64)
    }
}

/// Runs `e`, timestamping each result before handing it to `on`.
pub fn timed_run(
    e: &Enumerator<'_>,
    expected: usize,
    mut on: impl FnMut(&Biplex) + Send,
) -> Result<TimedRun, ApiError> {
    let mut stamps = Vec::with_capacity(expected);
    let start = Instant::now();
    let report = {
        let mut sink = |b: &Biplex| {
            stamps.push(Instant::now());
            on(b);
            Control::Continue
        };
        e.run(&mut sink)?
    };
    let wall = start.elapsed();
    Ok(TimedRun { report, start, wall, stamps })
}

/// Whether another iteration, as long as the median one so far, still ends
/// within `seconds` of `began`.
pub fn within(began: Instant, iter_s: &[f64], seconds: f64) -> bool {
    began.elapsed().as_secs_f64() + median(iter_s).unwrap_or(0.0) <= seconds
}

/// p50 and a tail percentile of a sample, in the sample's unit.
pub fn p50_and(values: &mut [f64], tail: f64) -> (f64, f64) {
    values.sort_by(f64::total_cmp);
    let p50 = percentile_sorted(values, 50.0).unwrap_or(f64::NAN);
    let pt = percentile_sorted(values, tail).unwrap_or(f64::NAN);
    (p50, pt)
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Exact counters of the sequential engine, averaged per engine run.
pub fn traversal_metrics(runs: &[TraversalStats]) -> Vec<Metric> {
    let m = |f: &dyn Fn(&TraversalStats) -> u64| mean(runs.iter().map(|s| f(s) as f64));
    let links = m(&|s| s.links);
    let dup = m(&|s| s.duplicate_links);
    let useful = if links > 0.0 { (links - dup) / links } else { 0.0 };
    vec![
        metric("traversal.almost_sat_graphs", m(&|s| s.almost_sat_graphs), "count", Source::Exact),
        metric("traversal.local_solutions", m(&|s| s.local_solutions), "count", Source::Exact),
        metric("traversal.links", links, "count", Source::Exact),
        metric("traversal.duplicate_links", dup, "count", Source::Exact),
        metric("traversal.pruned_exclusion", m(&|s| s.pruned_exclusion), "count", Source::Exact),
        metric(
            "traversal.pruned_right_shrinking",
            m(&|s| s.pruned_right_shrinking),
            "count",
            Source::Exact,
        ),
        metric("traversal.max_depth", m(&|s| s.max_depth as u64), "count", Source::Exact),
        metric("traversal.useful_ratio", useful, "ratio", Source::Computed),
        metric("eas.r_combinations", m(&|s| s.almost_sat.r_combinations), "count", Source::Exact),
        metric("eas.l_candidates", m(&|s| s.almost_sat.l_candidates), "count", Source::Exact),
    ]
}

/// Upper bound of `extend_to_maximal` calls per run (see
/// [`crate::replay::EngineWork::extend_calls`]).
pub fn extend_calls(runs: &[TraversalStats]) -> f64 {
    mean(runs.iter().map(|s| (s.local_solutions - s.pruned_right_shrinking - s.pruned_size) as f64))
}

/// Mean `EnumAlmostSat` calls per run.
pub fn almost_sat_calls(runs: &[TraversalStats]) -> f64 {
    mean(runs.iter().map(|s| s.almost_sat_graphs as f64))
}

/// Exact counters of the parallel engine, averaged per engine run; zero
/// when the workload does not run it.
pub fn parallel_metrics(runs: &[ParallelStats], seq_almost_sat: f64) -> Vec<Metric> {
    let m = |f: &dyn Fn(&ParallelStats) -> u64| mean(runs.iter().map(|s| f(s) as f64));
    let asg = m(&|s| s.almost_sat_graphs);
    let ratio = if seq_almost_sat > 0.0 { asg / seq_almost_sat } else { 0.0 };
    vec![
        metric("par.almost_sat_graphs", asg, "count", Source::Exact),
        metric("par.links", m(&|s| s.links), "count", Source::Exact),
        metric("par.steals", m(&|s| s.steals), "count", Source::Exact),
        metric("par.work_ratio", ratio, "ratio", Source::Computed),
    ]
}

/// Engine-reported run time against the caller's wall time, for workloads
/// that call the facade in-process: the closed-loop counterpart of the
/// service's `serve.run_ms` / `serve.overhead_ms` split.
pub fn run_split_metrics(runs: &[(Duration, Duration)]) -> Vec<Metric> {
    let mut run: Vec<f64> = runs.iter().map(|r| r.1.as_secs_f64() * 1e3).collect();
    let mut over: Vec<f64> =
        runs.iter().map(|r| r.0.as_secs_f64() * 1e3 - r.1.as_secs_f64() * 1e3).collect();
    let (run_p50, _) = p50_and(&mut run, 50.0);
    let (o50, o_tail) = p50_and(&mut over, 98.0);
    vec![
        metric("serve.run_ms.p50", run_p50, "ms", Source::Exact),
        metric("serve.overhead_ms.p50", o50, "ms", Source::Computed),
        metric("serve.overhead_ms.p98", o_tail, "ms", Source::Computed),
    ]
}

/// Bytes of the graph's two CSR halves: a `usize` offset per vertex plus
/// one on each side, and a `u32` id per edge endpoint.
pub fn csr_bytes(g: &BipartiteGraph) -> f64 {
    let offsets = (u64::from(g.num_left()) + 1 + u64::from(g.num_right()) + 1) * 8;
    let targets = g.num_edges() * 2 * 4;
    (offsets + targets) as f64
}

/// In-process edge updates on the workload's graph: the median time to
/// apply one toggle to a `DynamicBipartiteGraph`, without the snapshot.
/// This is the closed-loop counterpart of `update.overhead_ms.p50`.
pub fn update_toggle_metrics(g: &BipartiteGraph, seed: u64, tracer: &mut Tracer) -> Vec<Metric> {
    let mut dynamic = bigraph::DynamicBipartiteGraph::from_graph(g);
    let mut rng = crate::stats::Rng::new(seed, 9);
    let mut times = Vec::with_capacity(200);
    let open = tracer.enter("timed.update", 0);
    for _ in 0..200 {
        let v = rng.below(u64::from(g.num_left())) as u32;
        let u = rng.below(u64::from(g.num_right())) as u32;
        let t0 = Instant::now();
        let applied = if dynamic.has_edge(v, u) {
            dynamic.delete_edge(v, u)
        } else {
            dynamic.insert_edge(v, u)
        };
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(applied.is_ok());
    }
    tracer.exit(open);
    vec![metric("update.overhead_ms.p50", median(&times).unwrap_or(f64::NAN), "ms", Source::Timed)]
}

/// Typed error codes a request or run can fail with: the service's codes,
/// the facade's `ApiError` codes, and `transport` for a request that got
/// no response at all.
pub const REJECT_CODES: &[&str] = &[
    "overloaded",
    "shutting-down",
    "bad-request",
    "bad-update",
    "frame-too-large",
    "unsupported",
    "invalid-config",
    "resource",
    "transport",
];

/// One `serve.rejected.<code>` count per code of [`REJECT_CODES`].
pub fn rejected_metrics(counts: &std::collections::BTreeMap<String, u64>) -> Vec<Metric> {
    REJECT_CODES
        .iter()
        .map(|code| {
            let n = counts.get(*code).copied().unwrap_or(0);
            metric(format!("serve.rejected.{code}"), n as f64, "count", Source::Exact)
        })
        .collect()
}
