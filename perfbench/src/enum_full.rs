//! `enum-full`: full enumerations of the CI-shaped graph, on the sequential
//! facade and on the default parallel engine at two threads.
//!
//! The graph is fixed (Chung–Lu 50×50, 170 requested edges, γ 2.2,
//! generator seed 7), so the count and the order-independent digest of its
//! solutions are pinned below and every run of both engines is checked
//! against them. Relabeling the graph's vertices at random changes the
//! sequential engine's work by ±11% (190k–239k almost-satisfying graphs
//! over twelve permutations), more than the spread this workload must
//! stay within, so the workload seed only chooses the traced run's replay
//! sample.

use std::time::{Duration, Instant};

use kbiplex::{Algorithm, Engine, EngineStats, Enumerator, QuerySpec};

use crate::common::{
    almost_sat_calls, csr_bytes, extend_calls, p50_and, parallel_metrics, rejected_metrics,
    repeated_setup, run_split_metrics, timed_run, traversal_metrics, update_toggle_metrics, within,
    GenParams, Opts,
};
use crate::replay::{replay_layers, timed_layers, wire_layers, EngineWork, Reservoir, SAMPLE_CAP};
use crate::report::{metric, Outcome, Source};
use crate::stats::{median, slower_quartile, Digest, Rng};
use crate::trace::Tracer;

/// The base graph.
pub const GRAPH: GenParams = GenParams { left: 50, right: 50, edges: 170, gamma: 2.2, seed: 7 };
/// Worker threads of the parallel engine.
pub const THREADS: usize = 2;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 201;
/// Maximal 1-biplexes of the base graph.
pub const PINNED_COUNT: u64 = 10_976;
/// Order-independent digest of those solutions (see [`Digest`]).
pub const PINNED_DIGEST: &str = "35e0030a5b0cd3d15d0268cdadda9713";
/// θ of the core reduction timed as `core.reduce_ms`, as in `serve-mixed`.
const THETA: usize = 30;

fn spec(engine: Engine) -> QuerySpec {
    let mut s = QuerySpec { algorithm: Algorithm::ITraversal, engine, ..QuerySpec::default() };
    if engine != Engine::Sequential {
        s.threads = THREADS;
    }
    s
}

/// Runs the workload.
pub fn run(opts: &Opts, tracer: &mut Tracer, out: &mut Outcome) {
    let (setup_s, base) =
        repeated_setup(SETUP_REPS, tracer, |t| t.span("setup.gen", 0, || GRAPH.generate()));
    let seq_spec = spec(Engine::Sequential);
    let par_spec = spec(Engine::WorkSteal);
    let mut sample = Reservoir::new(SAMPLE_CAP, Rng::new(opts.seed, 2));

    let mut seq_rate = Vec::new();
    let mut par_ms = Vec::new();
    let mut par_rate = Vec::new();
    let mut gaps: Vec<(f64, f64)> = Vec::new();
    let mut n_gaps = 0usize;
    let mut seq_stats = Vec::new();
    let mut par_stats = Vec::new();
    let mut splits = Vec::new();
    let mut traced_wall = Vec::new();
    let mut untraced_wall = Vec::new();
    let mut par_cpu = (Duration::ZERO, Duration::ZERO);
    let mut last_report = None;
    let mut between = Vec::new();
    let mut last_end: Option<Instant> = None;

    let mut rejected = std::collections::BTreeMap::new();
    let began = Instant::now();
    let mut iter = 0u64;
    let mut iter_s: Vec<f64> = Vec::new();
    // A traced run needs a traced and an untraced run after the first.
    let min_iters = if opts.trace { 3 } else { 1 };
    while iter < min_iters || within(began, &iter_s, opts.seconds) {
        // Traced runs alternate: even iterations record spans, odd ones do
        // not, and the two walls give `trace.overhead_pct`.
        let traced = opts.trace && iter % 2 == 0;
        let mut off = Tracer::new(false, began);
        let tr: &mut Tracer = if traced { &mut *tracer } else { &mut off };
        let it_open = tr.enter("iteration", iter);
        let it_start = Instant::now();
        if let Some(end) = last_end {
            between.push(it_start.saturating_duration_since(end).as_secs_f64() * 1e3);
        }

        // Sequential facade.
        let mut digest = Digest::default();
        let take_sample = opts.trace && iter == 0;
        let open = tr.enter("engine.seq", iter);
        let seq = timed_run(&Enumerator::from_spec(&base, &seq_spec), PINNED_COUNT as usize, |b| {
            digest.add(&b.left, &b.right);
            if take_sample {
                sample.offer(|| b.clone());
            }
        });
        tr.exit(open);
        let seq = match seq {
            Ok(run) => run,
            Err(e) => {
                *rejected.entry(e.code().to_string()).or_insert(0) += 1;
                out.check(false, format!("sequential run {iter}: {e}"));
                break;
            }
        };
        if let Some(first) = seq.stamps.first() {
            tr.record("engine.first_result", iter, seq.start, *first);
        }
        out.check(
            seq.report.solutions == PINNED_COUNT
                && digest.count == PINNED_COUNT
                && digest.hex() == PINNED_DIGEST,
            format!(
                "iteration {iter}: sequential gave {} solutions, digest {} (pinned {PINNED_COUNT}, {PINNED_DIGEST})",
                digest.count,
                digest.hex()
            ),
        );
        seq_rate.push(seq.report.solutions as f64 / seq.wall.as_secs_f64());
        let mut gap_ns: Vec<f64> = seq.gaps_ns().collect();
        n_gaps += gap_ns.len();
        gaps.push(p50_and(&mut gap_ns, 99.9));
        splits.push((seq.wall, seq.report.elapsed));
        if let EngineStats::Sequential(s) = &seq.report.stats {
            seq_stats.push(s.clone());
        }

        // Default parallel engine at two threads.
        let mut par_digest = Digest::default();
        let cpu0 = crate::procfs::cpu_time();
        let open = tr.enter("engine.par", iter);
        let par = timed_run(&Enumerator::from_spec(&base, &par_spec), PINNED_COUNT as usize, |b| {
            par_digest.add(&b.left, &b.right);
        });
        tr.exit(open);
        let cpu1 = crate::procfs::cpu_time();
        let par = match par {
            Ok(run) => run,
            Err(e) => {
                *rejected.entry(e.code().to_string()).or_insert(0) += 1;
                out.check(false, format!("parallel run {iter}: {e}"));
                break;
            }
        };
        if let (Some(a), Some(b)) = (cpu0, cpu1) {
            par_cpu.0 += b.saturating_sub(a);
            par_cpu.1 += par.wall;
        }
        out.check(
            par_digest == digest && par.report.solutions == seq.report.solutions,
            format!(
                "iteration {iter}: parallel gave {} solutions, digest {} (sequential {}, {})",
                par_digest.count,
                par_digest.hex(),
                digest.count,
                digest.hex()
            ),
        );
        par_ms.push(par.wall.as_secs_f64() * 1e3);
        par_rate.push(par.report.solutions as f64 / par.wall.as_secs_f64());
        if let EngineStats::Parallel(s) = &par.report.stats {
            par_stats.push(s.clone());
        }
        tr.exit(it_open);
        // Iteration 0 also fills the replay sample, so it is left out of
        // the traced/untraced comparison.
        let wall = it_start.elapsed().as_secs_f64();
        if iter > 0 {
            if traced {
                traced_wall.push(wall)
            } else {
                untraced_wall.push(wall)
            }
        }
        last_report = Some(seq.report);
        last_end = Some(Instant::now());
        iter_s.push(it_start.elapsed().as_secs_f64());
        iter += 1;
    }
    let list = |v: &[f64]| v.iter().map(|r| format!("{r:.0}")).collect::<Vec<_>>().join(" ");
    out.notes.push(format!("sequential MBPs/s per iteration: {}", list(&seq_rate)));
    out.notes.push(format!("parallel MBPs/s per iteration: {}", list(&par_rate)));
    let gap_us = |f: fn(&(f64, f64)) -> f64| gaps.iter().map(|g| f(g) / 1e3).collect::<Vec<_>>();
    out.notes.push(format!("gap p50 us per iteration: {:?}", gap_us(|g| g.0)));
    out.notes.push(format!("gap tail us per iteration: {:?}", gap_us(|g| g.1)));
    out.notes.push(format!(
        "{iter} iterations (sequential + parallel), {} result gaps (highest tail with 10 beyond, per run: {})",
        n_gaps,
        crate::stats::supported_tail(n_gaps / iter.max(1) as usize).map_or("none".into(), crate::stats::percentile_label)
    ));

    let rss = crate::procfs::peak_rss_mb();
    if !opts.trace {
        // Gap percentiles per iteration, then the slower quartile over the
        // iterations, like every figure here: see `slower_quartile`.
        let slow = |v: &[f64], rates| slower_quartile(v, rates).unwrap_or(f64::NAN);
        let p50 = slow(&gaps.iter().map(|g| g.0).collect::<Vec<_>>(), false);
        let p999 = slow(&gaps.iter().map(|g| g.1).collect::<Vec<_>>(), false);
        let seq_mbps = slow(&seq_rate, true);
        let par_mbps = slow(&par_rate, true);
        out.metrics.push(metric("setup_s", setup_s, "s", Source::EndToEnd));
        out.metrics.push(metric("peak_rss_mb", rss.unwrap_or(f64::NAN), "MB", Source::EndToEnd));
        out.metrics.push(metric("mbps_per_s", seq_mbps, "1/s", Source::EndToEnd));
        out.metrics.push(metric("p50_ms", p50 / 1e6, "ms", Source::EndToEnd));
        out.metrics.push(metric("tail_ms", p999 / 1e6, "ms", Source::EndToEnd));
        out.metrics.push(metric("aux_ms", slow(&par_ms, false), "ms", Source::EndToEnd));
        out.named.push(metric("seq_mbps_per_s", seq_mbps, "1/s", Source::EndToEnd));
        out.named.push(metric("par_mbps_per_s", par_mbps, "1/s", Source::EndToEnd));
        return;
    }

    // Traced run: per-layer numbers.
    let seq_wall_us = median(&seq_rate).map_or(f64::NAN, |r| PINNED_COUNT as f64 / r * 1e6);
    let gen_s = median(&tracer.durations("setup.gen")).unwrap_or(f64::NAN) / 1e9;
    let ttfr = median(&tracer.durations("engine.first_result")).unwrap_or(f64::NAN) / 1e6;
    let m = &mut out.metrics;
    m.push(metric("gen.build_s", gen_s, "s", Source::Timed));
    m.push(metric("graph.csr_bytes", csr_bytes(&base), "bytes", Source::Computed));
    m.push(metric("engine.ttfr_ms", ttfr, "ms", Source::Timed));
    m.extend(traversal_metrics(&seq_stats));
    m.extend(parallel_metrics(&par_stats, almost_sat_calls(&seq_stats)));
    let util = if par_cpu.1 > Duration::ZERO {
        par_cpu.0.as_secs_f64() / (par_cpu.1.as_secs_f64() * THREADS as f64)
    } else {
        f64::NAN
    };
    m.push(metric("par.cpu_util", util, "ratio", Source::Computed));
    m.extend(run_split_metrics(&splits));
    m.extend(rejected_metrics(&rejected));
    let lag = p50_and(&mut between, 99.0).1;
    m.push(metric("loadgen.lag_ms.p99", lag, "ms", Source::Computed));
    let overhead = match (median(&traced_wall), median(&untraced_wall)) {
        (Some(t), Some(u)) => (t / u - 1.0) * 100.0,
        _ => f64::NAN,
    };
    m.push(metric("trace.overhead_pct", overhead, "%", Source::Computed));

    let work = EngineWork {
        almost_sat_graphs: almost_sat_calls(&seq_stats),
        extend_calls: extend_calls(&seq_stats),
        wall_us: seq_wall_us,
    };
    let mut replay_rng = Rng::new(opts.seed, 3);
    m.extend(replay_layers(&base, &sample.items, work, &mut replay_rng, tracer));
    m.extend(timed_layers(&base, THETA, tracer));
    if let Some(report) = &last_report {
        m.extend(wire_layers(&seq_spec, report, tracer));
    }
    m.extend(update_toggle_metrics(&base, opts.seed, tracer));
}
