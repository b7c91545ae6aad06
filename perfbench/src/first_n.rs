//! `first-n`: the first 100,000 maximal 1-biplexes of a graph whose CSR
//! exceeds the L2 cache, on the sequential facade, with every result
//! timestamped (the paper's Fig. 7/8 use).
//!
//! The graph is fixed (Chung–Lu 100k×100k, 10^6 requested edges, γ 2.5,
//! generator seed 7). The time to the first N results depends on the
//! handful of vertices the traversal starts from, so on other generator
//! seeds it ranges from 0.4 s to 10 s; a seeded graph would make the
//! workload's cost a property of the seed rather than of the code. The
//! workload seed chooses which results are re-checked for maximality and
//! which ones feed the traced run's replays.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use kbiplex::{is_maximal_k_biplex, Biplex, EngineStats, Enumerator, QuerySpec, StopReason};

use crate::common::{
    almost_sat_calls, csr_bytes, extend_calls, p50_and, parallel_metrics, rejected_metrics,
    repeated_setup, run_split_metrics, timed_run, traversal_metrics, update_toggle_metrics, within,
    GenParams, Opts,
};
use crate::replay::{replay_layers, timed_layers, wire_layers, EngineWork, Reservoir, SAMPLE_CAP};
use crate::report::{metric, Outcome, Source};
use crate::stats::{median, slower_quartile, solution_hash, Digest, Rng};
use crate::trace::Tracer;

/// The graph.
pub const GRAPH: GenParams =
    GenParams { left: 100_000, right: 100_000, edges: 1_000_000, gamma: 2.5, seed: 7 };
/// Results requested per run.
pub const N: u64 = 100_000;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 3;
/// Results re-checked with `is_maximal_k_biplex` per run.
const MAXIMALITY_SAMPLE: usize = 16;
/// Tail percentile of the gaps between results. Each run has 99,999 gaps,
/// so p99.9 would have 100 beyond it, but on a shared 2-core host p99.9
/// sits in the preemption tail: over 15 runs of the same code it ranged
/// from 78 to 245 µs, while p99 ranged from 51 to 63 µs.
pub const TAIL: f64 = 99.0;
/// θ of the core reduction timed as `core.reduce_ms`, as in `serve-mixed`.
const THETA: usize = 30;

/// The query: sequential iTraversal, k = 1, stop after [`N`] results.
pub fn spec() -> QuerySpec {
    QuerySpec { limit: Some(N), ..QuerySpec::default() }
}

/// Runs the workload.
pub fn run(opts: &Opts, tracer: &mut Tracer, out: &mut Outcome) {
    let (setup_s, g) =
        repeated_setup(SETUP_REPS, tracer, |t| t.span("setup.gen", 0, || GRAPH.generate()));
    let spec = spec();
    let k = spec.k;
    let mut check_sample = Reservoir::new(MAXIMALITY_SAMPLE, Rng::new(opts.seed, 4));
    let mut replay_sample = Reservoir::new(SAMPLE_CAP, Rng::new(opts.seed, 2));

    let mut rates = Vec::new();
    let mut ttfr_ms = Vec::new();
    let mut gaps: Vec<(f64, f64)> = Vec::new();
    let mut n_gaps = 0usize;
    let mut stats = Vec::new();
    let mut splits = Vec::new();
    let mut digests = Vec::new();
    let mut traced_wall = Vec::new();
    let mut untraced_wall = Vec::new();
    let mut between = Vec::new();
    let mut cpu = (Duration::ZERO, Duration::ZERO);
    let mut last_end: Option<Instant> = None;
    let mut last_report = None;

    let mut rejected = std::collections::BTreeMap::new();
    let began = Instant::now();
    let mut iter = 0u64;
    let mut iter_s: Vec<f64> = Vec::new();
    // A traced run needs a traced and an untraced run after the first.
    let min_iters = if opts.trace { 3 } else { 1 };
    while iter < min_iters || within(began, &iter_s, opts.seconds) {
        let traced = opts.trace && iter % 2 == 0;
        let mut off = Tracer::new(false, began);
        let tr: &mut Tracer = if traced { &mut *tracer } else { &mut off };
        let start = Instant::now();
        if let Some(end) = last_end {
            between.push(start.saturating_duration_since(end).as_secs_f64() * 1e3);
        }
        let first = iter == 0;
        let sample_replay = opts.trace && first;
        let mut distinct: HashSet<u64> = HashSet::with_capacity(N as usize);
        let mut digest = Digest::default();
        let cpu0 = crate::procfs::cpu_time();
        let open = tr.enter("engine.seq", iter);
        let run = timed_run(&Enumerator::from_spec(&g, &spec), N as usize, |b: &Biplex| {
            distinct.insert(solution_hash(&b.left, &b.right, 0xD15));
            digest.add(&b.left, &b.right);
            if first {
                check_sample.offer(|| b.clone());
            }
            if sample_replay {
                replay_sample.offer(|| b.clone());
            }
        });
        tr.exit(open);
        let cpu1 = crate::procfs::cpu_time();
        let run = match run {
            Ok(run) => run,
            Err(e) => {
                *rejected.entry(e.code().to_string()).or_insert(0) += 1;
                out.check(false, format!("run {iter}: {e}"));
                break;
            }
        };
        if let (Some(a), Some(b)) = (cpu0, cpu1) {
            cpu.0 += b.saturating_sub(a);
            cpu.1 += run.wall;
        }
        if let Some(first) = run.stamps.first() {
            tr.record("engine.first_result", iter, run.start, *first);
        }
        out.check(
            run.report.solutions == N
                && run.report.stop == StopReason::LimitReached
                && run.stamps.len() as u64 == N
                && distinct.len() as u64 == N,
            format!(
                "run {iter}: {} solutions reported, {} delivered, {} distinct, stop {} (want {N} distinct, limit-reached)",
                run.report.solutions,
                run.stamps.len(),
                distinct.len(),
                run.report.stop
            ),
        );
        digests.push(digest);
        rates.push(run.report.solutions as f64 / run.wall.as_secs_f64());
        if let Some(t) = run.ttfr() {
            ttfr_ms.push(t.as_secs_f64() * 1e3);
        }
        let mut gap_ns: Vec<f64> = run.gaps_ns().collect();
        n_gaps += gap_ns.len();
        gaps.push(p50_and(&mut gap_ns, TAIL));
        splits.push((run.wall, run.report.elapsed));
        if let EngineStats::Sequential(s) = &run.report.stats {
            stats.push(s.clone());
        }
        let wall = start.elapsed().as_secs_f64();
        if iter > 0 {
            if traced {
                traced_wall.push(wall);
            } else {
                untraced_wall.push(wall);
            }
        }
        last_report = Some(run.report);
        last_end = Some(Instant::now());
        iter_s.push(start.elapsed().as_secs_f64());
        iter += 1;
    }

    // The engine is deterministic: every run must deliver the same set.
    let same = digests.windows(2).all(|w| w[0] == w[1]);
    out.check(same, "runs on the same graph delivered different result sets".to_string());
    let open = tracer.enter("check.maximal", 0);
    for b in &check_sample.items {
        out.check(
            is_maximal_k_biplex(&g, &b.left, &b.right, k),
            format!(
                "sampled result |L|={} |R|={} is not a maximal {k}-biplex",
                b.left.len(),
                b.right.len()
            ),
        );
    }
    tracer.exit(open);
    let list = rates.iter().map(|r| format!("{r:.0}")).collect::<Vec<_>>().join(" ");
    out.notes.push(format!("MBPs/s per run: {list}"));
    let gap_us = |f: fn(&(f64, f64)) -> f64| gaps.iter().map(|g| f(g) / 1e3).collect::<Vec<_>>();
    out.notes.push(format!("gap p50 us per run: {:?}", gap_us(|g| g.0)));
    out.notes.push(format!("gap tail us per run: {:?}", gap_us(|g| g.1)));
    out.notes.push(format!("time to first result ms per run: {ttfr_ms:?}"));
    out.notes.push(format!(
        "{iter} runs of the first {N} results, {} gaps (highest tail with 10 beyond, per run: {}), {} results re-checked for maximality",
        n_gaps,
        crate::stats::supported_tail(n_gaps / iter.max(1) as usize).map_or("none".into(), crate::stats::percentile_label),
        check_sample.items.len()
    ));

    let rss = crate::procfs::peak_rss_mb();
    if !opts.trace {
        // Gap percentiles per run, then the slower quartile over the runs,
        // like every figure here: see `slower_quartile`.
        let slow = |v: &[f64], rates| slower_quartile(v, rates).unwrap_or(f64::NAN);
        let p50 = slow(&gaps.iter().map(|g| g.0).collect::<Vec<_>>(), false);
        let tail = slow(&gaps.iter().map(|g| g.1).collect::<Vec<_>>(), false);
        let rate = slow(&rates, true);
        let ttfr = slow(&ttfr_ms, false);
        out.metrics.push(metric("setup_s", setup_s, "s", Source::EndToEnd));
        out.metrics.push(metric("peak_rss_mb", rss.unwrap_or(f64::NAN), "MB", Source::EndToEnd));
        out.metrics.push(metric("mbps_per_s", rate, "1/s", Source::EndToEnd));
        out.metrics.push(metric("p50_ms", p50 / 1e6, "ms", Source::EndToEnd));
        out.metrics.push(metric("tail_ms", tail / 1e6, "ms", Source::EndToEnd));
        out.metrics.push(metric("aux_ms", ttfr, "ms", Source::EndToEnd));
        out.named.push(metric("firstn_mbps_per_s", rate, "1/s", Source::EndToEnd));
        out.named.push(metric("delay_p50_us", p50 / 1e3, "us", Source::EndToEnd));
        out.named.push(metric(
            format!("delay_{}_us", crate::stats::percentile_label(TAIL)),
            tail / 1e3,
            "us",
            Source::EndToEnd,
        ));
        return;
    }

    let wall_us = median(&rates).map_or(f64::NAN, |r| N as f64 / r * 1e6);
    let gen_s = median(&tracer.durations("setup.gen")).unwrap_or(f64::NAN) / 1e9;
    let ttfr = median(&tracer.durations("engine.first_result")).unwrap_or(f64::NAN) / 1e6;
    let m = &mut out.metrics;
    m.push(metric("gen.build_s", gen_s, "s", Source::Timed));
    m.push(metric("graph.csr_bytes", csr_bytes(&g), "bytes", Source::Computed));
    m.push(metric("engine.ttfr_ms", ttfr, "ms", Source::Timed));
    m.extend(traversal_metrics(&stats));
    m.extend(parallel_metrics(&[], 0.0));
    let util = if cpu.1 > Duration::ZERO {
        cpu.0.as_secs_f64() / (cpu.1.as_secs_f64() * 2.0)
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
        almost_sat_graphs: almost_sat_calls(&stats),
        extend_calls: extend_calls(&stats),
        wall_us,
    };
    let mut replay_rng = Rng::new(opts.seed, 3);
    m.extend(replay_layers(&g, &replay_sample.items, work, &mut replay_rng, tracer));
    m.extend(timed_layers(&g, THETA, tracer));
    if let Some(report) = &last_report {
        m.extend(wire_layers(&spec, report, tracer));
    }
    m.extend(update_toggle_metrics(&g, opts.seed, tracer));
}
