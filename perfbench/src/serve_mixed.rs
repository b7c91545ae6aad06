//! `serve-mixed`: an in-process `mbpe-serve` over the `first-n` graph,
//! driven as an open loop by two threads on two connections.
//!
//! Queries arrive at a fixed rate and alternate between a first-1000 query
//! and an `Algorithm::Large` probe whose (θ−k)-core is empty: the probe
//! pays the full core reduction and returns nothing. Edge updates arrive
//! at their own fixed rate; update `j` toggles background pair `j mod 64`,
//! so the edge set oscillates close to the base graph and the benchmark
//! knows the edge count after every update. The workload seed picks the
//! background pairs and the phase of both schedules.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use bigraph::BipartiteGraph;
use kbiplex::{Algorithm, Biplex, EngineStats, Enumerator, QuerySpec};
use mbpe_serve::{
    Client, QueryRequest, Request, Response, ServeConfig, Server, ServerHandle, UpdateOp,
};

use crate::common::{
    almost_sat_calls, csr_bytes, extend_calls, p50_and, parallel_metrics, rejected_metrics,
    timed_run, traversal_metrics, Opts,
};
use crate::loadgen::{drive, schedule, TcpLink, Timing};
use crate::replay::{replay_layers, timed_layers, EngineWork};
use crate::report::{metric, Metric, Outcome, Source};
use crate::stats::{median, Digest, Rng};
use crate::trace::Tracer;

/// Offered query rate (queries alternate between the two kinds): a third
/// of the ~45 queries/s at which the backlog starts to grow on a 2-core
/// host. At half that capacity the query tail moved by more than half
/// between runs of the same code.
pub const QUERY_RATE: f64 = 15.0;
/// Offered edge-update rate. Updates alone sustain over 200/s; at 100/s
/// their snapshots take enough CPU from the queries to triple the query
/// tail.
pub const UPDATE_RATE: f64 = 22.0;
/// Tail percentile reported for both latency streams: a 35 s run has 525
/// queries and 770 updates, and p98 is the highest percentile that leaves
/// at least ten samples beyond it in both (p99 would leave 5 and 7).
pub const TAIL: f64 = 98.0;
/// Tail percentile of the gated `tail_ms`, taken over the update
/// latencies; it leaves 38 of 770 samples beyond it. The query tail is
/// printed but not gated: it follows the CPU time the host takes from the
/// guest (query p95 between 73 and 129 ms across runs of the same code, in
/// step with steal between 1% and 13%), while the update p95 stayed
/// between 54 and 59 ms over the same runs.
pub const GATED_TAIL: f64 = 95.0;
/// Results asked of every first-1000 query.
pub const FIRST: u64 = 1000;
/// θ of the empty-core Large probe (both sides).
pub const THETA: usize = 30;
/// Background pairs the update stream toggles.
const BACKGROUND: usize = 64;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 5;
/// How long the generator waits for outstanding responses after the last
/// request was due.
const DRAIN: Duration = Duration::from_secs(10);

/// The first-1000 query.
pub fn first_spec() -> QuerySpec {
    QuerySpec { limit: Some(FIRST), ..QuerySpec::default() }
}

/// The empty-core Large probe.
pub fn probe_spec() -> QuerySpec {
    QuerySpec {
        algorithm: Algorithm::Large,
        theta_left: THETA,
        theta_right: THETA,
        ..QuerySpec::default()
    }
}

/// Edges present among the background pairs after update `j` (0-based):
/// the pairs start absent, a round of 64 updates inserts them all, the next
/// round deletes them all.
fn present_after(j: usize) -> u64 {
    let done_in_round = (j % BACKGROUND + 1) as u64;
    if (j / BACKGROUND) % 2 == 0 {
        done_in_round
    } else {
        BACKGROUND as u64 - done_in_round
    }
}

fn update_op(j: usize) -> UpdateOp {
    if (j / BACKGROUND) % 2 == 0 {
        UpdateOp::Insert
    } else {
        UpdateOp::Delete
    }
}

/// Distinct non-edges of `g` drawn from `rng`.
fn background_pairs(g: &BipartiteGraph, n: usize, rng: &mut Rng) -> Vec<(u32, u32)> {
    let mut out: Vec<(u32, u32)> = Vec::with_capacity(n);
    while out.len() < n {
        let v = rng.below(u64::from(g.num_left())) as u32;
        let u = rng.below(u64::from(g.num_right())) as u32;
        if !g.has_edge(v, u) && !out.contains(&(v, u)) {
            out.push((v, u));
        }
    }
    out
}

fn digest_of(solutions: &[Biplex]) -> Digest {
    let mut d = Digest::default();
    for b in solutions {
        d.add(&b.left, &b.right);
    }
    d
}

/// One started server with its warm-up done.
struct Served {
    handle: ServerHandle,
    base_edges: u64,
}

/// Starts the server on `g` and sends one warm-up request of each kind
/// (first-1000, probe, and the update inserting `warm`).
fn start(tracer: &mut Tracer, g: BipartiteGraph, warm: (u32, u32)) -> Result<Served, String> {
    let base_edges = g.num_edges();
    let handle = tracer
        .span("setup.server", 0, || Server::start(ServeConfig::default(), g))
        .map_err(|e| format!("server start: {e}"))?;
    let warmed = tracer.span("setup.warmup", 0, || -> Result<(), String> {
        let mut c = Client::connect(handle.addr(), "bench-warmup").map_err(|e| e.to_string())?;
        c.query(&first_spec()).map_err(|e| e.to_string())?;
        c.query(&probe_spec()).map_err(|e| e.to_string())?;
        c.insert_edge(warm.0, warm.1).map_err(|e| e.to_string())?;
        Ok(())
    });
    if let Err(e) = warmed {
        handle.shutdown();
        return Err(format!("warm-up: {e}"));
    }
    Ok(Served { handle, base_edges })
}

/// What one connection's generator saw.
struct Stream {
    timings: Vec<Timing>,
    received: std::collections::HashMap<usize, crate::loadgen::Received>,
    tracer: Tracer,
    error: Option<String>,
}

fn run_stream(
    addr: std::net::SocketAddr,
    origin: Instant,
    dues: &[u64],
    trace: bool,
    make: impl FnMut(usize) -> Request,
) -> Stream {
    let link = TcpStream::connect(addr)
        .and_then(|stream| TcpLink::new(stream, origin, make, Tracer::new(trace, origin)));
    match link {
        Ok(mut link) => {
            let (timings, error) = drive(&mut link, dues, DRAIN.as_nanos() as u64);
            Stream { timings, received: link.received, tracer: link.tracer, error }
        }
        Err(e) => Stream {
            timings: dues.iter().map(|&due| Timing { due, ..Timing::default() }).collect(),
            received: Default::default(),
            tracer: Tracer::new(false, origin),
            error: Some(e.to_string()),
        },
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Runs the workload.
pub fn run(opts: &Opts, tracer: &mut Tracer, out: &mut Outcome) {
    let mut rng = Rng::new(opts.seed, 5);
    // Set-up: graph generation, server start and warm-up, repeated; the
    // median is reported and the last server is kept. The background pairs
    // are drawn from the first graph, outside the timed part.
    let mut setup_times = Vec::new();
    let mut served: Option<Served> = None;
    let mut pairs = Vec::new();
    for i in 0..SETUP_REPS {
        if let Some(s) = served.take() {
            s.handle.shutdown();
        }
        let open = tracer.enter("setup", i as u64);
        let t0 = Instant::now();
        let g = tracer.span("setup.gen", 0, || crate::first_n::GRAPH.generate());
        let gen_time = t0.elapsed();
        if pairs.is_empty() {
            pairs = background_pairs(&g, BACKGROUND + 1, &mut rng);
        }
        let t1 = Instant::now();
        let started = start(tracer, g, pairs[BACKGROUND]);
        setup_times.push((gen_time + t1.elapsed()).as_secs_f64());
        tracer.exit(open);
        match started {
            Ok(s) => served = Some(s),
            Err(e) => {
                out.check(false, e);
                return;
            }
        }
    }
    let setup_s = median(&setup_times).unwrap_or(f64::NAN);
    let Served { handle, base_edges } = served.expect("set-up ran");
    let addr = handle.addr();

    // Open-loop phase.
    let n_q = ((opts.seconds * QUERY_RATE).floor() as usize).max(2);
    let n_u = ((opts.seconds * UPDATE_RATE).floor() as usize).max(1);
    let origin = Instant::now();
    let start_ns = 50_000_000;
    let q_dues = schedule(start_ns, (rng.unit() * 1e9 / QUERY_RATE) as u64, QUERY_RATE, n_q);
    let u_dues = schedule(start_ns, (rng.unit() * 1e9 / UPDATE_RATE) as u64, UPDATE_RATE, n_u);
    let first = first_spec();
    let probe = probe_spec();
    let cpu0 = crate::procfs::cpu_time();
    let (qs, us) = std::thread::scope(|scope| {
        let q = scope.spawn(|| {
            run_stream(addr, origin, &q_dues, opts.trace, |j| {
                let spec = if j % 2 == 0 { first.clone() } else { probe.clone() };
                Request::Query(QueryRequest {
                    id: j as u64 + 1,
                    tenant: "bench-query".into(),
                    spec,
                    include_solutions: true,
                })
            })
        });
        let us = run_stream(addr, origin, &u_dues, opts.trace, |j| {
            let (left, right) = pairs[j % BACKGROUND];
            Request::Update { id: j as u64 + 1, op: update_op(j), left, right }
        });
        (q.join().expect("query generator thread panicked"), us)
    });
    let phase_wall = origin.elapsed();
    let cpu1 = crate::procfs::cpu_time();
    for (what, e) in [("query", &qs.error), ("update", &us.error)] {
        if let Some(e) = e {
            out.notes.push(format!("{what} connection: {e}"));
        }
    }

    // Check every response.
    let mut rejected: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    let mut reject = |code: &str| *rejected.entry(code.to_string()).or_default() += 1;
    let mut q_lat = Vec::with_capacity(n_q);
    let mut first_lat = Vec::with_capacity(n_q / 2 + 1);
    let mut run_ms = Vec::new();
    let mut overhead_ms = Vec::new();
    let mut first_rates = Vec::new();
    let mut first_stats = Vec::new();
    let mut traced_lat = Vec::new();
    let mut untraced_lat = Vec::new();
    let mut decode_us = Vec::new();
    let mut encode_us = Vec::new();
    let mut lag_ms = Vec::new();
    for (j, t) in qs.timings.iter().enumerate() {
        lag_ms.extend(t.lag_ns().map(ms));
        let is_first = j % 2 == 0;
        let got = qs.received.get(&j);
        let ok = match (got.map(|r| &r.response), t.latency_ns()) {
            (Some(Response::Result { report, solutions, .. }), Some(lat)) => {
                let n = solutions.as_ref().map_or(0, Vec::len) as u64;
                let want = if is_first { FIRST } else { 0 };
                let lat_ms = ms(lat);
                q_lat.push(lat_ms);
                let elapsed = report.elapsed.as_secs_f64() * 1e3;
                run_ms.push(elapsed);
                overhead_ms.push(lat_ms - elapsed);
                if is_first {
                    first_lat.push(lat_ms);
                    first_rates.push(n as f64 / report.elapsed.as_secs_f64());
                    if let EngineStats::Sequential(s) = &report.stats {
                        first_stats.push(s.clone());
                    }
                    if opts.trace && (j / 2) % 2 == 0 {
                        traced_lat.push(lat_ms);
                    } else {
                        untraced_lat.push(lat_ms);
                    }
                }
                n == want && report.solutions == want
            }
            (Some(Response::Error { code, .. }), _) => {
                reject(code);
                q_lat.push(f64::INFINITY);
                false
            }
            _ => {
                reject("transport");
                q_lat.push(f64::INFINITY);
                false
            }
        };
        if let Some(r) = got {
            decode_us.push(r.decode_ns as f64 / 1e3);
            if opts.trace {
                let t0 = Instant::now();
                std::hint::black_box(r.response.to_json().encode());
                encode_us.push(t0.elapsed().as_secs_f64() * 1e6);
            }
        }
        out.check(
            ok,
            format!(
                "query {j} ({}) failed or returned the wrong number of results",
                if is_first { "first-1000" } else { "probe" }
            ),
        );
    }
    let mut u_lat = Vec::with_capacity(n_u);
    for (j, t) in us.timings.iter().enumerate() {
        lag_ms.extend(t.lag_ns().map(ms));
        let expected = base_edges + 1 + present_after(j);
        let ok = match (us.received.get(&j).map(|r| &r.response), t.latency_ns()) {
            (Some(Response::Updated { changed, snapshot, .. }), Some(lat)) => {
                u_lat.push(ms(lat));
                *changed && snapshot.edges == expected
            }
            (Some(Response::Error { code, .. }), _) => {
                reject(code);
                u_lat.push(f64::INFINITY);
                false
            }
            _ => {
                reject("transport");
                u_lat.push(f64::INFINITY);
                false
            }
        };
        out.check(
            ok,
            format!("update {j}: failed, or the snapshot does not have {expected} edges"),
        );
    }

    // Quiesced: replay each spec through the service and the facade on the
    // server's current snapshot, and check the edge count against the model.
    let snap = handle.snapshot();
    let want_edges = base_edges + 1 + n_u.checked_sub(1).map_or(0, present_after);
    out.check(
        snap.num_edges() == want_edges,
        format!(
            "final snapshot has {} edges, the update script implies {want_edges}",
            snap.num_edges()
        ),
    );
    let mut local_first = None;
    match Client::connect(addr, "bench-check") {
        Ok(mut client) => {
            for (name, spec) in [("first-1000", &first), ("probe", &probe)] {
                let open = tracer.enter("check.replay", 0);
                let svc = client.query(spec);
                let mut collected = Vec::new();
                let local = timed_run(&Enumerator::from_spec(&snap, spec), FIRST as usize, |b| {
                    collected.push(b.clone())
                });
                tracer.exit(open);
                let ok = match (&svc, &local) {
                    (Ok(s), Ok(_)) => {
                        let sols = s.solutions.as_deref().unwrap_or(&[]);
                        sols.len() == collected.len() && digest_of(sols) == digest_of(&collected)
                    }
                    _ => false,
                };
                out.check(
                    ok,
                    format!("{name}: service and facade disagree on the quiesced snapshot"),
                );
                if name == "first-1000" {
                    local_first = local.ok().map(|run| (run, collected));
                }
            }
        }
        Err(e) => out.check(false, format!("check connection: {e}")),
    }
    out.notes.push(format!(
        "{n_q} queries at {QUERY_RATE}/s, {n_u} updates at {UPDATE_RATE}/s over {:.1} s",
        phase_wall.as_secs_f64()
    ));

    let rss = crate::procfs::peak_rss_mb();
    let (q50, q_tail) = p50_and(&mut q_lat, TAIL);
    let q_gated = crate::stats::percentile_sorted(&q_lat, GATED_TAIL).unwrap_or(f64::NAN);
    let first50 = median(&first_lat).unwrap_or(f64::NAN);
    let (u50, u_tail) = p50_and(&mut u_lat, TAIL);
    let u_gated = crate::stats::percentile_sorted(&u_lat, GATED_TAIL).unwrap_or(f64::NAN);
    let tail_name = crate::stats::percentile_label(TAIL);
    for (what, n) in [("query", q_lat.len()), ("update", u_lat.len())] {
        out.notes.push(format!(
            "{what} tail {tail_name}: {} of {n} samples beyond (highest tail with 10 beyond: {})",
            crate::stats::samples_beyond(n, TAIL),
            crate::stats::supported_tail(n).map_or("none".into(), crate::stats::percentile_label)
        ));
    }
    if !opts.trace {
        let rate = median(&first_rates).unwrap_or(f64::NAN);
        out.metrics.push(metric("setup_s", setup_s, "s", Source::EndToEnd));
        out.metrics.push(metric("peak_rss_mb", rss.unwrap_or(f64::NAN), "MB", Source::EndToEnd));
        out.metrics.push(metric("mbps_per_s", rate, "1/s", Source::EndToEnd));
        out.metrics.push(metric("p50_ms", q50, "ms", Source::EndToEnd));
        out.metrics.push(metric("tail_ms", u_gated, "ms", Source::EndToEnd));
        out.metrics.push(metric("aux_ms", u50, "ms", Source::EndToEnd));
        out.named.push(metric("query_p50_ms", q50, "ms", Source::EndToEnd));
        out.named.push(metric("first1000_p50_ms", first50, "ms", Source::EndToEnd));
        out.named.push(metric(format!("query_{tail_name}_ms"), q_tail, "ms", Source::EndToEnd));
        let gated_label = crate::stats::percentile_label(GATED_TAIL);
        out.named.push(metric(format!("query_{gated_label}_ms"), q_gated, "ms", Source::EndToEnd));
        out.named.push(metric("update_p50_ms", u50, "ms", Source::EndToEnd));
        out.named.push(metric(format!("update_{gated_label}_ms"), u_gated, "ms", Source::EndToEnd));
        out.named.push(metric(format!("update_{tail_name}_ms"), u_tail, "ms", Source::EndToEnd));
        handle.shutdown();
        return;
    }

    // Traced run: per-layer numbers.
    let m: &mut Vec<Metric> = &mut out.metrics;
    let gen_s = median(&tracer.durations("setup.gen")).unwrap_or(f64::NAN) / 1e9;
    m.push(metric("gen.build_s", gen_s, "s", Source::Timed));
    m.push(metric("graph.csr_bytes", csr_bytes(&snap), "bytes", Source::Computed));
    let ttfr = local_first
        .as_ref()
        .and_then(|(run, _)| run.ttfr())
        .map_or(f64::NAN, |t| t.as_secs_f64() * 1e3);
    m.push(metric("engine.ttfr_ms", ttfr, "ms", Source::Timed));
    m.extend(traversal_metrics(&first_stats));
    m.extend(parallel_metrics(&[], 0.0));
    let util = match (cpu0, cpu1) {
        (Some(a), Some(b)) => b.saturating_sub(a).as_secs_f64() / (phase_wall.as_secs_f64() * 2.0),
        _ => f64::NAN,
    };
    m.push(metric("par.cpu_util", util, "ratio", Source::Computed));
    let (run_p50, _) = p50_and(&mut run_ms, 50.0);
    let (o50, o_tail) = p50_and(&mut overhead_ms, TAIL);
    m.push(metric("serve.run_ms.p50", run_p50, "ms", Source::Exact));
    m.push(metric("serve.overhead_ms.p50", o50, "ms", Source::Computed));
    m.push(metric("serve.overhead_ms.p98", o_tail, "ms", Source::Computed));
    m.extend(rejected_metrics(&rejected));
    let mean =
        |v: &[f64]| if v.is_empty() { f64::NAN } else { v.iter().sum::<f64>() / v.len() as f64 };
    m.push(metric("wire.encode_us", mean(&encode_us), "us", Source::Timed));
    m.push(metric("wire.decode_us", mean(&decode_us), "us", Source::Timed));
    let timed = timed_layers(&snap, THETA, tracer);
    let snapshot_ms =
        timed.iter().find(|x| x.name == "update.snapshot_ms").map_or(f64::NAN, |x| x.value);
    m.extend(timed);
    m.push(metric("update.overhead_ms.p50", u50 - snapshot_ms, "ms", Source::Computed));
    let lag = p50_and(&mut lag_ms, 99.0).1;
    m.push(metric("loadgen.lag_ms.p99", lag, "ms", Source::Computed));
    let overhead = match (median(&traced_lat), median(&untraced_lat)) {
        (Some(t), Some(u)) => (t / u - 1.0) * 100.0,
        _ => f64::NAN,
    };
    m.push(metric("trace.overhead_pct", overhead, "%", Source::Computed));
    if let Some((_, sols)) = &local_first {
        let work = EngineWork {
            almost_sat_graphs: almost_sat_calls(&first_stats),
            extend_calls: extend_calls(&first_stats),
            wall_us: median(&run_ms).unwrap_or(f64::NAN) * 1e3,
        };
        let mut replay_rng = Rng::new(opts.seed, 3);
        m.extend(replay_layers(&snap, sols, work, &mut replay_rng, tracer));
    }
    // One span per request, from its due time to its response.
    let mut q_tr = qs.tracer;
    q_tr.absorb(us.tracer);
    for (name, timings) in [("request.query", &qs.timings), ("request.update", &us.timings)] {
        for (j, t) in timings.iter().enumerate() {
            if let Some(done) = t.done {
                let at = |ns: u64| origin + Duration::from_nanos(ns);
                q_tr.record(name, j as u64, at(t.due), at(done));
            }
        }
    }
    tracer.absorb(q_tr);
    handle.shutdown();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_model_toggles_in_rounds() {
        assert_eq!(present_after(0), 1);
        assert_eq!(present_after(BACKGROUND - 1), BACKGROUND as u64);
        assert_eq!(present_after(BACKGROUND), BACKGROUND as u64 - 1);
        assert_eq!(present_after(2 * BACKGROUND - 1), 0);
        assert_eq!(present_after(2 * BACKGROUND), 1);
        assert_eq!(update_op(0), UpdateOp::Insert);
        assert_eq!(update_op(BACKGROUND), UpdateOp::Delete);
    }
}
