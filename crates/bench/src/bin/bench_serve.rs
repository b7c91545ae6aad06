//! Service benchmark: closed-loop traffic against an in-process
//! `mbpe-serve` daemon, with machine-readable latency output.
//!
//! Starts the daemon over a Chung–Lu bipartite graph, then drives it with
//! `--tenants` concurrent clients (each its own connection and scheduling
//! tenant), every client issuing `--requests` queries back-to-back from a
//! small rotating mix of [`QuerySpec`]s (thresholded, limited, btraversal,
//! parallel). Every response's solution count is cross-checked against a
//! direct in-process [`Enumerator`] run of the identical spec on the same
//! graph, so the benchmark doubles as a service-vs-facade equivalence
//! check. The headline numbers are per-query latency percentiles
//! (p50/p95/p99) and aggregate throughput. Each latency is split into the
//! server's run time (`RunReport.elapsed`) and the rest (`latency − run`:
//! queueing, encoding and transport), with p50/p99 of both.
//!
//! Results go to `BENCH_serve.json` (uploaded by CI's `serve-smoke` job).
//!
//! Usage: `cargo run --release -p mbpe-bench --bin bench_serve --
//!         [--left 400] [--right 400] [--edges 4000] [--gamma 2.5]
//!         [--tenants 8] [--requests 25] [--workers 0] [--seed 7]
//!         [--out BENCH_serve.json]`

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use bigraph::gen::chung_lu_bipartite;
use kbiplex::{CountingSink, Engine, Enumerator, QuerySpec};
use mbpe_bench::{percentile, Args};
use mbpe_serve::{Client, ServeConfig, Server};

/// The rotating query mix: label + spec. Every variant carries a solution
/// limit so one request is bounded work even on adversarial graphs (the
/// counts stay deterministic — `min(limit, total)` — so the facade
/// cross-check still bites).
fn query_mix() -> Vec<(&'static str, QuerySpec)> {
    let base =
        QuerySpec { theta_left: 3, theta_right: 3, limit: Some(2_000), ..QuerySpec::default() };
    let mut limited = base.clone();
    limited.limit = Some(200);
    let mut dense = base.clone();
    dense.theta_left = 4;
    dense.theta_right = 4;
    let mut parallel = base.clone();
    parallel.engine = Engine::WorkSteal;
    parallel.threads = 2;
    vec![("itraversal", base), ("limit-200", limited), ("theta-4", dense), ("parallel-2", parallel)]
}

fn main() {
    let args = Args::parse();
    let left: u32 = args.get("left", 400u32);
    let right: u32 = args.get("right", 400u32);
    let edges: u64 = args.get("edges", 4_000u64);
    let gamma: f64 = args.get("gamma", 2.5f64);
    let tenants: usize = args.get("tenants", 8usize);
    let requests: usize = args.get("requests", 25usize);
    let workers: usize = args.get("workers", 0usize);
    let seed: u64 = args.get("seed", 7u64);
    let out_path = args.get_str("out").unwrap_or("BENCH_serve.json").to_string();
    assert!(tenants > 0 && requests > 0, "--tenants and --requests must be positive");

    let g = chung_lu_bipartite(left, right, edges, gamma, seed);
    eprintln!(
        "serve bench: {left}x{right} |E| = {} (gamma {gamma} seed {seed}), \
         {tenants} tenants x {requests} requests, workers = {workers}",
        g.num_edges()
    );

    // Ground truth: the same specs run through the facade directly.
    let mix = query_mix();
    let expected: Vec<u64> = mix
        .iter()
        .map(|(label, spec)| {
            let mut sink = CountingSink::new();
            let report = Enumerator::from_spec(&g, spec).run(&mut sink).expect("direct facade run");
            eprintln!("facade {label}: {} solutions ({:?})", report.solutions, report.stop);
            report.solutions
        })
        .collect();

    let cfg = ServeConfig { workers, ..ServeConfig::default() };
    let handle = Server::start(cfg, g).expect("server starts");
    let addr = handle.addr();

    let bench_start = Instant::now();
    let threads: Vec<_> = (0..tenants)
        .map(|t| {
            let mix = query_mix();
            let expected = expected.clone();
            // (latency, server-side run time) per request.
            std::thread::spawn(move || -> Vec<(Duration, Duration)> {
                let tenant = format!("tenant-{t}");
                let mut client = Client::connect(addr, &tenant).expect("connect");
                let mut latencies = Vec::with_capacity(requests);
                for i in 0..requests {
                    let pick = (t + i) % mix.len();
                    let (label, spec) = &mix[pick];
                    let start = Instant::now();
                    let report = client.count(spec).expect("service query");
                    latencies.push((start.elapsed(), report.elapsed));
                    assert_eq!(
                        report.solutions, expected[pick],
                        "service diverged from the direct facade on {label}"
                    );
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<Duration> = Vec::with_capacity(tenants * requests);
    let mut runs: Vec<Duration> = Vec::with_capacity(tenants * requests);
    let mut overheads: Vec<Duration> = Vec::with_capacity(tenants * requests);
    for thread in threads {
        for (latency, run) in thread.join().expect("tenant thread") {
            latencies.push(latency);
            runs.push(run);
            overheads.push(latency.saturating_sub(run));
        }
    }
    let wall = bench_start.elapsed().as_secs_f64();
    handle.shutdown();

    latencies.sort_unstable();
    runs.sort_unstable();
    overheads.sort_unstable();
    let total = latencies.len();
    let p50 = percentile(&latencies, 50.0).as_secs_f64();
    let p95 = percentile(&latencies, 95.0).as_secs_f64();
    let p99 = percentile(&latencies, 99.0).as_secs_f64();
    let run_p50 = percentile(&runs, 50.0).as_secs_f64();
    let run_p99 = percentile(&runs, 99.0).as_secs_f64();
    let overhead_p50 = percentile(&overheads, 50.0).as_secs_f64();
    let overhead_p99 = percentile(&overheads, 99.0).as_secs_f64();
    let throughput = total as f64 / wall;
    eprintln!(
        "{total} requests in {wall:.3}s  throughput {throughput:.1} req/s  \
         p50 {:.1}ms  p95 {:.1}ms  p99 {:.1}ms",
        p50 * 1e3,
        p95 * 1e3,
        p99 * 1e3
    );
    eprintln!(
        "run (server-side) p50 {:.1}ms  p99 {:.1}ms; \
         latency - run (queueing + transport) p50 {:.1}ms  p99 {:.1}ms",
        run_p50 * 1e3,
        run_p99 * 1e3,
        overhead_p50 * 1e3,
        overhead_p99 * 1e3
    );
    eprintln!("service counts matched the direct facade on all {total} responses");

    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"left\": {left}, \"right\": {right}, \"edges\": {edges},");
    let _ = writeln!(s, "  \"gamma\": {gamma}, \"seed\": {seed},");
    let _ = writeln!(
        s,
        "  \"tenants\": {tenants}, \"requests_per_tenant\": {requests}, \"workers\": {workers},"
    );
    let _ = writeln!(s, "  \"total_requests\": {total},");
    let _ = writeln!(s, "  \"wall_secs\": {wall:.6},");
    let _ = writeln!(s, "  \"throughput_rps\": {throughput:.3},");
    let _ = writeln!(s, "  \"latency_p50_secs\": {p50:.9},");
    let _ = writeln!(s, "  \"latency_p95_secs\": {p95:.9},");
    let _ = writeln!(s, "  \"latency_p99_secs\": {p99:.9},");
    let _ = writeln!(s, "  \"run_p50_secs\": {run_p50:.9},");
    let _ = writeln!(s, "  \"run_p99_secs\": {run_p99:.9},");
    let _ = writeln!(s, "  \"overhead_p50_secs\": {overhead_p50:.9},");
    let _ = writeln!(s, "  \"overhead_p99_secs\": {overhead_p99:.9},");
    let _ = writeln!(s, "  \"facade_match\": true,");
    s.push_str("  \"mix\": [\n");
    for (i, ((label, _), count)) in query_mix().iter().zip(&expected).enumerate() {
        let comma = if i + 1 < expected.len() { "," } else { "" };
        let _ = writeln!(s, "    {{\"label\": \"{label}\", \"solutions\": {count}}}{comma}");
    }
    s.push_str("  ]\n}\n");
    std::fs::write(&out_path, s).expect("write bench json");
    eprintln!("wrote {out_path}");
}
