//! Per-layer costs measured from outside the engines: timed direct calls
//! into one public function, and replays of layer calls on a bounded,
//! seeded sample of the run's own output.

use std::time::{Duration, Instant};

use bigraph::core_decomp::alpha_beta_core;
use bigraph::intersect::dispatch;
use bigraph::{BipartiteGraph, DynamicBipartiteGraph};
use kbiplex::extend::{extend_to_maximal, ExtendMode};
use kbiplex::initial::initial_left_anchored;
use kbiplex::{
    enum_almost_sat, Biplex, ConcurrentSeenSet, HashStore, PartialBiplex, QuerySpec, RunReport,
    SolutionStore,
};

use crate::report::{metric, Metric, Source};
use crate::stats::{median, Rng};
use crate::trace::Tracer;

/// Pairs (solution, candidate) replayed per run.
const PAIRS: usize = 400;
/// Local solutions kept per pair for the `extend` replay.
const LOCALS_PER_PAIR: usize = 4;
/// Emitted solutions a run keeps for its replays; the store and seen-set
/// replays insert all of them.
pub const SAMPLE_CAP: usize = 20_000;

/// Keeps a seeded uniform sample of at most `cap` items from a stream.
#[derive(Debug)]
pub struct Reservoir<T> {
    /// The sample.
    pub items: Vec<T>,
    seen: u64,
    cap: usize,
    rng: Rng,
}

impl<T> Reservoir<T> {
    /// An empty reservoir of capacity `cap`.
    pub fn new(cap: usize, rng: Rng) -> Self {
        Reservoir { items: Vec::with_capacity(cap), seen: 0, cap, rng }
    }

    /// Offers one item; `make` runs only if the item is kept.
    pub fn offer(&mut self, make: impl FnOnce() -> T) {
        self.seen += 1;
        if self.items.len() < self.cap {
            self.items.push(make());
        } else {
            let j = self.rng.below(self.seen) as usize;
            if j < self.cap {
                self.items[j] = make();
            }
        }
    }
}

/// Counters of the sequential engine needed to scale replayed costs.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineWork {
    /// `EnumAlmostSat` calls per engine run.
    pub almost_sat_graphs: f64,
    /// Upper bound of `extend_to_maximal` calls per engine run: local
    /// solutions that survived the size and right-shrinking prunes (some
    /// of them are then cut by the exclusion strategy before extension).
    pub extend_calls: f64,
    /// Engine wall time per run, µs.
    pub wall_us: f64,
}

/// Replays `EnumAlmostSat`, `extend`, the intersection kernel, the solution
/// store and the seen-set on a sample of emitted solutions of `g`.
pub fn replay_layers(
    g: &BipartiteGraph,
    sample: &[Biplex],
    work: EngineWork,
    rng: &mut Rng,
    tracer: &mut Tracer,
) -> Vec<Metric> {
    let k = QuerySpec::default().k;
    let kind = QuerySpec::default().enum_kind;
    let mut out = Vec::new();
    if sample.is_empty() || g.num_left() == 0 {
        return out;
    }

    // (solution, candidate) pairs: a candidate is a left vertex outside the
    // solution, as the traversal draws them.
    let mut pairs: Vec<(usize, u32)> = Vec::with_capacity(PAIRS);
    for _ in 0..PAIRS * 4 {
        if pairs.len() == PAIRS {
            break;
        }
        let s = rng.below(sample.len() as u64) as usize;
        let v = rng.below(u64::from(g.num_left())) as u32;
        if sample[s].left.binary_search(&v).is_err() {
            pairs.push((s, v));
        }
    }

    let mut eas_ns = 0u128;
    let mut locals: Vec<Biplex> = Vec::new();
    let open = tracer.enter("replay.eas", 0);
    for &(s, v) in &pairs {
        let host = PartialBiplex::from_biplex(g, &sample[s]);
        let mut kept = 0;
        let t0 = Instant::now();
        enum_almost_sat(g, k, kind, &host, v, |local| {
            if kept < LOCALS_PER_PAIR {
                kept += 1;
                locals.push(local);
            }
            true
        });
        eas_ns += t0.elapsed().as_nanos();
    }
    tracer.exit(open);
    let eas_call_us = eas_ns as f64 / pairs.len().max(1) as f64 / 1e3;
    out.push(metric("eas.call_us", eas_call_us, "us", Source::Replay));
    let eas_share = eas_call_us * work.almost_sat_graphs / work.wall_us;
    out.push(metric("eas.est_share", eas_share, "ratio", Source::Replay));

    let open = tracer.enter("replay.extend", 0);
    let mut ext_ns = 0u128;
    for local in &locals {
        let mut partial = PartialBiplex::from_sets(g, &local.left, &local.right);
        let t0 = Instant::now();
        extend_to_maximal(g, &mut partial, k, ExtendMode::LeftOnly);
        ext_ns += t0.elapsed().as_nanos();
        std::hint::black_box(&partial);
    }
    tracer.exit(open);
    let ext_call_us = ext_ns as f64 / locals.len().max(1) as f64 / 1e3;
    out.push(metric("extend.call_us", ext_call_us, "us", Source::Replay));
    let ext_share = ext_call_us * work.extend_calls / work.wall_us;
    out.push(metric("extend.est_share", ext_share, "ratio", Source::Replay));
    let rest = 1.0 - eas_share - ext_share;
    out.push(metric("replay.unattributed_share", rest, "ratio", Source::Computed));

    // Intersection kernel on the same pairs: N(v) against R_H.
    const ROUNDS: usize = 16;
    let open = tracer.enter("replay.intersect", 0);
    let t0 = Instant::now();
    let mut acc = 0usize;
    for _ in 0..ROUNDS {
        for &(s, v) in &pairs {
            acc += dispatch(std::hint::black_box(g.left_neighbors(v)), &sample[s].right);
        }
    }
    let isect = t0.elapsed();
    tracer.exit(open);
    std::hint::black_box(acc);
    let calls = (ROUNDS * pairs.len()).max(1) as f64;
    out.push(metric("intersect.call_ns", isect.as_nanos() as f64 / calls, "ns", Source::Replay));
    let skews: Vec<f64> = pairs
        .iter()
        .filter_map(|&(s, v)| {
            let (a, b) = (g.left_degree(v), sample[s].right.len());
            let (short, long) = (a.min(b), a.max(b));
            (short > 0).then(|| long as f64 / short as f64)
        })
        .collect();
    let skew = if skews.is_empty() { 0.0 } else { skews.iter().sum::<f64>() / skews.len() as f64 };
    out.push(metric("intersect.len_skew", skew, "ratio", Source::Replay));

    // Solution store: HashStore inserts of the emitted solutions.
    let keys = &sample[..sample.len().min(SAMPLE_CAP)];
    let open = tracer.enter("replay.store", 0);
    let mut store = HashStore::new();
    let t0 = Instant::now();
    for b in keys {
        store.insert(b);
    }
    let st = t0.elapsed();
    tracer.exit(open);
    std::hint::black_box(store.len());
    out.push(metric(
        "store.insert_ns",
        st.as_nanos() as f64 / keys.len() as f64,
        "ns",
        Source::Replay,
    ));

    // Concurrent seen-set: the same keys inserted from two threads.
    let canon: Vec<Vec<u32>> = keys.iter().map(Biplex::canonical_key).collect();
    let (a, b) = canon.split_at(canon.len() / 2);
    let seen = ConcurrentSeenSet::new(canon.len());
    let open = tracer.enter("replay.seen", 0);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for half in [a, b] {
            let seen = &seen;
            scope.spawn(move || {
                for key in half {
                    seen.insert(key.clone());
                }
            });
        }
    });
    let sn = t0.elapsed();
    tracer.exit(open);
    let per = sn.as_nanos() as f64 * 2.0 / canon.len().max(1) as f64;
    out.push(metric("seen.insert_ns", per, "ns", Source::Replay));
    out
}

/// Median of `reps` timed calls of `f`, with a span per call.
fn timed<R>(
    tracer: &mut Tracer,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> R,
) -> Duration {
    let mut ds = Vec::with_capacity(reps);
    for i in 0..reps {
        let open = tracer.enter(name, i as u64);
        let t0 = Instant::now();
        std::hint::black_box(f());
        ds.push(t0.elapsed().as_secs_f64());
        tracer.exit(open);
    }
    Duration::from_secs_f64(median(&ds).unwrap_or(0.0))
}

/// Timed direct calls on the workload's graph: the initial solution, the
/// (θ−k)-core reduction of the Large probe and the dynamic-graph snapshot.
pub fn timed_layers(g: &BipartiteGraph, theta: usize, tracer: &mut Tracer) -> Vec<Metric> {
    let k = QuerySpec::default().k;
    let init = timed(tracer, "timed.initial", 3, || initial_left_anchored(g, k));
    let core = timed(tracer, "timed.core", 3, || alpha_beta_core(g, theta - k, theta - k));
    let dynamic = DynamicBipartiteGraph::from_graph(g);
    let snap = timed(tracer, "timed.snapshot", 5, || dynamic.snapshot());
    vec![
        metric("initial.s", init.as_secs_f64(), "s", Source::Timed),
        metric("core.reduce_ms", core.as_secs_f64() * 1e3, "ms", Source::Timed),
        metric("update.snapshot_ms", snap.as_secs_f64() * 1e3, "ms", Source::Timed),
    ]
}

/// Timed encode and decode of a spec and a report, for workloads that
/// call the facade in-process (what a remote caller would pay per run).
pub fn wire_layers(spec: &QuerySpec, report: &RunReport, tracer: &mut Tracer) -> Vec<Metric> {
    const REPS: usize = 200;
    let open = tracer.enter("wire.encode", 0);
    let t0 = Instant::now();
    let mut texts = (String::new(), String::new());
    for _ in 0..REPS {
        texts = (spec.to_json().encode(), report.to_json().encode());
    }
    let enc = t0.elapsed();
    tracer.exit(open);
    let open = tracer.enter("wire.decode", 0);
    let t0 = Instant::now();
    for _ in 0..REPS {
        let s =
            kbiplex::json::Json::parse(&texts.0).ok().and_then(|d| QuerySpec::from_json(&d).ok());
        let r =
            kbiplex::json::Json::parse(&texts.1).ok().and_then(|d| RunReport::from_json(&d).ok());
        std::hint::black_box((s, r));
    }
    let dec = t0.elapsed();
    tracer.exit(open);
    vec![
        metric("wire.encode_us", enc.as_secs_f64() * 1e6 / REPS as f64, "us", Source::Timed),
        metric("wire.decode_us", dec.as_secs_f64() * 1e6 / REPS as f64, "us", Source::Timed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservoir_is_bounded_and_seeded() {
        let fill = |seed| {
            let mut r = Reservoir::new(10, Rng::new(seed, 0));
            for i in 0..1000 {
                r.offer(|| i);
            }
            r.items
        };
        let a = fill(1);
        assert_eq!(a.len(), 10);
        assert_eq!(a, fill(1));
        assert_ne!(a, fill(2));
        assert!(a.iter().any(|&i| i >= 10), "later items must get in");
    }
}
