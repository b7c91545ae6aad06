//! Pinned-work regression test: the exact counters every engine reports on
//! one small fixed Chung–Lu graph.
//!
//! The counters are deterministic functions of the graph and the engine's
//! rules (the parallel ones too: every solution is expanded exactly once
//! and the host-local exclusion set depends only on the host), so any
//! change to the work an engine does — a pruning that fires more or less
//! often, a local solution enumerated twice, a link followed that used to
//! be cut — moves at least one of them. A refactor that claims to leave the
//! work unchanged must leave every number here unchanged.

use mbpe::bigraph::gen::chung_lu::chung_lu_bipartite;
use mbpe::kbiplex::{ParallelStats, TraversalStats};
use mbpe::prelude::*;

/// Chung–Lu 14×14, 36 requested edges, γ 2.2, generator seed 3: 369
/// maximal 1-biplexes.
fn fixture() -> BipartiteGraph {
    chung_lu_bipartite(14, 14, 36, 2.2, 3)
}

fn sequential(e: Enumerator<'_>) -> TraversalStats {
    let report = e.run(&mut CountingSink::new()).expect("valid facade configuration");
    let EngineStats::Sequential(stats) = report.stats else {
        panic!("sequential runs report sequential stats");
    };
    stats
}

/// `almost_sat_graphs`, `local_solutions`, `links`, `duplicate_links`,
/// `pruned_exclusion`, `pruned_right_shrinking`, `max_depth`.
type Work = (u64, u64, u64, u64, u64, u64, usize);

fn work(s: &TraversalStats) -> Work {
    (
        s.almost_sat_graphs,
        s.local_solutions,
        s.links,
        s.duplicate_links,
        s.pruned_exclusion,
        s.pruned_right_shrinking,
        s.max_depth,
    )
}

#[test]
fn symmetric_engines_do_the_pinned_work() {
    let g = fixture();
    let base = || Enumerator::new(&g).k(1);
    let cases: [(&str, Enumerator<'_>, Work); 5] = [
        ("iTraversal", base(), (2148, 6306, 1321, 953, 3647, 3388, 10)),
        (
            "iTraversal-ES",
            base().algorithm(Algorithm::ITraversalNoExclusion),
            (4198, 12312, 5675, 5307, 0, 6637, 13),
        ),
        (
            "iTraversal-ES-RS",
            base().algorithm(Algorithm::LeftAnchoredOnly),
            (4198, 12312, 12312, 11944, 0, 0, 38),
        ),
        (
            "bTraversal",
            base().algorithm(Algorithm::BTraversal),
            (8404, 23961, 23961, 23593, 0, 0, 306),
        ),
        ("right anchor", base().anchor(Anchor::Right), (2110, 5802, 1354, 986, 3361, 3183, 11)),
    ];
    for (name, e, expected) in cases {
        let stats = sequential(e);
        assert_eq!(stats.solutions, 369, "{name}");
        assert_eq!(work(&stats), expected, "{name}");
    }
}

#[test]
fn asymmetric_budgets_do_the_pinned_work() {
    let g = fixture();
    // (budget, solutions, almost_sat_graphs, local_solutions, links)
    for (kp, expected) in [
        (KPair::new(1, 2), (1015, 22758, 96065, 96065)),
        (KPair::new(2, 1), (1045, 23519, 99666, 99666)),
    ] {
        let stats = sequential(Enumerator::new(&g).algorithm(Algorithm::Asym).k_pair(kp));
        assert_eq!(
            (stats.solutions, stats.almost_sat_graphs, stats.local_solutions, stats.links),
            expected,
            "{kp:?}"
        );
    }
}

#[test]
fn parallel_links_are_pinned() {
    let g = fixture();
    let report = Enumerator::new(&g)
        .k(1)
        .engine(Engine::WorkSteal)
        .threads(2)
        .run(&mut CountingSink::new())
        .expect("valid facade configuration");
    let EngineStats::Parallel(stats) = report.stats else {
        panic!("parallel runs report parallel stats");
    };
    let stats: ParallelStats = stats;
    assert_eq!(stats.solutions, 369);
    assert_eq!(stats.links, 2669);
}
