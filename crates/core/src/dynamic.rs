//! Incremental maintenance of the maximal k-biplex set under edge updates.
//!
//! [`DynamicEnumerator`] owns a [`DynamicBipartiteGraph`] plus the set of
//! maximal k-biplexes meeting the configured size thresholds, and keeps the
//! set consistent across [`insert_edge`](DynamicEnumerator::insert_edge) /
//! [`delete_edge`](DynamicEnumerator::delete_edge) calls, emitting an
//! [`UpdateDiff`] (`added` / `removed` solutions) per update instead of
//! re-enumerating from scratch.
//!
//! # Locality argument
//!
//! A single edge update `(v, u)` changes the adjacency of exactly one
//! left/right vertex pair, so a maximal k-biplex containing **neither** `v`
//! nor `u` keeps both its k-biplex property (its internal edges are
//! untouched) and its maximality (the addability of any outside vertex `w`
//! only depends on edges between `w` and the solution, which changed only
//! for `w ∈ {v, u}` — and then only towards solutions containing the other
//! endpoint). The whole diff is therefore confined to solutions containing
//! `v` on the left or `u` on the right.
//!
//! When the thresholds satisfy `θ_L > 2k` and `θ_R > 2k`, those solutions
//! are *geometrically local* too: every qualifying solution `H ∋ v` lies in
//! the (θ_R−k, θ_L−k)-core (each member's in-solution degree meets that
//! bound), two left vertices of `H` share a right neighbour inside `H`
//! because `|R'| ≥ θ_R > 2k` (two subsets of `R'` missing ≤ k each must
//! intersect), and every right vertex of `H` has a left neighbour inside
//! `H`. So `H` sits within BFS radius 3 of `v` *inside the core-induced
//! subgraph*. The update path exploits this: repair the
//! [`IncrementalCore`] membership, BFS a radius-3 ball around the touched
//! endpoints over core members only, enumerate the ball's induced subgraph
//! through the regular [`Enumerator`] facade, keep the solutions that
//! contain `v` or `u` *and* are maximal in the full graph, and diff against
//! the stored set.
//!
//! With smaller thresholds (including the θ = 0 "maintain everything"
//! setting) tiny solutions are not localizable — a far-away vertex can
//! complete or break maximality of a small biplex — so the maintainer falls
//! back to full re-enumeration per update (still emitting exact diffs).
//! [`MaintainStats`] records which path each update took.

use std::collections::{BTreeSet, HashMap};

use bigraph::csr::intersection_len;
use bigraph::{BipartiteBuilder, BipartiteGraph, DynamicBipartiteGraph, IncrementalCore};

use crate::api::{Algorithm, ApiError, Engine, Enumerator};
use crate::biplex::Biplex;

/// BFS radius of the re-enumeration region around a touched endpoint,
/// measured in edges inside the core-induced subgraph. Radius 3 is exact for
/// `θ > 2k` (left vertices of an affected solution are ≤ 2 hops from the
/// touched endpoint, right vertices ≤ 3 — see the module docs).
const REGION_RADIUS: usize = 3;

/// Configuration of a [`DynamicEnumerator`].
#[derive(Clone, Debug)]
pub struct DynamicConfig {
    /// The k of the maintained k-biplexes.
    pub k: usize,
    /// Minimum left-side size `θ_L` of maintained solutions (0 = no bound).
    pub theta_left: usize,
    /// Minimum right-side size `θ_R` of maintained solutions (0 = no bound).
    pub theta_right: usize,
    /// Engine used for the (re-)enumeration runs. The parallel engine only
    /// pays off when individual regions are large; the default is
    /// sequential.
    pub engine: Engine,
    /// Worker threads for the parallel engine (0 = automatic). Must be 0
    /// when `engine` is [`Engine::Sequential`].
    pub threads: usize,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        DynamicConfig {
            k: 1,
            theta_left: 0,
            theta_right: 0,
            engine: Engine::Sequential,
            threads: 0,
        }
    }
}

impl DynamicConfig {
    /// `true` when updates can be localized to a core-bounded region
    /// (`θ_L > 2k` and `θ_R > 2k` — the premise of the locality proof).
    pub fn is_localizable(&self) -> bool {
        self.theta_left > 2 * self.k && self.theta_right > 2 * self.k
    }
}

/// The solution-set delta produced by one edge update.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UpdateDiff {
    /// Solutions that became maximal k-biplexes with this update (sorted).
    pub added: Vec<Biplex>,
    /// Solutions that stopped being maximal k-biplexes (sorted).
    pub removed: Vec<Biplex>,
    /// `true` when the update was handled by localized re-enumeration,
    /// `false` when it fell back to a full re-enumeration.
    pub localized: bool,
}

impl UpdateDiff {
    /// `true` when the update changed nothing in the maintained set.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// Counters accumulated by a [`DynamicEnumerator`] across updates.
#[derive(Clone, Debug, Default)]
pub struct MaintainStats {
    /// Total update calls (including no-ops).
    pub updates: u64,
    /// Updates that did not change the edge set (duplicate insert, missing
    /// delete) and were answered without any enumeration.
    pub noop_updates: u64,
    /// Updates answered through the localized region path.
    pub localized_updates: u64,
    /// Updates that fell back to full re-enumeration.
    pub fallback_updates: u64,
    /// Total solutions added across all diffs.
    pub added_total: u64,
    /// Total solutions removed across all diffs.
    pub removed_total: u64,
    /// Largest localized region (vertices of both sides) seen so far.
    pub max_region: usize,
    /// Sum of localized region sizes (for mean-region reporting).
    pub region_vertices_total: u64,
}

/// Errors surfaced by the maintenance layer.
#[derive(Debug)]
pub enum DynamicError {
    /// The underlying graph rejected the update (endpoint out of range).
    Graph(bigraph::Error),
    /// The re-enumeration facade rejected the configuration.
    Api(ApiError),
}

impl std::fmt::Display for DynamicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DynamicError::Graph(e) => write!(f, "graph update error: {e}"),
            DynamicError::Api(e) => write!(f, "enumeration error: {e}"),
        }
    }
}

impl std::error::Error for DynamicError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DynamicError::Graph(e) => Some(e),
            DynamicError::Api(e) => Some(e),
        }
    }
}

impl From<bigraph::Error> for DynamicError {
    fn from(e: bigraph::Error) -> Self {
        DynamicError::Graph(e)
    }
}

impl From<ApiError> for DynamicError {
    fn from(e: ApiError) -> Self {
        DynamicError::Api(e)
    }
}

/// Maintains the set of maximal k-biplexes (meeting the configured size
/// thresholds) of a mutable bipartite graph across edge updates.
#[derive(Clone, Debug)]
pub struct DynamicEnumerator {
    graph: DynamicBipartiteGraph,
    cfg: DynamicConfig,
    core: Option<IncrementalCore>,
    solutions: BTreeSet<Biplex>,
    stats: MaintainStats,
}

impl DynamicEnumerator {
    /// Seeds the maintainer with a full enumeration of `graph` under `cfg`.
    pub fn new(graph: &BipartiteGraph, cfg: DynamicConfig) -> Result<Self, DynamicError> {
        let initial = enumerate_on(&cfg, graph)?;
        let dynamic = DynamicBipartiteGraph::from_graph(graph);
        let core = cfg.is_localizable().then(|| {
            // Left vertices keep ≥ θ_R − k right neighbours inside a
            // qualifying solution and vice versa — note the side swap.
            IncrementalCore::new(&dynamic, cfg.theta_right - cfg.k, cfg.theta_left - cfg.k)
        });
        Ok(DynamicEnumerator {
            graph: dynamic,
            cfg,
            core,
            solutions: initial.into_iter().collect(),
            stats: MaintainStats::default(),
        })
    }

    /// Inserts the edge `(left v, right u)` and returns the solution diff.
    /// Inserting an already-present edge is a no-op with an empty diff.
    pub fn insert_edge(&mut self, v: u32, u: u32) -> Result<UpdateDiff, DynamicError> {
        self.apply(true, v, u)
    }

    /// Deletes the edge `(left v, right u)` and returns the solution diff.
    /// Deleting an absent edge is a no-op with an empty diff.
    pub fn delete_edge(&mut self, v: u32, u: u32) -> Result<UpdateDiff, DynamicError> {
        self.apply(false, v, u)
    }

    /// The currently maintained solutions, sorted canonically.
    pub fn solutions(&self) -> Vec<Biplex> {
        self.solutions.iter().cloned().collect()
    }

    /// Number of currently maintained solutions.
    pub fn len(&self) -> usize {
        self.solutions.len()
    }

    /// `true` when no solution is currently maintained.
    pub fn is_empty(&self) -> bool {
        self.solutions.is_empty()
    }

    /// The underlying mutable graph.
    pub fn graph(&self) -> &DynamicBipartiteGraph {
        &self.graph
    }

    /// An immutable CSR snapshot of the current graph.
    pub fn snapshot(&self) -> BipartiteGraph {
        self.graph.snapshot()
    }

    /// The maintenance configuration.
    pub fn config(&self) -> &DynamicConfig {
        &self.cfg
    }

    /// Accumulated update counters.
    pub fn stats(&self) -> &MaintainStats {
        &self.stats
    }

    /// `true` when updates run through the localized region path.
    pub fn is_localized(&self) -> bool {
        self.core.is_some()
    }

    /// Enumerates the current graph from scratch (the rebuild baseline the
    /// incremental path is checked — and benchmarked — against).
    pub fn rebuild(&self) -> Result<Vec<Biplex>, DynamicError> {
        Ok(enumerate_on(&self.cfg, &self.graph.snapshot())?)
    }

    fn apply(&mut self, insert: bool, v: u32, u: u32) -> Result<UpdateDiff, DynamicError> {
        let changed =
            if insert { self.graph.insert_edge(v, u)? } else { self.graph.delete_edge(v, u)? };
        self.stats.updates += 1;
        if !changed {
            self.stats.noop_updates += 1;
            return Ok(UpdateDiff { localized: self.core.is_some(), ..UpdateDiff::default() });
        }
        if let Some(core) = self.core.as_mut() {
            if insert {
                core.on_insert(&self.graph, v, u);
            } else {
                core.on_delete(&self.graph, v, u);
            }
        }

        let mut added = Vec::new();
        let mut removed = Vec::new();
        let localized = self.core.is_some();
        if let Some(core) = self.core.as_ref() {
            self.stats.localized_updates += 1;
            let (region_l, region_r) = region(&self.graph, core, v, u);
            let size = region_l.len() + region_r.len();
            self.stats.max_region = self.stats.max_region.max(size);
            self.stats.region_vertices_total += size as u64;
            let fresh: BTreeSet<Biplex> =
                localized_fresh(&self.graph, &self.cfg, &region_l, &region_r, v, u)?
                    .into_iter()
                    .collect();
            // Only solutions containing v or u can change; everything else
            // in the stored set is untouched by construction.
            let candidates: Vec<Biplex> = self
                .solutions
                .iter()
                .filter(|b| b.contains_left(v) || b.contains_right(u))
                .cloned()
                .collect();
            for c in candidates {
                if !fresh.contains(&c) {
                    self.solutions.remove(&c);
                    removed.push(c);
                }
            }
            for f in fresh {
                if self.solutions.insert(f.clone()) {
                    added.push(f);
                }
            }
        } else {
            self.stats.fallback_updates += 1;
            let fresh: BTreeSet<Biplex> =
                enumerate_on(&self.cfg, &self.graph.snapshot())?.into_iter().collect();
            removed.extend(self.solutions.difference(&fresh).cloned());
            added.extend(fresh.difference(&self.solutions).cloned());
            self.solutions = fresh;
        }
        self.stats.added_total += added.len() as u64;
        self.stats.removed_total += removed.len() as u64;
        Ok(UpdateDiff { added, removed, localized })
    }
}

/// One full (or region) enumeration through the facade, under the
/// maintainer's configuration.
fn enumerate_on(cfg: &DynamicConfig, g: &BipartiteGraph) -> Result<Vec<Biplex>, ApiError> {
    let mut e = Enumerator::new(g)
        .k(cfg.k)
        .algorithm(Algorithm::Large)
        .thresholds(cfg.theta_left, cfg.theta_right)
        .engine(cfg.engine);
    if cfg.threads != 0 {
        // Forwarded even for the sequential engine so that an inconsistent
        // config surfaces as the facade's validation error.
        e = e.threads(cfg.threads);
    }
    e.collect()
}

/// Radius-[`REGION_RADIUS`] BFS ball around the touched endpoints, walking
/// only vertices inside the maintained (α,β)-core. Endpoints that were
/// peeled out of the core seed nothing: no qualifying solution can contain
/// them.
fn region(
    g: &DynamicBipartiteGraph,
    core: &IncrementalCore,
    v: u32,
    u: u32,
) -> (Vec<u32>, Vec<u32>) {
    let mut seen_l: BTreeSet<u32> = BTreeSet::new();
    let mut seen_r: BTreeSet<u32> = BTreeSet::new();
    let mut frontier: Vec<(bool, u32)> = Vec::new();
    if core.contains_left(v) {
        seen_l.insert(v);
        frontier.push((true, v));
    }
    if core.contains_right(u) {
        seen_r.insert(u);
        frontier.push((false, u));
    }
    for _ in 0..REGION_RADIUS {
        let mut next: Vec<(bool, u32)> = Vec::new();
        for (is_left, id) in frontier {
            if is_left {
                for &n in g.left_neighbors(id) {
                    if core.contains_right(n) && seen_r.insert(n) {
                        next.push((false, n));
                    }
                }
            } else {
                for &n in g.right_neighbors(id) {
                    if core.contains_left(n) && seen_l.insert(n) {
                        next.push((true, n));
                    }
                }
            }
        }
        frontier = next;
    }
    (seen_l.into_iter().collect(), seen_r.into_iter().collect())
}

/// Enumerates the region's induced subgraph and keeps the solutions that
/// (a) contain a touched endpoint and (b) stay maximal in the full graph.
/// Returns solutions in original vertex ids.
fn localized_fresh(
    g: &DynamicBipartiteGraph,
    cfg: &DynamicConfig,
    region_l: &[u32],
    region_r: &[u32],
    v: u32,
    u: u32,
) -> Result<Vec<Biplex>, ApiError> {
    if region_l.is_empty() || region_r.is_empty() {
        return Ok(Vec::new());
    }
    let right_inv: HashMap<u32, u32> =
        region_r.iter().enumerate().map(|(i, &orig)| (orig, i as u32)).collect();
    let mut builder = BipartiteBuilder::new(region_l.len() as u32, region_r.len() as u32);
    for (new_v, &orig_v) in region_l.iter().enumerate() {
        for &orig_u in g.left_neighbors(orig_v) {
            if let Some(&new_u) = right_inv.get(&orig_u) {
                builder.add_edge_unchecked(new_v as u32, new_u);
            }
        }
    }
    let sub = builder.build();

    let mut out = Vec::new();
    for s in enumerate_on(cfg, &sub)? {
        // region_l/region_r are sorted, so the mapped lists stay sorted.
        let left: Vec<u32> = s.left.iter().map(|&x| region_l[x as usize]).collect();
        let right: Vec<u32> = s.right.iter().map(|&x| region_r[x as usize]).collect();
        let touches = left.binary_search(&v).is_ok() || right.binary_search(&u).is_ok();
        if !touches {
            // Maximal solutions of the region that avoid both endpoints are
            // unaffected by the update; if globally maximal they are already
            // in the stored set, and re-reporting them would corrupt the
            // diff.
            continue;
        }
        if is_globally_maximal(g, &left, &right, cfg.k) {
            out.push(Biplex { left, right });
        }
    }
    Ok(out)
}

/// Global maximality check for a solution found inside a region subgraph.
///
/// Requires `|left| > k` and `|right| > k` (guaranteed by `θ > 2k` on the
/// localized path): then any addable outside vertex must be adjacent to at
/// least one solution vertex of the opposite side, so scanning the
/// solution's neighbourhoods covers all candidates — no `O(|V|)` sweep.
fn is_globally_maximal(g: &DynamicBipartiteGraph, left: &[u32], right: &[u32], k: usize) -> bool {
    debug_assert!(left.len() > k && right.len() > k);
    let left_miss: Vec<usize> =
        left.iter().map(|&l| right.len() - intersection_len(g.left_neighbors(l), right)).collect();
    let right_miss: Vec<usize> =
        right.iter().map(|&r| left.len() - intersection_len(g.right_neighbors(r), left)).collect();

    let mut cand_left: BTreeSet<u32> = BTreeSet::new();
    for &r in right {
        for &w in g.right_neighbors(r) {
            if left.binary_search(&w).is_err() {
                cand_left.insert(w);
            }
        }
    }
    for w in cand_left {
        let nbrs = g.left_neighbors(w);
        if right.len() - intersection_len(nbrs, right) > k {
            continue;
        }
        let addable = right
            .iter()
            .enumerate()
            .all(|(i, &r)| nbrs.binary_search(&r).is_ok() || right_miss[i] < k);
        if addable {
            return false;
        }
    }

    let mut cand_right: BTreeSet<u32> = BTreeSet::new();
    for &l in left {
        for &w in g.left_neighbors(l) {
            if right.binary_search(&w).is_err() {
                cand_right.insert(w);
            }
        }
    }
    for w in cand_right {
        let nbrs = g.right_neighbors(w);
        if left.len() - intersection_len(nbrs, left) > k {
            continue;
        }
        let addable = left
            .iter()
            .enumerate()
            .all(|(i, &l)| nbrs.binary_search(&l).is_ok() || left_miss[i] < k);
        if addable {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::gen::chung_lu_bipartite;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn localized_cfg() -> DynamicConfig {
        DynamicConfig { k: 1, theta_left: 3, theta_right: 3, ..DynamicConfig::default() }
    }

    fn assert_in_sync(m: &DynamicEnumerator) {
        let rebuilt = m.rebuild().unwrap();
        assert_eq!(m.solutions(), rebuilt, "maintained set diverged from rebuild");
    }

    #[test]
    fn localized_insert_and_delete_track_rebuild() {
        // Complete 3×3 biclique on L{0,1,2} × R{0,1,2}; left vertex 3 sees
        // only right 0, so it misses 2 > k and stays outside the solution.
        let mut edges = Vec::new();
        for v in 0..3u32 {
            for u in 0..3u32 {
                edges.push((v, u));
            }
        }
        edges.push((3, 0));
        let g = BipartiteGraph::from_edges(4, 3, &edges).unwrap();
        let mut m = DynamicEnumerator::new(&g, localized_cfg()).unwrap();
        assert!(m.is_localized());
        assert_eq!(m.len(), 1, "the 3×3 biclique is the only qualifying solution");
        assert_in_sync(&m);

        // Vertex 3 now misses only right 2 and joins: the old solution stops
        // being maximal and the enlarged one replaces it.
        let diff = m.insert_edge(3, 1).unwrap();
        assert!(diff.localized);
        assert_eq!(diff.added.len(), 1);
        assert_eq!(diff.removed.len(), 1);
        assert!(diff.added[0].contains_left(3));
        assert_in_sync(&m);

        let diff = m.delete_edge(3, 1).unwrap();
        assert!(diff.localized);
        assert!(!diff.is_empty(), "removing the edge must evict vertex 3 again");
        assert_in_sync(&m);
        assert_eq!(m.stats().localized_updates, 2);
        assert_eq!(m.stats().fallback_updates, 0);
    }

    #[test]
    fn fallback_path_tracks_rebuild() {
        let g = chung_lu_bipartite(10, 10, 35, 2.0, 3);
        let cfg = DynamicConfig::default(); // θ = 0 → not localizable
        let mut m = DynamicEnumerator::new(&g, cfg).unwrap();
        assert!(!m.is_localized());
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..12 {
            let v = rng.gen_range(0..10);
            let u = rng.gen_range(0..10);
            let diff = if m.graph().has_edge(v, u) {
                m.delete_edge(v, u).unwrap()
            } else {
                m.insert_edge(v, u).unwrap()
            };
            assert!(!diff.localized);
            assert_in_sync(&m);
        }
        assert_eq!(m.stats().fallback_updates, 12);
    }

    #[test]
    fn noop_updates_produce_empty_diffs() {
        let g = BipartiteGraph::from_edges(4, 4, &[(0, 0), (0, 1), (1, 0), (1, 1)]).unwrap();
        let mut m = DynamicEnumerator::new(&g, localized_cfg()).unwrap();
        let before = m.solutions();
        let diff = m.insert_edge(0, 0).unwrap();
        assert!(diff.is_empty());
        let diff = m.delete_edge(3, 3).unwrap();
        assert!(diff.is_empty());
        assert_eq!(m.solutions(), before);
        assert_eq!(m.stats().noop_updates, 2);
        assert_eq!(m.stats().updates, 2);
    }

    #[test]
    fn out_of_range_update_is_an_error() {
        let g = BipartiteGraph::from_edges(2, 2, &[(0, 0)]).unwrap();
        let mut m = DynamicEnumerator::new(&g, DynamicConfig::default()).unwrap();
        let err = m.insert_edge(5, 0).unwrap_err();
        assert!(matches!(err, DynamicError::Graph(_)));
        assert!(!err.to_string().is_empty());
        // The failed update left the maintained state untouched.
        assert_in_sync(&m);
    }

    #[test]
    fn invalid_engine_config_is_an_api_error() {
        let g = BipartiteGraph::from_edges(2, 2, &[(0, 0)]).unwrap();
        let cfg = DynamicConfig { threads: 2, ..DynamicConfig::default() };
        let err = DynamicEnumerator::new(&g, cfg).unwrap_err();
        assert!(matches!(err, DynamicError::Api(_)));
    }

    /// Random edit scripts on a Chung–Lu graph: the localized path must stay
    /// in lockstep with rebuild-from-scratch at every prefix.
    #[test]
    fn localized_random_script_matches_rebuild() {
        for seed in 0..2u64 {
            let g = chung_lu_bipartite(16, 16, 80, 2.0, seed);
            let mut m = DynamicEnumerator::new(&g, localized_cfg()).unwrap();
            assert!(m.is_localized());
            let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
            for _ in 0..25 {
                let v = rng.gen_range(0..16);
                let u = rng.gen_range(0..16);
                if m.graph().has_edge(v, u) {
                    m.delete_edge(v, u).unwrap();
                } else {
                    m.insert_edge(v, u).unwrap();
                }
                assert_in_sync(&m);
            }
            assert!(m.stats().localized_updates > 0);
            assert_eq!(m.stats().fallback_updates, 0);
        }
    }

    #[test]
    fn diffs_compose_to_the_final_set() {
        let g = chung_lu_bipartite(14, 14, 60, 2.0, 11);
        let mut m = DynamicEnumerator::new(&g, localized_cfg()).unwrap();
        let mut tracked: BTreeSet<Biplex> = m.solutions().into_iter().collect();
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..25 {
            let v = rng.gen_range(0..14);
            let u = rng.gen_range(0..14);
            let diff = if m.graph().has_edge(v, u) {
                m.delete_edge(v, u).unwrap()
            } else {
                m.insert_edge(v, u).unwrap()
            };
            for b in &diff.removed {
                assert!(tracked.remove(b), "removed a solution that was not tracked");
            }
            for b in &diff.added {
                assert!(tracked.insert(b.clone()), "added a solution that was already tracked");
            }
        }
        assert_eq!(tracked.into_iter().collect::<Vec<_>>(), m.solutions());
    }
}
