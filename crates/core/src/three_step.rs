//! The one `iThreeStep` (Algorithm 2, lines 4–11) every engine runs.
//!
//! For one host solution `H` and one candidate vertex `v` outside it, the
//! step forms the almost-satisfying graph `G[H ∪ {v}]`, enumerates its local
//! solutions, drops those ruled out by the exclusion set, the large-MBP size
//! threshold or the right-shrinking rule, extends each survivor to a maximal
//! k-biplex of `G` and hands it to the caller as one solution-graph link.
//! Its inputs decide how it runs:
//!
//! * the rules ([`TraversalConfig`]): the `EnumAlmostSat` variant, whether
//!   links must be right-shrinking (which also makes the extension
//!   left-only) and the right-side size threshold;
//! * the budget ([`KPair`]): a symmetric budget runs
//!   [`enum_almost_sat`] and [`extend_to_maximal`], an asymmetric one the
//!   asym local enumerator and the asym extension;
//! * the excluded left vertices, a sorted slice: ℰ(H) for the sequential
//!   engine, the host-local slice for the parallel engine, empty for runs
//!   without exclusion;
//! * the per-link callback, which de-duplicates: the sequential engine
//!   inserts into its store and schedules the descent, the parallel
//!   scheduler claims the solution in its seen-set.
//!
//! The callers are the sequential DFS in [`crate::traversal`] (iTraversal,
//! its ablations, bTraversal and the asymmetric enumeration) and the
//! per-host candidate loop of every [`crate::parallel`] worker. Everything the step does is counted into one [`TraversalStats`].

use bigraph::intersect::intersects;
use bigraph::{BipartiteGraph, Side, VertexRef};

use crate::asym::{extend_to_maximal_asym, local_solutions_asym, KPair};
use crate::biplex::{sorted_intersection_len, Biplex, PartialBiplex};
use crate::enum_almost_sat::enum_almost_sat;
use crate::extend::{extend_to_maximal, right_extension_candidates, ExtendMode};
use crate::sink::Control;
use crate::stats::TraversalStats;
use crate::traversal::TraversalConfig;

/// How one step over a (host, candidate) pair ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// The candidate was pruned before its almost-satisfying graph was
    /// formed; it must not join an exclusion set.
    Pruned,
    /// Every local solution of the candidate was considered.
    Enumerated,
    /// The per-link callback returned [`Control::Stop`].
    Stopped,
}

/// The graph, rules and budget one run applies to every (host, candidate)
/// pair.
#[derive(Clone, Copy)]
pub(crate) struct ThreeStep<'a> {
    /// The graph being enumerated.
    pub g: &'a BipartiteGraph,
    /// Its transpose, present only when right-side candidates occur
    /// (bTraversal and the asymmetric enumeration).
    pub gt: Option<&'a BipartiteGraph>,
    /// The pruning rules and the `EnumAlmostSat` variant.
    pub rules: &'a TraversalConfig,
    /// The per-side miss budgets.
    pub budget: KPair,
}

impl ThreeStep<'_> {
    /// Runs the step for candidate `cand ∉ host`, calling `on_link` with
    /// every extended solution that survives the prunings (duplicates
    /// included: de-duplication is the callback's job).
    pub(crate) fn run<F>(
        &self,
        host: &PartialBiplex,
        cand: VertexRef,
        excluded: &[u32],
        stats: &mut TraversalStats,
        mut on_link: F,
    ) -> Outcome
    where
        F: FnMut(Biplex, &mut TraversalStats) -> Control,
    {
        let (g, rules, budget) = (self.g, self.rules, self.budget);
        debug_assert!(
            budget.is_symmetric() || !rules.right_shrinking,
            "the asymmetric budget runs under the bTraversal rules"
        );
        let k = budget.left;

        if cand.side == Side::Left {
            if excluded.binary_search(&cand.id).is_ok() {
                stats.pruned_exclusion += 1;
                return Outcome::Pruned;
            }
            // Almost-satisfying-graph pruning (Section 5): every solution
            // reached through v keeps v on its left side and (under
            // right-shrinking) a right side within N(v, R_H) plus at most k
            // non-neighbours.
            if rules.theta_right > 0 && rules.right_shrinking {
                let deg_in_r = sorted_intersection_len(g.left_neighbors(cand.id), host.right());
                if deg_in_r + k < rules.theta_right {
                    stats.pruned_size += 1;
                    return Outcome::Pruned;
                }
            }
        }
        stats.almost_sat_graphs += 1;

        // The local enumeration is written for a left-side candidate; a
        // right-side one runs on the transposed graph with the flipped host
        // and budgets, and its local solutions are flipped back.
        let flipped;
        let (enum_graph, enum_host, enum_budget) = match cand.side {
            Side::Left => (g, host, budget),
            Side::Right => {
                let Some(gt) = self.gt else {
                    unreachable!("the transpose is built when right candidates are enabled")
                };
                flipped = host.flipped();
                (gt, &flipped, budget.transpose())
            }
        };
        let mode = if rules.right_shrinking { ExtendMode::LeftOnly } else { ExtendMode::BothSides };

        let mut stopped = false;
        let mut on_local = |local: Biplex| -> bool {
            let local = if cand.side == Side::Right { local.transpose() } else { local };
            stats.local_solutions += 1;

            // Exclusion strategy: its extension keeps `local.left`, so a hit
            // prunes the link before the right-shrinking test and the
            // extension are paid for.
            if !excluded.is_empty() && intersects(&local.left, excluded) {
                stats.pruned_exclusion += 1;
                return true;
            }

            // Local-solution pruning (Section 5): under right-shrinking the
            // final right side equals the local one.
            if rules.theta_right > 0
                && rules.right_shrinking
                && local.right.len() < rules.theta_right
            {
                stats.pruned_size += 1;
                return true;
            }

            let mut partial = PartialBiplex::from_sets(g, &local.left, &local.right);

            // Right-shrinking traversal (Algorithm 2 line 7).
            if rules.right_shrinking && exists_addable_right_outside(g, &partial, host, k) {
                stats.pruned_right_shrinking += 1;
                return true;
            }

            // Step 3: extend to a maximal biplex of G.
            if budget.is_symmetric() {
                extend_to_maximal(g, &mut partial, k, mode);
            } else {
                extend_to_maximal_asym(g, &mut partial, budget);
            }
            let solution = partial.to_biplex();

            // Exclusion strategy on the extended solution: the extension may
            // pull in an excluded left vertex the local solution lacked.
            if !excluded.is_empty() && intersects(&solution.left, excluded) {
                stats.pruned_exclusion += 1;
                return true;
            }

            stats.links += 1;
            stopped = on_link(solution, stats) == Control::Stop;
            !stopped
        };

        if budget.is_symmetric() {
            let eas =
                enum_almost_sat(enum_graph, k, rules.enum_kind, enum_host, cand.id, &mut on_local);
            stats.almost_sat.absorb(&eas);
        } else {
            for local in local_solutions_asym(enum_graph, enum_budget, enum_host, cand.id) {
                if !on_local(local) {
                    break;
                }
            }
        }
        if stopped {
            Outcome::Stopped
        } else {
            Outcome::Enumerated
        }
    }
}

/// `true` iff some right vertex of `G` outside both the local solution and
/// the host solution can be added to `partial` while keeping the k-biplex
/// property (the right-shrinking test of Algorithm 2 line 7; right vertices
/// of the host outside the local solution need not be tested because the
/// local solution is maximal within the almost-satisfying graph).
fn exists_addable_right_outside(
    g: &BipartiteGraph,
    partial: &PartialBiplex,
    host: &PartialBiplex,
    k: usize,
) -> bool {
    if g.num_right() as usize == partial.right().len() {
        return false;
    }
    // A saturated left vertex (miss count = k) only tolerates additions
    // adjacent to it, so its adjacency list bounds the candidates.
    let saturated = (0..partial.left().len()).find(|&i| partial.left_miss(i) as usize >= k);
    match saturated {
        Some(i) => {
            let anchor = partial.left()[i];
            for &u in g.left_neighbors(anchor) {
                if !partial.contains_right(u)
                    && !host.contains_right(u)
                    && partial.can_add_right(g, u, k)
                {
                    return true;
                }
            }
            false
        }
        None => {
            if partial.left().len() <= k {
                // No left vertex is saturated and every left vertex tolerates
                // at least |L| ≤ k misses, so *any* right vertex outside the
                // local solution can be added — and one exists by the size
                // check at the top of this function.
                true
            } else {
                let cands = right_extension_candidates(g, partial.left(), k);
                for u in cands {
                    if !partial.contains_right(u)
                        && !host.contains_right(u)
                        && partial.can_add_right(g, u, k)
                    {
                        return true;
                    }
                }
                false
            }
        }
    }
}
