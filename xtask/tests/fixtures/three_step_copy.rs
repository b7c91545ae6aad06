// lint-as: crates/core/src/parallel/mod.rs
// expect-rule: three-step
use crate::enum_almost_sat::{enum_almost_sat, EnumKind};

pub(crate) fn expand(g: &BipartiteGraph, host: &PartialBiplex, v: u32, k: usize) -> u64 {
    // A second copy of the step: its prunings drift from the shared one.
    let mut links = 0;
    enum_almost_sat(g, k, EnumKind::L2R2, host, v, |_local| {
        links += 1;
        true
    });
    links
}
