// lint-as: crates/core/src/dynamic.rs
// expect-rule: clean
use crate::enum_almost_sat::{AlmostSatStats, EnumKind};

/// Names the step pieces only in docs: `enum_almost_sat(` and
/// `extend_to_maximal(` run inside the three-step routine.
pub fn describe(kind: EnumKind) -> String {
    format!("enum_almost_sat({kind}) then extend_to_maximal(left-only)")
}

pub fn enum_almost_sat_work(stats: &AlmostSatStats) -> u64 {
    stats.r_combinations + stats.l_candidates
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tests_may_drive_the_pieces_directly() {
        let (g, host) = fixture();
        crate::enum_almost_sat::enum_almost_sat(&g, 1, EnumKind::L2R2, &host, 0, |_| true);
    }
}
