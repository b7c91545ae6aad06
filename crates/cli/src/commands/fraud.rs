//! `mbpe fraud` — the camouflage-attack fraud-detection case study
//! (Section 6.3 / Figure 13) as a single command.

use std::io::Write;

use frauddet::{run_detector, CamouflageScenario, Detector, ScenarioParams};

use crate::args::Args;
use crate::CliError;

/// Help text for `mbpe help fraud` and `mbpe fraud --help`.
pub const HELP: &str = "\
mbpe fraud — camouflage-attack fraud-detection case study (Figure 13)

USAGE:
    mbpe fraud [OPTIONS]

OPTIONS:
    --preset <P>      tiny | default (default: default) — scenario size
    --seed <S>        RNG seed for the scenario (default 2022)
    --theta-l <N>     User-side size threshold θ_L (default 4, as in the paper)
    --theta-r <N>     Product-side size threshold θ_R (default 5)
    --k <K>           k of the k-biplex detector (default 1)
    --delta <D>       δ of the quasi-biclique detector (default 0.2)";

const OPTIONS: &[&str] = &["preset", "seed", "theta-l", "theta-r", "k", "delta"];

/// Runs the command.
pub fn run(raw: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(raw, &[])?;
    args.reject_unknown(OPTIONS)?;

    let seed: u64 = args.parse_or("seed", 2022)?;
    let theta_l: usize = args.parse_or("theta-l", 4)?;
    let theta_r: usize = args.parse_or("theta-r", 5)?;
    let k: usize = args.parse_or("k", 1)?;
    let delta: f64 = args.parse_or("delta", 0.2)?;

    let params = match args.value("preset").unwrap_or("default") {
        "tiny" => ScenarioParams::tiny(seed),
        "default" => ScenarioParams { seed, ..ScenarioParams::default() },
        other => return Err(CliError::Usage(format!("unknown --preset {other:?}"))),
    };

    let scenario = CamouflageScenario::generate(params);
    writeln!(
        out,
        "scenario: |L| = {}, |R| = {}, |E| = {}, fake vertices = {}",
        scenario.graph.num_left(),
        scenario.graph.num_right(),
        scenario.graph.num_edges(),
        scenario.num_fake()
    )?;
    writeln!(out, "thresholds: theta_L = {theta_l}, theta_R = {theta_r}")?;
    writeln!(out, "{:<20} {:>10} {:>10} {:>10}", "detector", "precision", "recall", "F1")?;

    let detectors = [
        Detector::Biclique,
        Detector::KBiplex { k },
        Detector::AlphaBetaCore,
        Detector::DeltaQuasiBiclique { delta },
    ];
    for detector in detectors {
        let metrics = run_detector(&scenario, detector, theta_l, theta_r);
        let fmt = |x: Option<f64>| match x {
            Some(v) => format!("{:.3}", v),
            None => "ND".to_string(),
        };
        writeln!(
            out,
            "{:<20} {:>10} {:>10.3} {:>10}",
            detector.label(),
            fmt(metrics.precision),
            metrics.recall,
            fmt(metrics.f1),
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn tiny_preset_prints_all_detectors() {
        let mut sink = Vec::new();
        run(&raw(&["--preset", "tiny", "--seed", "5", "--theta-r", "4"]), &mut sink).unwrap();
        let text = String::from_utf8(sink).unwrap();
        for label in ["biclique", "1-biplex", "(alpha,beta)-core", "0.2-QB"] {
            assert!(text.contains(label), "missing {label} in:\n{text}");
        }
    }

    #[test]
    fn bad_preset_is_rejected() {
        let mut sink = Vec::new();
        assert!(run(&raw(&["--preset", "galactic"]), &mut sink).is_err());
    }
}
