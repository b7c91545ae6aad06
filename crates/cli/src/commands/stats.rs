//! `mbpe stats` — summary statistics of a bipartite graph.

use std::io::Write;

use bigraph::stats::GraphStats;

use crate::args::Args;
use crate::commands::load_graph;
use crate::CliError;

/// Help text for `mbpe help stats` and `mbpe stats --help`.
pub const HELP: &str = "\
mbpe stats — print summary statistics of a graph

USAGE:
    mbpe stats <FILE>
    mbpe stats --dataset <NAME> [--scale N | --full]

OPTIONS:
    --dataset <NAME>   Use a synthetic Table-1 stand-in instead of a file
    --scale <N>        Scale factor for --dataset
    --full             Generate the dataset at full size
    --butterflies      Also count butterflies (2x2 bicliques); quadratic in
                       the wedge count, intended for the smaller datasets
    --degeneracy       Also compute the bipartite degeneracy (min-degree
                       peeling over both sides)
    --histogram        Also print the left/right degree histograms";

const OPTIONS: &[&str] = &["dataset", "scale", "full", "butterflies", "degeneracy", "histogram"];
const FLAGS: &[&str] = &["full", "butterflies", "degeneracy", "histogram"];

/// Runs the command.
pub fn run(raw: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(raw, FLAGS)?;
    args.reject_unknown(OPTIONS)?;
    let (graph, label) = load_graph(&args)?;
    let stats = GraphStats::of(&graph);

    writeln!(out, "graph: {label}")?;
    writeln!(out, "  |L| = {}", stats.num_left)?;
    writeln!(out, "  |R| = {}", stats.num_right)?;
    writeln!(out, "  |E| = {}", stats.num_edges)?;
    writeln!(out, "  edge density |E|/(|L|+|R|) = {:.3}", stats.edge_density)?;
    writeln!(
        out,
        "  degree (left):  max = {}, avg = {:.2}",
        stats.max_left_degree, stats.avg_left_degree
    )?;
    writeln!(
        out,
        "  degree (right): max = {}, avg = {:.2}",
        stats.max_right_degree, stats.avg_right_degree
    )?;

    if args.flag("butterflies") {
        writeln!(out, "  butterflies = {}", bigraph::stats::count_butterflies(&graph))?;
    }
    if args.flag("degeneracy") {
        writeln!(out, "  degeneracy = {}", bigraph::order::bipartite_degeneracy(&graph))?;
    }
    if args.flag("histogram") {
        print_histogram(out, "left", &bigraph::stats::left_degree_histogram(&graph))?;
        print_histogram(out, "right", &bigraph::stats::right_degree_histogram(&graph))?;
    }
    Ok(())
}

fn print_histogram(out: &mut dyn Write, side: &str, hist: &[usize]) -> Result<(), CliError> {
    writeln!(out, "  degree histogram ({side}):")?;
    for (d, &count) in hist.iter().enumerate() {
        if count > 0 {
            writeln!(out, "    {d:>6}: {count}")?;
        }
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
    fn dataset_stats_with_extras() {
        let mut sink = Vec::new();
        run(&raw(&["--dataset", "Divorce", "--butterflies", "--histogram"]), &mut sink).unwrap();
        let text = String::from_utf8(sink).unwrap();
        assert!(text.contains("|L| = 9"));
        assert!(text.contains("butterflies"));
        assert!(text.contains("degree histogram"));
    }

    #[test]
    fn missing_input_is_a_usage_error() {
        let mut sink = Vec::new();
        assert!(run(&raw(&[]), &mut sink).is_err());
    }

    #[test]
    fn nonexistent_file_is_reported() {
        let mut sink = Vec::new();
        assert!(run(&raw(&["/definitely/not/a/file.txt"]), &mut sink).is_err());
    }
}
