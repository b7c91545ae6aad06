//! `mbpe generate` — synthesise a bipartite graph and write it to disk.

use std::io::Write;

use bigraph::formats::{write_adjacency, write_konect};
use bigraph::gen::chung_lu::chung_lu_bipartite;
use bigraph::gen::datasets::DatasetSpec;
use bigraph::gen::er::er_bipartite;
use bigraph::io::write_edge_list;
use bigraph::BipartiteGraph;

use crate::args::Args;
use crate::CliError;

/// Help text for `mbpe help generate` and `mbpe generate --help`.
pub const HELP: &str = "\
mbpe generate — synthesise a bipartite graph

USAGE:
    mbpe generate --dataset <NAME> [--scale N | --full] --out <FILE>
    mbpe generate --er --left L --right R --edges E [--seed S] --out <FILE>
    mbpe generate --chung-lu --left L --right R --edges E [--gamma G] [--seed S] --out <FILE>

OPTIONS:
    --dataset <NAME>   Synthetic stand-in for a Table-1 dataset (Divorce … Google)
    --scale <N>        Divide the dataset dimensions by N (default: registry scale)
    --full             Generate the dataset at the paper's full size
    --er               Erdős–Rényi bipartite graph
    --chung-lu         Chung–Lu power-law bipartite graph
    --left/--right     Side sizes for --er / --chung-lu
    --edges <E>        Edge count for --er / --chung-lu
    --gamma <G>        Power-law exponent for --chung-lu (default 2.2)
    --seed <S>         RNG seed (default 1)
    --out <FILE>       Output path (required)
    --format <F>       edgelist (default) | konect | adjacency";

const OPTIONS: &[&str] = &[
    "dataset", "scale", "full", "er", "chung-lu", "left", "right", "edges", "gamma", "seed", "out",
    "format",
];
const FLAGS: &[&str] = &["full", "er", "chung-lu"];

/// Runs the command.
pub fn run(raw: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(raw, FLAGS)?;
    args.reject_unknown(OPTIONS)?;
    let seed: u64 = args.parse_or("seed", 1)?;

    let (graph, label) = if let Some(name) = args.value("dataset") {
        let spec = DatasetSpec::by_name(name)
            .ok_or_else(|| CliError::Usage(format!("unknown dataset {name:?}")))?;
        let g = if args.flag("full") {
            spec.generate_full()
        } else {
            spec.generate_with_scale(args.parse_or("scale", spec.default_scale)?)
        };
        (g, spec.name.to_string())
    } else if args.flag("er") {
        let g = er_bipartite(
            args.parse_required("left")?,
            args.parse_required("right")?,
            args.parse_required("edges")?,
            seed,
        );
        (g, "er".to_string())
    } else if args.flag("chung-lu") {
        let g = chung_lu_bipartite(
            args.parse_required("left")?,
            args.parse_required("right")?,
            args.parse_required("edges")?,
            args.parse_or("gamma", 2.2)?,
            seed,
        );
        (g, "chung-lu".to_string())
    } else {
        return Err(CliError::Usage(
            "generate needs one of --dataset, --er or --chung-lu".to_string(),
        ));
    };

    let path = args
        .value("out")
        .ok_or_else(|| CliError::Usage("generate requires --out <FILE>".to_string()))?;
    write_graph(&graph, path, args.value("format").unwrap_or("edgelist"))?;

    writeln!(
        out,
        "wrote {label}: |L| = {}, |R| = {}, |E| = {} -> {path}",
        graph.num_left(),
        graph.num_right(),
        graph.num_edges()
    )?;
    Ok(())
}

fn write_graph(g: &BipartiteGraph, path: &str, format: &str) -> Result<(), CliError> {
    let file = std::fs::File::create(path).map_err(bigraph::Error::from)?;
    match format {
        "edgelist" => write_edge_list(g, file)?,
        "konect" => write_konect(g, file)?,
        "adjacency" => write_adjacency(g, file)?,
        other => {
            return Err(CliError::Usage(format!(
                "unknown --format {other:?} (expected edgelist, konect or adjacency)"
            )))
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
    fn requires_a_generator_and_out() {
        let mut sink = Vec::new();
        assert!(run(&raw(&["--out", "/tmp/x.txt"]), &mut sink).is_err());
        assert!(
            run(&raw(&["--er", "--left", "3", "--right", "3", "--edges", "4"]), &mut sink).is_err()
        );
    }

    #[test]
    fn generates_every_format() {
        let dir = std::env::temp_dir().join("mbpe_cli_generate_test");
        std::fs::create_dir_all(&dir).unwrap();
        for format in ["edgelist", "konect", "adjacency"] {
            let path = dir.join(format!("g.{format}"));
            let path_str = path.to_str().unwrap().to_string();
            let mut sink = Vec::new();
            run(
                &raw(&[
                    "--chung-lu",
                    "--left",
                    "20",
                    "--right",
                    "15",
                    "--edges",
                    "60",
                    "--seed",
                    "9",
                    "--format",
                    format,
                    "--out",
                    &path_str,
                ]),
                &mut sink,
            )
            .unwrap();
            let g = bigraph::formats::read_auto(&path).unwrap();
            assert!(g.num_edges() > 0, "{format} roundtrips a non-empty graph");
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn dataset_generation_respects_scale() {
        let dir = std::env::temp_dir().join("mbpe_cli_generate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("divorce.txt");
        let path_str = path.to_str().unwrap().to_string();
        let mut sink = Vec::new();
        run(&raw(&["--dataset", "Divorce", "--out", &path_str]), &mut sink).unwrap();
        let g = bigraph::formats::read_auto(&path).unwrap();
        assert_eq!(g.num_left(), 9);
        assert_eq!(g.num_right(), 50);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn unknown_dataset_and_format_are_rejected() {
        let mut sink = Vec::new();
        assert!(run(&raw(&["--dataset", "NotADataset", "--out", "/tmp/x"]), &mut sink).is_err());
        assert!(run(
            &raw(&[
                "--er", "--left", "2", "--right", "2", "--edges", "1", "--out", "/tmp/x",
                "--format", "xml"
            ]),
            &mut sink
        )
        .is_err());
    }
}
