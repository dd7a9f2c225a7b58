//! Regenerates the tables and figures of the paper's evaluation, writing
//! JSON under `results/`. Run with `--scale full` for the EXPERIMENTS.md
//! configuration; `--only fig09,table1` regenerates just the named ones.
use std::process::ExitCode;

use p4lru_bench::figures;
use p4lru_bench::Scale;

type FigureFn = fn(Scale) -> Vec<p4lru_bench::FigureResult>;

const ALL: [(&str, FigureFn); 11] = [
    ("table1", figures::table1::run),
    ("table2", figures::table2::run),
    ("fig09", figures::fig09::run),
    ("fig10", figures::fig10::run),
    ("fig11", figures::fig11::run),
    ("fig12", figures::fig12::run),
    ("fig13", figures::fig13::run),
    ("fig14", figures::fig14::run),
    ("fig15", figures::fig15::run),
    ("fig16", figures::fig16::run),
    ("fig17", figures::fig17::run),
];

fn main() -> ExitCode {
    let scale = Scale::from_args();
    let mut args = std::env::args().skip(1);
    let only = args
        .find(|a| a == "--only")
        .map(|_| args.next().unwrap_or_default());
    let names: Vec<&str> = only.iter().flat_map(|o| o.split(',')).collect();
    if let Some(unknown) = names.iter().find(|n| !ALL.iter().any(|(k, _)| k == *n)) {
        let valid: Vec<&str> = ALL.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "error: --only: unknown figure {unknown:?} (valid: {})",
            valid.join(", ")
        );
        return ExitCode::FAILURE;
    }
    let start = std::time::Instant::now();
    for (name, run) in ALL
        .iter()
        .filter(|(name, _)| only.is_none() || names.contains(name))
    {
        let t = std::time::Instant::now();
        eprintln!(">>> {name} ...");
        for fig in run(scale) {
            fig.emit();
        }
        eprintln!(">>> {name} done in {:.1?}\n", t.elapsed());
    }
    eprintln!("figures regenerated in {:.1?}", start.elapsed());
    ExitCode::SUCCESS
}
