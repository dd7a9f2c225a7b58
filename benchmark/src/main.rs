//! `p4lru_benchmark` — see `benchmark/README.md`. Run it through
//! `benchmark/run.sh`, which builds the daemons and this binary first.

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::process::ExitCode;

use p4lru_benchmark::procs::Dirs;
use p4lru_benchmark::report::{Report, END_TO_END};
use p4lru_benchmark::stats::{median, quartiles, spread};
use p4lru_benchmark::sys::{pin_to, CpuSplit};
use p4lru_benchmark::tape::{Workload, WORKLOADS};
use p4lru_benchmark::{traced, untraced};

const USAGE: &str = "\
p4lru_benchmark — end-to-end and per-layer benchmark of the serving stack

USAGE: benchmark/run.sh [OPTIONS]

OPTIONS:
  --workload <name>   read_hot | read_cold | write_durable | tier_mixed
                      [default: all four, in that order]
  --seed <n>          seed of the op tapes            [default: 1]
  --seconds <n>       measured seconds per run        [default: 20]
  --trace <0|1>       1 = the traced run (per-layer metrics)  [default: 0]
  --repeat <n>        run the chosen workloads round-robin n times, seeds
                      seed..seed+n, and report medians and quartiles
  --check-repeat      make every one of the --repeat runs (at least 3) twice,
                      back to back, into a set A and a set B, and fail if
                      B's median of an end-to-end metric is worse than A's
                      by more than its bound; a metric whose spread within
                      a set exceeds its bound is reported as unresolved
  --bin-dir <path>    where p4lru_serverd/p4lru_tierd/p4lru_routerd are
  --out-dir <path>    scratch and output directory
  -h, --help          print this help

The last line of standard output is the result of the last run as one JSON
object: {\"correct\": …, \"attempted\": …, \"failed\": …, \"metrics\": {…}}.
";

/// Per-layer counts that must repeat exactly for a seed.
const EXACT: [&str; 4] = [
    "core.hit_rate",
    "core.evictions_per_kop",
    "kvstore.visits_per_lookup",
    "protocol.wire_bytes_per_op",
];

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: u64,
    traced: bool,
    repeat: u64,
    check_repeat: bool,
    dirs: Dirs,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.iter().collect(),
        seed: 1,
        seconds: 20,
        traced: false,
        repeat: 1,
        check_repeat: false,
        dirs: Dirs {
            bin: PathBuf::from("target/release"),
            out: PathBuf::from("benchmark/out"),
            cpus: CpuSplit::detect(),
        },
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            "--check-repeat" => {
                args.check_repeat = true;
                continue;
            }
            _ => {}
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e| format!("bad value for {flag}: {e}");
        match flag.as_str() {
            "--workload" => {
                let w =
                    Workload::by_name(&value).ok_or_else(|| format!("unknown workload {value}"))?;
                args.workloads = vec![w];
            }
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad value for --trace: {other} (0|1)")),
                }
            }
            "--repeat" => args.repeat = value.parse().map_err(bad)?,
            "--bin-dir" => args.dirs.bin = value.into(),
            "--out-dir" => args.dirs.out = value.into(),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.seconds == 0 || args.repeat == 0 {
        return Err("--seconds and --repeat must be at least 1".to_owned());
    }
    Ok(args)
}

fn run_one(args: &Args, workload: &'static Workload, seed: u64) -> io::Result<Report> {
    let report = if args.traced {
        traced::run(&args.dirs, workload, seed, args.seconds)?
    } else {
        untraced::run(&args.dirs, workload, seed, args.seconds)?
    };
    print!("{}", report.table());
    Ok(report)
}

/// Metric values by (workload, metric), one per run.
type Series = BTreeMap<(&'static str, &'static str), Vec<f64>>;

/// What a command's runs came to.
#[derive(Default)]
struct Outcome {
    /// The last run that produced a report.
    last: Option<Report>,
    /// Failed ops, spoiled runs and failed checks.
    failed: u64,
}

/// Runs the chosen workloads round-robin `repeat` times, each run once per
/// entry of `sets`, back to back, so that the sets see the same weather;
/// which set goes first alternates. A run the generator spoiled is reported
/// and left out.
fn run_sets(args: &Args, repeat: u64, sets: &mut [Series], outcome: &mut Outcome) {
    let mut order: Vec<usize> = (0..sets.len()).collect();
    for round in 0..repeat {
        for workload in &args.workloads {
            for &set in &order {
                match run_one(args, workload, args.seed + round) {
                    Ok(report) => {
                        for m in &report.metrics {
                            sets[set]
                                .entry((report.workload, m.name))
                                .or_default()
                                .push(m.value);
                        }
                        outcome.failed += report.failed;
                        outcome.last = Some(report);
                    }
                    Err(e) => {
                        eprintln!("{} (seed {}): {e}", workload.name, args.seed + round);
                        outcome.failed += 1;
                    }
                }
            }
            order.rotate_left(1);
        }
    }
}

fn print_series(title: &str, series: &Series) {
    println!("== {title}: median [q1 .. q3] spread, n ==");
    for ((workload, metric), values) in series {
        let med = median(values).unwrap_or(0.0);
        match quartiles(values) {
            Some((q1, _, q3)) => println!(
                "  {workload:<14} {metric:<34} {med:>14.4} [{q1:.4} .. {q3:.4}] {:>6.2} % n={}",
                100.0 * spread(values).unwrap_or(0.0),
                values.len()
            ),
            None => println!("  {workload:<14} {metric:<34} {med:>14.4} n=1"),
        }
    }
}

/// Set B against set A: every end-to-end median within its bound, every
/// exact count identical. A metric whose spread within either set exceeds
/// its bound cannot be told apart from noise at that bound: it is reported
/// as unresolved and neither passes nor fails. Returns how many checks
/// failed.
fn compare_sets(a: &Series, b: &Series) -> u64 {
    let (mut bad, mut unresolved) = (0, 0);
    println!("== check-repeat: set B against set A ==");
    for ((workload, metric), va) in a {
        let Some(vb) = b.get(&(*workload, *metric)) else {
            continue;
        };
        let (ma, mb) = (median(va).unwrap_or(0.0), median(vb).unwrap_or(0.0));
        if let Some((_, _, higher_better, bound)) = END_TO_END.iter().find(|(n, ..)| n == metric) {
            let worse =
                if *higher_better { ma - mb } else { mb - ma } / ma.abs().max(f64::MIN_POSITIVE);
            let (sa, sb) = (spread(va).unwrap_or(0.0), spread(vb).unwrap_or(0.0));
            let verdict = if sa.max(sb) > *bound {
                unresolved += 1;
                "unresolved"
            } else if worse <= *bound {
                "ok"
            } else {
                bad += 1;
                "FAIL"
            };
            println!(
                "  {workload:<14} {metric:<28} A {ma:>12.4} B {mb:>12.4} worse by {:>6.2} % (bound {:.0} %, spread A {:.2} % B {:.2} %) {verdict}",
                100.0 * worse,
                100.0 * bound,
                100.0 * sa,
                100.0 * sb,
            );
        } else if EXACT.contains(metric) {
            let ok = va == vb;
            println!(
                "  {workload:<14} {metric:<28} exact count {}",
                if ok { "repeats" } else { "DIFFERS" }
            );
            bad += u64::from(!ok);
        }
    }
    println!("  {bad} failed, {unresolved} unresolved (spread above the bound)");
    bad
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    // From here on this thread, and the generator threads it starts, stay
    // off the daemons' CPUs.
    pin_to(args.dirs.cpus.generator);
    let mut outcome = Outcome::default();
    if args.check_repeat {
        let mut sets = [Series::new(), Series::new()];
        run_sets(&args, args.repeat.max(3), &mut sets, &mut outcome);
        print_series("set A", &sets[0]);
        print_series("set B", &sets[1]);
        outcome.failed += compare_sets(&sets[0], &sets[1]);
    } else {
        let mut sets = [Series::new()];
        run_sets(&args, args.repeat, &mut sets, &mut outcome);
        if args.repeat > 1 {
            print_series("repeat", &sets[0]);
        }
    }
    // No result line when the last run produced none: the caller must not
    // mistake an earlier run's numbers for this one's.
    match outcome.last {
        Some(report) if outcome.failed == 0 || report.failed > 0 => {
            println!("{}", report.json_line());
        }
        _ => {}
    }
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
