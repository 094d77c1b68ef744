//! `bonsai-perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report and, as its last line, one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`. Exits 1
//! when a check failed and 2 on a usage error. `--workload all` runs every
//! workload in its own child process, one after another.

use bonsai_perfbench::report::Outcome;
use bonsai_perfbench::run::{self, Args};
use bonsai_perfbench::workload::Workload;
use std::path::Path;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: bonsai-perfbench --workload <mw64k_r1|mw16k_r16|mw16k_r16_chaos|all> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

struct Cli {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => cli.workload = value.clone(),
            "--seed" => {
                cli.seed = value
                    .parse()
                    .map_err(|_| bad("expected an unsigned integer"))?
            }
            "--seconds" => {
                cli.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
                    return Err(bad("expected 0 < seconds <= 60"));
                }
            }
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if cli.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse(std::env::args().skip(1)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.workload == "all" {
        return run_all(&cli);
    }
    let Some(workload) = Workload::from_name(&cli.workload) else {
        eprintln!("unknown workload '{}'\n{USAGE}", cli.workload);
        return ExitCode::from(2);
    };
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::from(1);
    }
    let args = Args {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        out_dir,
    };
    let result = if args.trace {
        run::traced(&args)
    } else {
        run::end_to_end(&args)
    };
    match result {
        Ok(outcome) => finish(&outcome),
        Err(e) => {
            eprintln!("benchmark error: {e}");
            ExitCode::from(1)
        }
    }
}

fn finish(outcome: &Outcome) -> ExitCode {
    print!("{}", outcome.render());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Run every workload in its own process (so `peak_rss_mb` is per
/// workload), streaming each report; fails if any run failed.
fn run_all(cli: &Cli) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate the benchmark binary: {e}");
            return ExitCode::from(1);
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let status = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &cli.seed.to_string()])
            .args(["--seconds", &cli.seconds.to_string()])
            .args(["--trace", if cli.trace { "1" } else { "0" }])
            .status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
