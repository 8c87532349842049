//! `fm-benchmark run --workload <name|all> --seed <n> [--seconds <s>]
//! [--trace [0|1]]` — run workloads and print one JSON line each on
//! stdout, a table on stderr; `aa` runs the untraced set twice and
//! compares.

use std::process::ExitCode;
use std::time::Duration;

use fm_benchmark::report::RunResult;
use fm_benchmark::spec::{self, END_TO_END, WORKLOADS};
use fm_benchmark::{fabric, workloads, Opts};

struct Args {
    command: String,
    workload: String,
    opts: Opts,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1).peekable();
    let command = it.next().ok_or("missing command: run | aa")?;
    let mut args = Args {
        command,
        workload: "all".into(),
        opts: Opts {
            seed: 1,
            seconds: f64::from(spec::RUN_SECONDS),
            traced: false,
        },
    };
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.opts.seconds = s;
            }
            // `--trace` may stand alone (the issue's form) or take 0|1
            // (the driver's form): the next argument is its value only
            // when it is one of those.
            "--trace" => {
                args.opts.traced = it.next_if(|v| v == "0" || v == "1").as_deref() != Some("0")
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn names(selector: &str) -> Result<Vec<&'static str>, String> {
    if selector == "all" {
        return Ok(WORKLOADS.to_vec());
    }
    WORKLOADS
        .iter()
        .find(|&&w| w == selector)
        .map(|&w| vec![w])
        .ok_or(format!("no workload named {selector}"))
}

/// Run one workload, print its line and table, and check the hygiene
/// promises. `None` when the run was incorrect.
fn run_one(name: &str, opts: &Opts) -> Option<RunResult> {
    let r = workloads::run(name, opts).expect("name comes from the declared list");
    eprint!("{}", r.table(name, opts.seed, opts.traced));
    println!("{}", r.json_line(opts.traced));
    let left = fabric::leftover_segments();
    if !left.is_empty() {
        eprintln!("fm-benchmark: segment files left in /dev/shm: {left:?}");
        fabric::cleanup_segments();
        return None;
    }
    r.correct().then_some(r)
}

/// Run one workload in a child process of its own — as the driver does,
/// so `peak_rss_mb` is that workload's alone — passing its result line
/// through. Returns the end-to-end values by name, or `None` when the
/// child failed.
fn run_child(name: &str, opts: &Opts) -> Option<Vec<(&'static str, f64)>> {
    let exe = std::env::current_exe().expect("path of this executable");
    let out = std::process::Command::new(exe)
        .args(["run", "--workload", name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("start a child run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    if !out.status.success() {
        return None;
    }
    let line = stdout.lines().last()?;
    let value_of = |metric: &str| {
        let rest = line.split_once(&format!("\"{metric}\": {{\"value\": "))?.1;
        rest.split_once(',')?.0.parse::<f64>().ok()
    };
    Some(
        END_TO_END
            .iter()
            .filter_map(|m| Some((m.name, value_of(m.name)?)))
            .collect(),
    )
}

fn aa(selected: &[&'static str], opts: &Opts) -> bool {
    let mut ok = true;
    let sets: Vec<Vec<_>> = (0..2)
        .map(|_| selected.iter().map(|w| run_child(w, opts)).collect())
        .collect();
    eprintln!("== A/A: two untraced sets, same code, same seed ==");
    for (i, name) in selected.iter().enumerate() {
        let (Some(a), Some(b)) = (&sets[0][i], &sets[1][i]) else {
            eprintln!("  {name}: a run was incorrect");
            ok = false;
            continue;
        };
        for (m, (&(_, x), &(_, y))) in END_TO_END.iter().zip(a.iter().zip(b)) {
            let rel = (x - y).abs() / x.abs().max(f64::MIN_POSITIVE);
            let within = rel <= m.bound;
            ok &= within;
            eprintln!(
                "  {name:<13} {:<15} {x:>14.4} {y:>14.4}  ratio {:>7.4}  bound {:.2}  {}",
                m.name,
                y / x,
                m.bound,
                if within { "ok" } else { "OUTSIDE BOUND" }
            );
        }
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fm-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let selected = match names(&args.workload) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("fm-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // A run is set-up + warm-up + `seconds`, a handful of seconds over
    // `seconds` in all; anything near the driver's 180 s limit is a hang.
    let runs = selected.len() as u32 * if args.command == "aa" { 2 } else { 1 };
    fabric::install_guards(Duration::from_secs(150) * runs);
    let ok = match args.command.as_str() {
        "run" if selected.len() == 1 => run_one(selected[0], &args.opts).is_some(),
        "run" => selected
            .iter()
            .map(|w| run_child(w, &args.opts).is_some())
            .fold(true, |a, b| a & b),
        "aa" => aa(
            &selected,
            &Opts {
                traced: false,
                ..args.opts
            },
        ),
        other => {
            eprintln!("fm-benchmark: unknown command {other}");
            return ExitCode::from(2);
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
