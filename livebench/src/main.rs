//! `nba-livebench`: the measured benchmark of NBA's live runtime.
//!
//! ```text
//! nba-livebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times `live::run` end to end and prints `mpps`, `gbps`,
//! `setup_s` and `delivered_ratio`; `--trace 1` runs the traced pass and
//! prints the per-layer metrics. Both first check the live runtime's
//! output against the DES runtime's on the same seed. The last line of
//! standard output is the JSON result; the line before it carries the
//! host fingerprint, per-call figures and clean-run hygiene. See
//! `README.md` beside this package.

mod liverun;
mod out;
mod stats;
mod trace;
mod workload;

use std::process::{Command, ExitCode};
use std::time::Instant;

use liverun::{differential, live_config, timed_call, Call, Hygiene};
use out::Json;
use stats::{median, ratio, spread};
use workload::{build_graph, Workload};

/// Fresh processes timed for `setup_s` before each measuring process, so
/// the probes sample the whole run; the median over all is reported.
const PROBES_PER_CHILD: usize = 5;

/// Measuring processes per end-to-end run. Each gets an equal share of
/// `--seconds` and the run reports the median over all their calls:
/// throughput shifts from one process to the next (memory layout, thread
/// placement), so pooling several processes steadies the median far more
/// than more calls in one process would.
const CHILDREN: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: nba-livebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The set-up probe, run in a fresh process: the app's `pipelines::*` call
/// and its first graph build, with cold table caches.
fn cold_setup(w: Workload) -> f64 {
    let t0 = Instant::now();
    let build = w.builder();
    let graph = build_graph(w, &build);
    let s = t0.elapsed().as_secs_f64();
    std::hint::black_box(graph);
    s
}

/// Runs this executable once per `args` and returns its standard output,
/// failing unless it exits successfully.
fn child(args: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let o = Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| format!("child process: {e}"))?;
    if !o.status.success() {
        return Err(format!(
            "child {args:?} failed ({}): {}",
            o.status,
            String::from_utf8_lossy(&o.stderr)
        ));
    }
    Ok(String::from_utf8_lossy(&o.stdout).into_owned())
}

/// One cold set-up time, measured in a fresh process.
fn probe_setup(w: Workload) -> Result<f64, String> {
    let text = child(&["--setup-probe".to_owned(), w.name().to_owned()])?;
    text.trim()
        .parse()
        .map_err(|_| format!("set-up probe printed {text:?}"))
}

/// A measuring process: one untimed warm-up call, then timed calls for
/// `seconds`, each printed as a [`Call`] line.
fn calls_child(w: Workload, seed: u64, seconds: f64) {
    let build = w.builder();
    std::hint::black_box(build_graph(w, &build));
    drop(timed_call(&live_config(w, seed, w.budget() / 4), w, &build));
    let cfg = live_config(w, seed, w.budget());
    let start = Instant::now();
    loop {
        println!("{}", timed_call(&cfg, w, &build).0.to_line());
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
}

/// The timed calls of an end-to-end run, from [`CHILDREN`] processes, and
/// the set-up probes taken between them.
fn measure(w: Workload, seed: u64, seconds: f64) -> Result<(Vec<Call>, Vec<f64>), String> {
    let args = [
        "--calls".to_owned(),
        w.name().to_owned(),
        seed.to_string(),
        (seconds / CHILDREN as f64).to_string(),
    ];
    let mut calls = Vec::new();
    let mut probes = Vec::new();
    for _ in 0..CHILDREN {
        for _ in 0..PROBES_PER_CHILD {
            probes.push(probe_setup(w)?);
        }
        let text = child(&args)?;
        let before = calls.len();
        calls.extend(text.lines().filter_map(Call::from_line));
        if calls.len() == before {
            return Err(format!("measuring process printed no calls: {text:?}"));
        }
    }
    Ok((calls, probes))
}

/// Packet accounting over a set of calls: packets attempted, packets
/// failed, calls whose accounting does not balance, summed hygiene.
fn tally(calls: &[Call]) -> (u64, u64, usize, Hygiene, u64) {
    let mut hygiene = Hygiene::default();
    let (mut attempted, mut failed, mut unbalanced, mut lost) = (0, 0, 0, 0);
    for c in calls {
        attempted += c.acc.budget;
        lost += c.acc.lost();
        hygiene.transitions += c.hygiene.transitions;
        hygiene.resteers += c.hygiene.resteers;
        hygiene.migrated_in += c.hygiene.migrated_in;
        hygiene.rx_dropped += c.hygiene.rx_dropped;
        if c.acc.balances() {
            failed += c.acc.lost();
        } else {
            unbalanced += 1;
            failed += c.acc.budget;
        }
    }
    (attempted, failed, unbalanced, hygiene, lost)
}

fn hygiene_json(h: &Hygiene, lost: u64) -> Json {
    Json::obj([
        ("transitions", Json::Int(h.transitions)),
        ("resteers", Json::Int(h.resteers)),
        ("migrated_in", Json::Int(h.migrated_in)),
        ("rx_dropped", Json::Int(h.rx_dropped)),
        ("lost", Json::Int(lost)),
    ])
}

fn call_json(r: &Call) -> Json {
    Json::obj([
        ("wall_s", Json::Num(r.wall_s)),
        ("mpps", Json::Num(r.mpps())),
        ("gbps", Json::Num(r.gbps())),
        ("tx", Json::Int(r.acc.tx)),
        ("verdict_drops", Json::Int(r.acc.verdict_drops)),
        ("balanced", Json::Bool(r.acc.balances())),
        ("hygiene", hygiene_json(&r.hygiene, r.acc.lost())),
    ])
}

fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let build = w.builder();
    // Fill the process-global table caches before anything is timed.
    std::hint::black_box(build_graph(w, &build));
    let check = differential(w, args.seed, &build);
    let mut problems: Vec<String> = Vec::new();
    if let Err(e) = &check {
        problems.push(format!("differential check: {e}"));
    }

    let mut info = vec![
        ("workload", Json::str(w.name())),
        (
            "mode",
            Json::str(if args.trace { "traced" } else { "end_to_end" }),
        ),
        ("host", out::provenance(args.seed)),
        ("budget_pkts", Json::Int(w.budget())),
        (
            "differential_verdicts",
            Json::Int(check.as_ref().map_or(0, |n| *n as u64)),
        ),
    ];

    let (runs, result_metrics) = if args.trace {
        let pass = trace::traced_pass(w, args.seed, &build, args.seconds);
        let unacc = pass.values["driver.unaccounted_ratio"];
        if unacc.abs() > trace::UNACCOUNTED_BOUND {
            problems.push(format!(
                "driver.unaccounted_ratio {unacc} leaves its bound {}",
                trace::UNACCOUNTED_BOUND
            ));
        }
        let defs = out::per_layer();
        info.push(("driver_replays", Json::Int(pass.replays as u64)));
        info.push(("live_pairs", Json::Int(pass.live_pairs as u64)));
        info.push((
            "moves",
            Json::obj(defs.iter().map(|d| (d.name.clone(), Json::str(d.moves)))),
        ));
        for d in &defs {
            eprintln!("{:<40} {:>14.3} {}", d.name, pass.values[&d.name], d.unit);
        }
        let m = out::metrics(&defs, |n| pass.values.get(n).copied());
        (pass.calls, m)
    } else {
        let (runs, probes) = measure(w, args.seed, args.seconds)?;
        let good: Vec<&Call> = runs.iter().filter(|r| r.acc.balances()).collect();
        let mpps: Vec<f64> = good.iter().map(|r| r.mpps()).collect();
        let gbps: Vec<f64> = good.iter().map(|r| r.gbps()).collect();
        let delivered: u64 = good.iter().map(|r| r.acc.tx + r.acc.verdict_drops).sum();
        let budgets: u64 = good.iter().map(|r| r.acc.budget).sum();
        let values = [
            ("mpps", median(&mpps)),
            ("gbps", median(&gbps)),
            ("setup_s", median(&probes)),
            ("delivered_ratio", ratio(delivered as f64, budgets as f64)),
        ];
        info.push(("mpps_spread", Json::Num(spread(&mpps))));
        info.push((
            "setup_probes_s",
            Json::Arr(probes.into_iter().map(Json::Num).collect()),
        ));
        for (name, x) in values {
            eprintln!("{name:<16} {x:>14.6}");
        }
        let m = out::metrics(&out::end_to_end(), |n| {
            values.iter().find(|(k, _)| *k == n).map(|(_, x)| *x)
        });
        (runs, m)
    };

    let (attempted, failed, unbalanced, hygiene, lost) = tally(&runs);
    if unbalanced > 0 {
        problems.push(format!(
            "{unbalanced} calls lost packets the runtime does not account for"
        ));
    }
    info.push(("calls", Json::Arr(runs.iter().map(call_json).collect())));
    info.push(("hygiene", hygiene_json(&hygiene, lost)));
    info.push((
        "problems",
        Json::Arr(problems.iter().map(Json::str).collect()),
    ));
    for p in &problems {
        eprintln!("FAILED: {p}");
    }
    let correct = problems.is_empty();
    println!("{}", Json::obj([("livebench", Json::obj(info))]).render());
    println!(
        "{}",
        out::result_line(correct, attempted, failed, result_metrics)
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // The child processes' modes: argument errors there are bugs here.
    match argv.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["--setup-probe", name] => {
            let w = Workload::parse(name).expect("parent passes a known workload");
            println!("{}", cold_setup(w));
            return ExitCode::SUCCESS;
        }
        ["--calls", name, seed, seconds] => {
            let w = Workload::parse(name).expect("parent passes a known workload");
            let seed = seed.parse().expect("parent passes a numeric seed");
            let seconds = seconds.parse().expect("parent passes numeric seconds");
            calls_child(w, seed, seconds);
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("nba-livebench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_contract_command_line() {
        let a = parse_args(&argv(
            "--workload nat-tcp-churn --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::NatChurn);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
    }

    #[test]
    fn failures_count_lost_packets_and_whole_unbalanced_calls() {
        let call = |tx, verdict_drops, attributed_lost, transitions| Call {
            wall_s: 1.0,
            acc: liverun::Accounting {
                budget: 100,
                tx,
                verdict_drops,
                attributed_lost,
            },
            tx_bits: tx * 512,
            hygiene: Hygiene {
                transitions,
                ..Hygiene::default()
            },
        };
        // Lossless; 3 attributed losses; 5 unattributed losses.
        let calls = [call(90, 10, 0, 1), call(90, 7, 3, 2), call(90, 5, 0, 4)];
        let (attempted, failed, unbalanced, hygiene, lost) = tally(&calls);
        assert_eq!((attempted, failed, unbalanced), (300, 103, 1));
        assert_eq!((hygiene.transitions, lost), (7, 8));
    }

    #[test]
    fn refuses_bad_command_lines() {
        for bad in [
            "--workload ipv6 --seed 1 --seconds 1 --trace 0",
            "--workload ipv4-64b --seed x --seconds 1 --trace 0",
            "--workload ipv4-64b --seed 1 --seconds 0 --trace 0",
            "--workload ipv4-64b --seed 1 --seconds 1 --trace 2",
            "--workload ipv4-64b --seed 1 --seconds 1",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "accepted: {bad}");
        }
    }
}
