//! `wepic-e2e --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload once and prints its metrics; the last line of standard
//! output is the JSON object the benchmark driver reads. `--trace 1` runs
//! the workload untraced and then traced, on the same inputs, and prints
//! the per-layer metrics and the budget table. `--selfcheck` runs it twice
//! untraced and compares the two runs against each metric's bound.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use wepic_e2e::driver::{self, Outcome};
use wepic_e2e::gen::Inputs;
use wepic_e2e::report;
use wepic_e2e::spec::{self, END_TO_END, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: wepic-e2e --workload <{}> --seed <u64> --seconds <1..60> --trace <0|1> [--selfcheck]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 12.0,
        trace: false,
        selfcheck: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=60.0).contains(&args.seconds) {
                    return Err("--seconds must be within 1..60".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if args.workload.is_empty() {
        return Err(usage());
    }
    Ok(args)
}

/// The run's scratch directory, inside the checkout, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(workload: &str, seed: u64) -> std::io::Result<Scratch> {
        let dir = Path::new(".bench_run").join(format!("{workload}-{seed}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind; fails harmlessly when another run
        // still uses it.
        let _ = std::fs::remove_dir(".bench_run");
    }
}

fn one_run(
    inputs: &[Inputs],
    scratch: &Scratch,
    tag: &str,
    seed: u64,
    trace: bool,
) -> Result<Outcome, String> {
    let out = driver::run(inputs, &scratch.0.join(tag), seed, trace)?;
    // Each run's stores are dead weight once it is measured.
    let _ = std::fs::remove_dir_all(scratch.0.join(tag));
    Ok(out)
}

fn describe(name: &str, o: &Outcome) {
    let m = &o.m;
    println!(
        "# {name}: {} paced ops in {:.2} s ({} watched), {} saturation ops in {:.2} s, \
         {} rule-change cycles in {:.2} s, {} restarts in {:.2} s, {} rows watched, \
         {} attempted, {} failed, verified against the reference: {}",
        m.attempted - m.sat_ops,
        m.paced_s,
        m.paced_latency_ms.len(),
        m.sat_ops,
        m.sat_s,
        m.rule_cycle_ms.len(),
        m.rule_s,
        m.restart_s.len(),
        m.restarts_s,
        m.watched_rows,
        m.attempted,
        m.failed,
        m.correct
    );
}

fn selfcheck(a: &Outcome, b: &Outcome) -> bool {
    let (ma, mb) = (report::end_to_end(a), report::end_to_end(b));
    println!(
        "{:<22} {:>14} {:>14} {:>9} {:>7}",
        "metric", "run 1", "run 2", "diff", "bound"
    );
    let mut ok = true;
    for e in END_TO_END {
        let (x, y) = (ma[e.name], mb[e.name]);
        let diff = (x - y).abs() / x.abs().max(f64::MIN_POSITIVE);
        let within = diff <= e.bound;
        ok &= within;
        println!(
            "{:<22} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}%{}",
            e.name,
            x,
            y,
            100.0 * diff,
            100.0 * e.bound,
            if within { "" } else { "  EXCEEDED" }
        );
    }
    ok
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    let spec = spec::workload(&args.workload)
        .ok_or_else(|| format!("unknown workload {}\n{}", args.workload, usage()))?;
    let inputs = driver::epoch_inputs(spec, spec.sizes(args.seconds), spec::EPOCHS, args.seed);
    let scratch =
        Scratch::new(spec.name, args.seed).map_err(|e| format!("scratch directory: {e}"))?;
    println!(
        "# wepic-e2e {} seed {} seconds {} cpus {}",
        spec.name,
        args.seed,
        args.seconds,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    let first = one_run(&inputs, &scratch, "a", args.seed, false)?;
    describe("untraced run", &first);
    if args.selfcheck {
        let second = one_run(&inputs, &scratch, "b", args.seed, false)?;
        describe("second run", &second);
        let steady = selfcheck(&first, &second);
        return Ok(steady && first.m.correct && second.m.correct);
    }
    if !args.trace {
        let metrics = report::end_to_end(&first);
        print!("{}", report::listing(&metrics));
        println!(
            "{}",
            report::json_line(
                first.m.correct,
                first.m.attempted,
                first.m.failed,
                &metrics,
                &report::unit_of
            )
        );
        return Ok(first.m.correct);
    }

    let traced = one_run(&inputs, &scratch, "t", args.seed, true)?;
    describe("traced run", &traced);
    let overhead = traced.m.elastic_s() / first.m.elastic_s();
    let metrics = report::per_layer(&traced, overhead);
    print!("{}", report::listing(&metrics));
    print!("{}", report::budget_table(&traced));
    if metrics["bench.budget_coverage"] < 0.90 {
        println!("# budget coverage below 0.90; the driver's own time sits here:");
        print!("{}", report::uncovered_table(&traced.budget));
    }
    let correct = first.m.correct && traced.m.correct;
    println!(
        "{}",
        report::json_line(
            correct,
            traced.m.attempted,
            traced.m.failed.max(first.m.failed),
            &metrics,
            &report::unit_of
        )
    );
    Ok(correct)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("wepic-e2e: {e}");
            ExitCode::from(2)
        }
    }
}
