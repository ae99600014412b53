//! CI perf-regression gate: compares freshly measured `BENCH_*.json`
//! metrics against the committed baselines and fails on regressions
//! beyond a tolerance.
//!
//! Usage: `bench-gate <baseline_dir> <fresh_dir>`
//!
//! Only **ratio** metrics are pinned — speedups of one in-process code
//! path over another — because they are comparable across machines
//! (committed baselines come from the development box; CI runners have
//! different absolute speeds but see the same relative gains). A pinned
//! metric regresses the gate when
//! `fresh < baseline * (1 - TOLERANCE)`.
//!
//! Overhead ratios (bigger = worse) are gated the other way round, by
//! absolute **ceiling** ([`PINNED_CEILING`]): the fresh value alone must
//! stay at or below the cap, no baseline involved.
//!
//! The JSON involved is the flat `"metrics": {"name": number, ...}`
//! object the criterion shim writes; a tiny scanner avoids a JSON
//! dependency (no crates.io in the build image).

use std::process::ExitCode;

/// Allowed relative regression before the gate fails.
const TOLERANCE: f64 = 0.25;

/// (bench json file, metric name) pairs pinned by the gate. All are
/// speedup ratios measured on the **same workload scale** in both quick
/// (CI smoke) and full runs — like-for-like comparisons, not aggregates
/// whose constituent scales differ between modes.
const PINNED: &[(&str, &str)] = &[
    // Incremental maintenance vs from-scratch recomputation (PR 1 claim).
    ("BENCH_e10_incremental.json", "speedup_2606"),
    // Compiled+interned engine vs interpreted baseline (PR 4 claims):
    // fixpoint at the 1488-fact e11 scale (quick mode runs that scale
    // too), untag pair at the 2606-fact e10 scale. The unfriend ratio is
    // recorded but not gated — it sits closer to its floor under
    // 3-sample quick runs and would flake on shared runners.
    ("BENCH_e12_interned.json", "fixpoint_speedup_1488"),
    ("BENCH_e12_interned.json", "untag_speedup_2606"),
    // Compiled stage-layer matcher vs the Subst interpreter on the
    // delegated Wepic workload (PR 5 claim, ISSUE 5 headline >= 1.3x).
    ("BENCH_e13_stage.json", "delegated_stage_speedup"),
    // Sharded runtime scale-out (ISSUE 6 tentpole): burst-round latency
    // at 10^4 total peers over the same burst at 10^5 — near 1.0 when
    // round cost tracks the active set (inbox-driven scheduling), and
    // collapsing toward 0.1 if any per-registered-peer cost sneaks back
    // into the round path.
    ("BENCH_e14_scale.json", "scale_independence"),
    // Durable storage engine (ISSUE 8 tentpole): cold-start recovery
    // from segments + a policy-bounded WAL tail versus re-applying the
    // whole delta history from scratch. Collapses toward 1.0 if segment
    // import degrades to per-record history cost — the checkpoint would
    // then buy nothing.
    ("BENCH_e15_durability.json", "recovery_replay_speedup"),
];

/// (bench json file, metric name, ceiling) triples the fresh run must stay
/// **at or below** — absolute ratio caps, checked fresh-side only (no
/// baseline comparison, no tolerance: the ceiling *is* the contract).
/// Used for overhead ratios where "bigger" means "worse".
const PINNED_CEILING: &[(&str, &str, f64)] = &[
    // ISSUE 7: the structured trace pipeline may cost at most 15% on the
    // traced burst round versus the same round untraced.
    ("BENCH_e14_scale.json", "tracing_overhead", 1.15),
    // ISSUE 9: the reliable-delivery session layer may cost at most 20%
    // on a lossless link versus the raw transport.
    ("BENCH_e16_session.json", "session_overhead", 1.20),
];

/// Extracts `"name": <number>` from the shim's flat JSON. Good enough for
/// the format we write ourselves; returns `None` when absent.
fn metric(json: &str, name: &str) -> Option<f64> {
    let needle = format!("\"{name}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Lists the `BENCH_*.json` file names in `dir` (sorted; empty on error —
/// the caller reports unreadable directories through the pinned checks).
fn bench_files(dir: &str) -> Vec<String> {
    let mut out: Vec<String> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    out.sort();
    out
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let baseline_dir = args.next().unwrap_or_else(|| ".".into());
    let fresh_dir = args.next().unwrap_or_else(|| ".".into());

    let mut failures = 0usize;
    let mut checked = 0usize;

    // Directory-level cross-check, so a bench that silently stopped
    // producing (or never grew) its JSON cannot slip through as "nothing
    // to compare": every fresh summary needs a committed baseline, and
    // every committed baseline needs a fresh counterpart.
    let fresh_files = bench_files(&fresh_dir);
    if fresh_files.is_empty() {
        eprintln!(
            "bench-gate: no BENCH_*.json produced in {fresh_dir} — bench \
             runs are not writing summaries"
        );
        failures += 1;
    }
    for f in &fresh_files {
        if !std::path::Path::new(&baseline_dir).join(f).exists() {
            eprintln!(
                "bench-gate: fresh {f} has NO committed baseline in \
                 {baseline_dir} — commit one (run the bench with \
                 BENCH_JSON_DIR pointing at the repo root)"
            );
            failures += 1;
        }
    }
    for f in bench_files(&baseline_dir) {
        if !fresh_files.contains(&f) {
            eprintln!(
                "bench-gate: committed baseline {f} was NOT re-measured \
                 into {fresh_dir} — add its bench to the CI bench-smoke run"
            );
            failures += 1;
        }
    }
    for (file, name) in PINNED {
        let baseline_path = format!("{baseline_dir}/{file}");
        let fresh_path = format!("{fresh_dir}/{file}");
        let baseline_json = match std::fs::read_to_string(&baseline_path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("bench-gate: cannot read baseline {baseline_path}: {e}");
                failures += 1;
                continue;
            }
        };
        let fresh_json = match std::fs::read_to_string(&fresh_path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("bench-gate: cannot read fresh {fresh_path}: {e}");
                failures += 1;
                continue;
            }
        };
        let (Some(base), Some(fresh)) = (metric(&baseline_json, name), metric(&fresh_json, name))
        else {
            eprintln!("bench-gate: metric {name} missing in {file} (baseline or fresh)");
            failures += 1;
            continue;
        };
        checked += 1;
        let floor = base * (1.0 - TOLERANCE);
        let status = if fresh >= floor { "ok" } else { "REGRESSED" };
        println!(
            "bench-gate: {file} {name}: baseline {base:.2}, fresh {fresh:.2}, \
             floor {floor:.2} -> {status}"
        );
        if fresh < floor {
            failures += 1;
        }
    }
    for (file, name, ceiling) in PINNED_CEILING {
        let fresh_path = format!("{fresh_dir}/{file}");
        let fresh_json = match std::fs::read_to_string(&fresh_path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("bench-gate: cannot read fresh {fresh_path}: {e}");
                failures += 1;
                continue;
            }
        };
        let Some(fresh) = metric(&fresh_json, name) else {
            eprintln!("bench-gate: metric {name} missing in fresh {file}");
            failures += 1;
            continue;
        };
        checked += 1;
        let status = if fresh <= *ceiling { "ok" } else { "EXCEEDED" };
        println!("bench-gate: {file} {name}: fresh {fresh:.3}, ceiling {ceiling:.3} -> {status}");
        if fresh > *ceiling {
            failures += 1;
        }
    }
    if checked == 0 {
        // A gate that checked nothing must not pass: that is exactly the
        // silent state where the bench trajectory goes empty.
        eprintln!("bench-gate: 0 pinned metrics were comparable — failing loudly");
        failures += 1;
    }
    if failures > 0 {
        eprintln!("bench-gate: {failures} failure(s) across {checked} checked metric(s)");
        return ExitCode::FAILURE;
    }
    println!(
        "bench-gate: all {checked} pinned metrics within tolerance ({:.0}%)",
        TOLERANCE * 100.0
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::{bench_files, metric};

    #[test]
    fn bench_files_lists_only_bench_jsons() {
        let dir = std::env::temp_dir().join("wdl-bench-gate-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["BENCH_b.json", "BENCH_a.json", "notes.txt", "BENCH_c.txt"] {
            std::fs::write(dir.join(name), "{}").unwrap();
        }
        let listed = bench_files(dir.to_str().unwrap());
        assert_eq!(listed, vec!["BENCH_a.json", "BENCH_b.json"]);
        assert!(bench_files("/nonexistent-dir-for-bench-gate").is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scanner_reads_shim_json() {
        let json = r#"{
  "bench": "e12_interned",
  "metrics": {
    "fixpoint_speedup": 3.53,
    "incremental_speedup": 2.16,
    "count": 7
  }
}"#;
        assert_eq!(metric(json, "fixpoint_speedup"), Some(3.53));
        assert_eq!(metric(json, "incremental_speedup"), Some(2.16));
        assert_eq!(metric(json, "count"), Some(7.0));
        assert_eq!(metric(json, "missing"), None);
    }
}
