//! Every workload at 1/50 of its size, untraced and traced: the run must
//! verify against the oracle with no failed op, and the names it emits must
//! be the names `BENCHMARK.json` declares, so the two cannot drift.

use std::collections::BTreeSet;
use std::path::PathBuf;
use wepic_e2e::driver;
use wepic_e2e::report;
use wepic_e2e::spec::{END_TO_END, PER_LAYER, WORKLOADS};

const RUN_SECONDS: f64 = 12.0;

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("wepic-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn every_workload_verifies_at_a_fiftieth_of_its_size() {
    for spec in &WORKLOADS {
        let sizes = spec.sizes(RUN_SECONDS).scaled_down(50);
        let inputs = driver::epoch_inputs(spec, sizes, 2, 42);
        let dir = scratch(spec.name);
        let plain = driver::run(&inputs, &dir.join("plain"), 42, false).expect("untraced run");
        let traced = driver::run(&inputs, &dir.join("traced"), 42, true).expect("traced run");
        let _ = std::fs::remove_dir_all(&dir);

        for (kind, run) in [("untraced", &plain), ("traced", &traced)] {
            assert!(run.m.correct, "{} {kind}: oracle mismatch", spec.name);
            assert_eq!(run.m.failed, 0, "{} {kind}: failed ops", spec.name);
            assert!(run.m.attempted >= 16, "{} {kind}: too few ops", spec.name);
            assert!(
                !run.m.paced_latency_ms.is_empty(),
                "{} {kind}: no latency sample",
                spec.name
            );
        }

        let e2e = report::end_to_end(&plain);
        let names: Vec<&str> = e2e.keys().copied().collect();
        let declared: BTreeSet<&str> = END_TO_END.iter().map(|e| e.name).collect();
        assert_eq!(names, declared.into_iter().collect::<Vec<_>>());
        for (name, value) in &e2e {
            assert!(
                value.is_finite() && *value > 0.0,
                "{}: {name} = {value}",
                spec.name
            );
        }

        let layers = report::per_layer(&traced, 1.0);
        let names: Vec<&str> = layers.keys().copied().collect();
        let declared: BTreeSet<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, declared.into_iter().collect::<Vec<_>>());
        assert_eq!(layers["analyze.errors"], 0.0);
        assert_eq!(layers["bench.failed_frac"], 0.0);
        assert!(layers["store.syncs"] > 0.0 && layers["core.stage_calls"] > 0.0);
        let networked = !spec.inproc;
        assert_eq!(layers["session.data_frames"] > 0.0, networked);
        assert_eq!(layers["tcp.frames_out"] > 0.0, networked);
        assert_eq!(layers["shard.ticks"] > 0.0, !networked);
    }
}

/// The objects of the array under `key`, as `(field, raw value)` pairs.
/// `BENCHMARK.json` is flat enough for this: arrays of objects whose
/// values are strings or numbers.
fn objects(json: &str, key: &str) -> Vec<Vec<(String, String)>> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let open = start + json[start..].find('[').expect("array opens");
    let close = open + json[open..].find(']').expect("array closes");
    json[open + 1..close]
        .split('}')
        .filter(|chunk| chunk.contains('{'))
        .map(|chunk| {
            let body = &chunk[chunk.find('{').unwrap() + 1..];
            let mut fields = Vec::new();
            let mut rest = body;
            while let Some(q) = rest.find('"') {
                let after = &rest[q + 1..];
                let end = after.find('"').expect("field name closes");
                let name = after[..end].to_string();
                let value = after[end + 1..]
                    .trim_start()
                    .trim_start_matches(':')
                    .trim_start();
                let (raw, used) = if let Some(stripped) = value.strip_prefix('"') {
                    let e = stripped.find('"').expect("string closes");
                    (stripped[..e].to_string(), e + 2)
                } else {
                    let e = value.find([',', '\n']).unwrap_or(value.len());
                    (value[..e].trim().to_string(), e)
                };
                fields.push((name, raw));
                rest = &value[used..];
            }
            fields
        })
        .collect()
}

fn field<'a>(object: &'a [(String, String)], name: &str) -> &'a str {
    &object
        .iter()
        .find(|(n, _)| n == name)
        .expect("field present")
        .1
}

#[test]
fn benchmark_json_declares_what_the_benchmark_emits() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");

    let workloads: Vec<String> = objects(&json, "workloads")
        .iter()
        .map(|o| field(o, "name").to_string())
        .collect();
    let expected: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(workloads, expected);

    let e2e = objects(&json, "end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (object, metric) in e2e.iter().zip(END_TO_END) {
        assert_eq!(field(object, "name"), metric.name);
        assert_eq!(field(object, "unit"), metric.unit, "{}", metric.name);
        let better = if metric.lower_is_better {
            "lower"
        } else {
            "higher"
        };
        assert_eq!(field(object, "better"), better, "{}", metric.name);
        let bound: f64 = field(object, "bound").parse().expect("bound is a number");
        assert_eq!(bound, metric.bound, "{}", metric.name);
    }

    let layers = objects(&json, "per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (object, (name, unit)) in layers.iter().zip(PER_LAYER) {
        assert_eq!(field(object, "name"), name);
        assert_eq!(field(object, "unit"), unit, "{name}");
    }
}
