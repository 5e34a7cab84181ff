//! Smoke passes over every workload at a few hundred references per
//! core: every metric is present with a unit and a direction, clean runs
//! fail nothing, and a perturbed expected digest shows up as failed
//! operations. Also pins `BENCHMARK.json` to the metric table and the
//! committed digests to the default seed's output.

use perfbench::json::Value;
use perfbench::report::{lookup, Better, MetricDef, Outcome, END_TO_END, PER_LAYER};
use perfbench::{golden_digest, Params, DEFAULT_SEED, WORKLOADS};
use std::path::PathBuf;

fn work_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

fn tiny(tag: &str, expected_digest: Option<&str>) -> Params {
    Params {
        seed: 7,
        seconds: 0.2,
        tiny: true,
        expected_digest: expected_digest.map(str::to_string),
        work_dir: work_dir(tag),
    }
}

/// Every metric of `table` appears once, in the result line, with its
/// unit; each is finite and known to the table with a direction.
fn assert_metrics(outcome: &Outcome, table: &[MetricDef]) {
    let line = Value::parse(&outcome.result_json()).expect("result line is JSON");
    let Some(Value::Obj(metrics)) = line.get("metrics") else {
        panic!("no metrics object");
    };
    assert_eq!(metrics.len(), table.len());
    for d in table {
        let m = line
            .get("metrics")
            .and_then(|m| m.get(d.name))
            .unwrap_or_else(|| panic!("{} missing", d.name));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(d.unit));
        assert!(m
            .get("value")
            .and_then(Value::as_f64)
            .is_some_and(f64::is_finite));
        let def = lookup(d.name).expect("in the table");
        assert!(!def.unit.is_empty());
        assert!(matches!(def.better, Better::Higher | Better::Lower));
    }
}

/// Layers a traced run of `workload` must find busy (non-zero).
fn busy_layers(workload: &str) -> Vec<&'static str> {
    const SIM: [&str; 16] = [
        "coherence.silo.ns_per_access",
        "coherence.baseline.ns_per_access",
        "coherence.sram_hit_ratio",
        "coherence.silo.vault_hit_ratio",
        "coherence.steps_per_access",
        "cache.get_ns",
        "cache.insert_ns",
        "directory.lookup_ns",
        "directory.update_ns",
        "noc.send_ns",
        "noc.msgs_per_kref",
        "noc.avg_hops",
        "dram.access_ns",
        "dram.memory_accesses_per_kref",
        "timing.charge_ns",
        "run.tracing_overhead",
    ];
    let mut busy = match workload {
        "replay-private-16c" => vec!["trace.decode_ns_per_ref", "trace.bytes_per_ref"],
        "write-share-64c" => vec![
            "trace.generate_ns_per_ref",
            "telemetry.record_ns",
            "coherence.invalidations_per_kref",
        ],
        _ => {
            return vec![
                "serve.plan_ms",
                "serve.point_key_us",
                "serve.document_ms",
                "serve.self_ms_p50",
                "serve.cache_hit_ratio",
                "serve.run_point_ms",
                "run.tracing_overhead",
            ]
        }
    };
    busy.extend(SIM);
    busy
}

#[test]
fn every_workload_reports_every_metric_and_fails_nothing() {
    for w in WORKLOADS {
        let p = tiny(&format!("clean-{w}"), None);
        let untraced = perfbench::run(w, &p, false).expect("known workload");
        assert_eq!(untraced.failed, 0, "{w}: {:?}", untraced.failures);
        assert!(untraced.attempted >= 1);
        assert_metrics(&untraced, END_TO_END);
        for d in END_TO_END {
            assert!(
                untraced.get(d.name).is_some_and(|v| v > 0.0),
                "{w}: {} is 0",
                d.name
            );
        }

        let traced = perfbench::run(w, &p, true).expect("known workload");
        assert_eq!(traced.failed, 0, "{w} traced: {:?}", traced.failures);
        assert_metrics(&traced, PER_LAYER);
        for name in busy_layers(w) {
            assert!(
                traced.get(name).is_some_and(|v| v > 0.0),
                "{w}: {name} is 0"
            );
        }
        let trace = std::fs::read_to_string(perfbench::trace_path(&p, w)).expect("trace written");
        assert!(Value::parse(&trace).is_ok_and(|t| t.get("traceEvents").is_some()));
    }
}

#[test]
fn a_perturbed_digest_counts_as_failed_operations() {
    for w in WORKLOADS {
        for trace in [false, true] {
            let p = tiny(&format!("perturbed-{w}-{trace}"), Some("0123456789abcdef"));
            let o = perfbench::run(w, &p, trace).expect("known workload");
            assert!(
                o.failed > 0,
                "{w} (trace {trace}): perturbed digest not caught"
            );
            assert!(o
                .failures
                .iter()
                .all(|f| f.contains("differs from expected")));
            assert!(o.result_json().starts_with("{\"correct\":false"));
        }
    }
}

#[test]
fn the_default_seed_matches_the_committed_digests() {
    for w in WORKLOADS {
        let p = Params::new(w, DEFAULT_SEED, 0.01, work_dir(&format!("golden-{w}")));
        assert!(p.expected_digest.is_some(), "{w} has a committed digest");
        assert_eq!(p.expected_digest, golden_digest(w));
        let o = perfbench::run(w, &p, false).expect("known workload");
        assert_eq!(o.failed, 0, "{w}: {:?}", o.failures);
    }
}

#[test]
fn benchmark_json_lists_the_workloads_and_the_metric_table() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let v = Value::parse(&text).expect("BENCHMARK.json is JSON");
    let names = |key: &str| -> Vec<String> {
        v.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|e| e.get("name").and_then(Value::as_str).map(str::to_string))
            .collect()
    };
    assert_eq!(names("workloads"), WORKLOADS);
    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let entries = v.get(key).and_then(Value::as_arr).unwrap_or_default();
        assert_eq!(entries.len(), table.len(), "{key}");
        for (e, d) in entries.iter().zip(table) {
            assert_eq!(e.get("name").and_then(Value::as_str), Some(d.name));
            assert_eq!(e.get("unit").and_then(Value::as_str), Some(d.unit));
            let better = match d.better {
                Better::Higher => "higher",
                Better::Lower => "lower",
            };
            assert_eq!(
                e.get("better").and_then(Value::as_str),
                Some(better),
                "{}",
                d.name
            );
        }
    }
}
