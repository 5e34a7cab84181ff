//! The metric table, the per-run outcome (operations attempted and
//! failed, metric values), and the result line every run prints last.

use crate::json::quote;
use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// What a metric measures: the host running the simulator (time,
/// memory, bytes, daemon behaviour) or the simulated machine (model
/// statistics, deterministic for a seed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Host,
    Simulated,
}

/// One named metric with its unit and direction.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
}

const fn def(name: &'static str, unit: &'static str, better: Better, kind: Kind) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind,
    }
}

use Better::{Higher, Lower};
use Kind::{Host, Simulated};

/// Metrics a user of the simulator sees, printed by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    def("refs_per_s", "refs/s", Higher, Host),
    def("sim_speedup", "x", Higher, Simulated),
    def("cold_points_per_s", "points/s", Higher, Host),
    def("warm_job_ms_p50", "ms", Lower, Host),
    def("warm_job_ms_p90", "ms", Lower, Host),
    def("setup_s", "s", Lower, Host),
    def("peak_rss_mib", "MiB", Lower, Host),
];

/// Metrics of single layers, printed by every traced run. A layer the
/// workload does not exercise reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    def("trace.decode_ns_per_ref", "ns", Lower, Host),
    def("trace.bytes_per_ref", "B", Lower, Host),
    def("trace.generate_ns_per_ref", "ns", Lower, Host),
    def("coherence.silo.ns_per_access", "ns", Lower, Host),
    def("coherence.baseline.ns_per_access", "ns", Lower, Host),
    def("coherence.sram_hit_ratio", "ratio", Higher, Simulated),
    def("coherence.silo.vault_hit_ratio", "ratio", Higher, Simulated),
    def(
        "coherence.invalidations_per_kref",
        "1/kref",
        Lower,
        Simulated,
    ),
    def(
        "coherence.o_state_forwards_per_kref",
        "1/kref",
        Higher,
        Simulated,
    ),
    def(
        "coherence.directory_evictions_per_kref",
        "1/kref",
        Lower,
        Simulated,
    ),
    def(
        "coherence.dirty_writebacks_per_kref",
        "1/kref",
        Lower,
        Simulated,
    ),
    def("coherence.steps_per_access", "steps", Lower, Simulated),
    def("cache.get_ns", "ns", Lower, Host),
    def("cache.insert_ns", "ns", Lower, Host),
    def("cache.hit_ratio", "ratio", Higher, Simulated),
    def("directory.lookup_ns", "ns", Lower, Host),
    def("directory.update_ns", "ns", Lower, Host),
    def("noc.send_ns", "ns", Lower, Host),
    def("noc.msgs_per_kref", "1/kref", Lower, Simulated),
    def("noc.avg_hops", "hops", Lower, Simulated),
    def("noc.max_link_flits", "flits", Lower, Simulated),
    def("dram.access_ns", "ns", Lower, Host),
    def("dram.memory_accesses_per_kref", "1/kref", Lower, Simulated),
    def(
        "dram.vault_busy_cycles_per_kref",
        "cycles/kref",
        Lower,
        Simulated,
    ),
    def("timing.charge_ns", "ns", Lower, Host),
    def("run.self_ns_per_ref", "ns", Lower, Host),
    def("run.tracing_overhead", "x", Lower, Host),
    def("telemetry.record_ns", "ns", Lower, Host),
    def("serve.plan_ms", "ms", Lower, Host),
    def("serve.point_key_us", "us", Lower, Host),
    def("serve.document_ms", "ms", Lower, Host),
    def("serve.self_ms_p50", "ms", Lower, Host),
    def("serve.cache_hit_ratio", "ratio", Higher, Host),
    def("serve.run_point_ms", "ms", Lower, Host),
];

/// The definition of metric `name`, from either table.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// What one run produced: operations attempted and failed, the metric
/// values, sample counts worth stating, and why operations failed.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    pub samples: Vec<(&'static str, usize)>,
    pub failures: Vec<String>,
}

impl Outcome {
    /// Counts one operation; it failed when `errors` is non-empty.
    pub fn op(&mut self, errors: Vec<String>) {
        self.attempted += 1;
        if !errors.is_empty() {
            self.failed += 1;
            self.failures.extend(errors);
        }
    }

    /// Sets metric `name` (which must be in the metric table).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(lookup(name).is_some(), "unknown metric {name}");
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    /// The value of metric `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Fills every metric of `table` that was not set with 0 (an idle
    /// layer), counts each non-finite value as a failed operation, and
    /// puts the metrics in table order.
    pub fn complete(&mut self, table: &[MetricDef]) {
        for d in table {
            match self.get(d.name) {
                None => self.set(d.name, 0.0),
                Some(v) if !v.is_finite() => {
                    self.op(vec![format!("metric {} is not finite ({v})", d.name)]);
                    self.set(d.name, 0.0);
                }
                Some(_) => {}
            }
        }
        let rank = |name: &str| table.iter().position(|d| d.name == name);
        self.metrics.sort_by_key(|(name, _)| rank(name));
    }

    /// The result line: `correct`, `attempted`, `failed`, and every
    /// metric with its unit.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let unit = lookup(name).map_or("", |d| d.unit);
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(name),
                number(*value),
                quote(unit)
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite number as JSON, with all its digits.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The `q`-quantile of `values` (linear interpolation between closest
/// ranks); `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when `den` is 0.
pub fn per(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// 64-bit FNV-1a of `bytes`, as 16 hex digits.
pub fn fnv_hex(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 when
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, d) in all.iter().enumerate() {
            assert!(
                all[..i].iter().all(|o| o.name != d.name),
                "{} twice",
                d.name
            );
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')));
        }
    }

    #[test]
    fn failed_operations_make_the_result_incorrect() {
        let mut o = Outcome::default();
        o.op(Vec::new());
        o.set("setup_s", 0.25);
        assert!(o
            .result_json()
            .starts_with("{\"correct\":true,\"attempted\":1,\"failed\":0"));
        o.op(vec!["digest mismatch".into()]);
        o.set("refs_per_s", f64::NAN);
        o.complete(&END_TO_END[..1]);
        assert_eq!((o.attempted, o.failed), (3, 2));
        assert!(o
            .result_json()
            .contains("\"setup_s\":{\"value\":0.25,\"unit\":\"s\"}"));
    }
}
