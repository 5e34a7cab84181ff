//! The two simulation workloads: SILO and the shared-LLC baseline run
//! back to back on one thread through `Simulation::builder`, repeated
//! until the time budget is spent.

use crate::layers::{self, Ref, SharedAcc, SYSTEMS};
use crate::report::{self, median, per, quantile, Outcome, END_TO_END, PER_LAYER};
use crate::Params;
use silo_obs::SpanRecorder;
use silo_sim::{
    BenchRecord, Simulation, SystemConfig, SystemRegistry, TraceHeader, TraceWriter, WorkloadSpec,
};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One simulation workload.
#[derive(Clone, Copy, Debug)]
pub struct SimWorkload {
    pub name: &'static str,
    /// The workload preset generating the references.
    preset: &'static str,
    cores: usize,
    refs_per_core: usize,
    /// Record the generated stream to a `.silotrace` during set-up and
    /// run the systems on its replay (`trace:file=`).
    replay: bool,
    /// Meter on: a warmup window of a tenth of the references and four
    /// telemetry epochs, as in `examples/paper_fig11.scenario`.
    metered: bool,
    /// Set-up repetitions; the median is reported.
    setups: usize,
}

/// 16 cores, private data, replayed from a trace recorded at set-up;
/// caches start empty.
pub const REPLAY_PRIVATE_16C: SimWorkload = SimWorkload {
    name: "replay-private-16c",
    preset: "uniform-private",
    cores: 16,
    refs_per_core: 100_000,
    replay: true,
    metered: false,
    setups: 5,
};

/// 64 cores, producer-consumer sharing (45% writes, 40% shared), from
/// the generator, with the meter on.
pub const WRITE_SHARE_64C: SimWorkload = SimWorkload {
    name: "write-share-64c",
    preset: "producer-consumer",
    cores: 64,
    refs_per_core: 10_000,
    replay: false,
    metered: true,
    setups: 5,
};

/// Per-core references of the smoke-test size.
const TINY_REFS_PER_CORE: usize = 300;

/// Fewest measured repetitions, however small the time budget.
const MIN_REPS: usize = 3;

impl SimWorkload {
    fn refs_per_core(&self, p: &Params) -> usize {
        if p.tiny {
            TINY_REFS_PER_CORE
        } else {
            self.refs_per_core
        }
    }

    fn total_refs(&self, p: &Params) -> u64 {
        (self.cores * self.refs_per_core(p)) as u64
    }

    fn warmup_refs(&self, p: &Params) -> u64 {
        if self.metered {
            self.total_refs(p) / 10
        } else {
            0
        }
    }

    fn epoch_refs(&self, p: &Params) -> u64 {
        self.total_refs(p) / 4
    }

    fn config(&self) -> SystemConfig {
        SystemConfig::paper_16core().with_cores(self.cores)
    }

    fn spec(&self, p: &Params) -> WorkloadSpec {
        let mut spec = WorkloadSpec::parse(self.preset).expect("preset workload");
        spec.refs_per_core = self.refs_per_core(p);
        spec
    }

    fn trace_path(&self, p: &Params) -> PathBuf {
        p.work_dir
            .join(format!("{}-{}.silotrace", self.name, std::process::id()))
    }

    /// Records the workload's generated stream to `path`, round-robin.
    fn record(&self, p: &Params, path: &Path) -> Result<(), String> {
        let cfg = self.config();
        let spec = self.spec(p);
        let header = TraceHeader {
            cores: self.cores,
            refs_per_core: spec.refs_per_core as u64,
            seed: p.seed,
            name: spec.name.clone(),
            provenance: format!("perfbench {} seed {}", self.name, p.seed),
        };
        let mut writer = TraceWriter::create(path, &header).map_err(|e| e.to_string())?;
        let mut source = spec
            .source(self.cores, cfg.scale, p.seed)
            .map_err(|e| e.to_string())?;
        let mut failed = None;
        layers::drain(&mut *source, self.cores, |core, mr| {
            if let Err(e) = writer.write(core, mr) {
                failed.get_or_insert(e.to_string());
            }
        });
        if let Some(e) = failed {
            return Err(e);
        }
        writer.finish().map(drop).map_err(|e| e.to_string())
    }

    fn simulation(&self, p: &Params, registry: SystemRegistry) -> Result<Simulation, String> {
        let workload = if self.replay {
            format!("trace:file={}", self.trace_path(p).display())
        } else {
            self.preset.to_string()
        };
        let mut b = Simulation::builder()
            .registry(registry)
            .systems(SYSTEMS)
            .workloads([workload])
            .cores([self.cores])
            .refs_per_core(self.refs_per_core(p))
            .seed(p.seed)
            .threads(1);
        if self.metered {
            b = b
                .warmup_refs(self.warmup_refs(p))
                .epoch_refs(self.epoch_refs(p));
        }
        b.build().map_err(|e| e.to_string())
    }

    /// One set-up: trace recording plus its validation for the replay
    /// workload; engine and timing construction for the generator one.
    fn set_up(&self, p: &Params) -> Result<Simulation, String> {
        if self.replay {
            self.record(p, &self.trace_path(p))?;
        } else {
            let registry = SystemRegistry::builtin();
            for name in SYSTEMS {
                let spec = registry.get(name).expect("built-in system");
                black_box(spec.instantiate(&self.config()));
            }
        }
        self.simulation(p, SystemRegistry::builtin())
    }

    /// The untraced run: end-to-end metrics.
    pub fn run(&self, p: &Params) -> Outcome {
        let mut out = Outcome::default();
        let (sim, setup_s) = match self.set_up_repeatedly(p) {
            Ok(v) => v,
            Err(e) => {
                self.remove_trace(p);
                out.op(vec![format!("set-up failed: {e}")]);
                return out;
            }
        };
        let t0 = Instant::now();
        let mut walls = Vec::new();
        let mut speedup = f64::NAN;
        let mut first_digest = None;
        while walls.len() < MIN_REPS || t0.elapsed().as_secs_f64() < p.seconds {
            let t = Instant::now();
            let records = sim.run_sequential();
            walls.push(t.elapsed().as_secs_f64());
            self.check(p, &records, &mut first_digest, &mut out);
            if walls.len() == 1 {
                speedup = records
                    .first()
                    .and_then(BenchRecord::speedup)
                    .unwrap_or(f64::NAN);
            }
        }
        self.remove_trace(p);
        let pair_refs = 2.0 * self.total_refs(p) as f64;
        let rates: Vec<f64> = walls.iter().map(|w| pair_refs / w).collect();
        let warm_ms: Vec<f64> = walls[1..].iter().map(|w| w * 1e3).collect();
        let points: Vec<f64> = walls.iter().map(|w| 1.0 / w).collect();
        out.set("refs_per_s", median(&rates));
        out.set("sim_speedup", speedup);
        out.set("cold_points_per_s", median(&points));
        out.set("warm_job_ms_p50", median(&warm_ms));
        out.set("warm_job_ms_p90", quantile(&warm_ms, 0.9));
        out.set("setup_s", setup_s);
        out.set("peak_rss_mib", report::peak_rss_mib());
        out.samples.push(("points", walls.len()));
        out.samples.push(("warm_jobs", warm_ms.len()));
        out.complete(END_TO_END);
        out
    }

    fn set_up_repeatedly(&self, p: &Params) -> Result<(Simulation, f64), String> {
        let mut times = Vec::new();
        let mut sim = None;
        for _ in 0..self.setups {
            // Record into a new file, not over the last one: ext4 starts
            // writeback of a truncated-and-rewritten file on close (about
            // 8 ms more per 10 MB on the host measured), timing the disk.
            self.remove_trace(p);
            let t = Instant::now();
            sim = Some(self.set_up(p)?);
            times.push(t.elapsed().as_secs_f64());
        }
        Ok((sim.expect("at least one set-up"), median(&times)))
    }

    fn remove_trace(&self, p: &Params) {
        if self.replay {
            let _ = std::fs::remove_file(self.trace_path(p));
        }
    }

    /// Checks one repetition's records, counting each system run as one
    /// operation. The repetition's digest must equal the expected one
    /// when given, else the first repetition's.
    fn check(
        &self,
        p: &Params,
        records: &[BenchRecord],
        first_digest: &mut Option<String>,
        out: &mut Outcome,
    ) {
        let mut errors = vec![Vec::new(); SYSTEMS.len()];
        let Some(record) = records.first().filter(|_| records.len() == 1) else {
            for _ in SYSTEMS {
                out.op(vec![format!(
                    "expected one sweep point, got {}",
                    records.len()
                )]);
            }
            return;
        };
        let total = self.total_refs(p);
        let measured = total - self.warmup_refs(p);
        for (i, name) in SYSTEMS.iter().enumerate() {
            let Some(run) = record.runs.get(i).filter(|r| r.stats.system == *name) else {
                errors[i].push(format!("run {i} is not {name}"));
                continue;
            };
            let s = &run.stats;
            if s.served.total() != measured {
                errors[i].push(format!(
                    "{name}: served-level counts sum to {}, expected {measured} refs",
                    s.served.total()
                ));
            }
            if s.instructions < measured || s.cycles.as_u64() == 0 {
                errors[i].push(format!(
                    "{name}: {} instructions in {} cycles",
                    s.instructions,
                    s.cycles.as_u64()
                ));
            }
            let timeline_refs = run.telemetry.timeline.total_refs();
            if self.metered && timeline_refs != total {
                errors[i].push(format!(
                    "{name}: timeline covers {timeline_refs} refs, expected {total}"
                ));
            }
        }
        let digest = digest(records);
        let expected = p.expected_digest.as_ref().or(first_digest.as_ref());
        if let Some(want) = expected.filter(|want| **want != digest) {
            for e in &mut errors {
                e.push(format!("digest {digest} differs from expected {want}"));
            }
        }
        first_digest.get_or_insert(digest);
        for e in errors {
            out.op(e);
        }
    }

    /// The traced run: untraced and traced repetitions alternate until
    /// the budget is spent, then each layer is timed in isolation on the
    /// workload's own stream. Writes the spans to `trace_out`.
    pub fn run_traced(&self, p: &Params, trace_out: &Path) -> Outcome {
        let mut out = Outcome::default();
        let spans = SpanRecorder::new(1 << 16);
        let t = spans.now_us();
        let plain = match self.set_up(p) {
            Ok(sim) => sim,
            Err(e) => {
                self.remove_trace(p);
                out.op(vec![format!("set-up failed: {e}")]);
                return out;
            }
        };
        spans.record("set-up", "bench", None, t, spans.now_us());
        let acc: SharedAcc = Arc::new(Mutex::new(Default::default()));
        let timed = self
            .simulation(p, layers::timed_registry(&acc))
            .expect("the plain simulation built");

        let t0 = Instant::now();
        let (mut plain_walls, mut timed_walls) = (Vec::new(), Vec::new());
        let mut first_digest = None;
        let mut last = Vec::new();
        while timed_walls.len() < MIN_REPS || t0.elapsed().as_secs_f64() < p.seconds {
            for (sim, walls, name) in [
                (&plain, &mut plain_walls, "untraced rep"),
                (&timed, &mut timed_walls, "traced rep"),
            ] {
                let start = spans.now_us();
                let t = Instant::now();
                let records = sim.run_sequential();
                walls.push(t.elapsed().as_secs_f64());
                self.check(p, &records, &mut first_digest, &mut out);
                record_run_spans(&spans, name, start, &records);
                last = records;
            }
        }

        let cfg = self.config();
        let t = spans.now_us();
        let streamed = self.stream(p);
        self.remove_trace(p);
        let (stream, source_ns, bytes_per_ref) = match streamed {
            Ok(v) => v,
            Err(e) => {
                out.op(vec![format!("reading the workload stream failed: {e}")]);
                return out;
            }
        };
        let lap = |name: &str, t: &mut u64| {
            let now = spans.now_us();
            spans.record(name, "layer", None, *t, now);
            *t = now;
        };
        let mut t = t;
        lap(
            if self.replay {
                "trace decode"
            } else {
                "trace generate"
            },
            &mut t,
        );
        let cache = layers::cache_layer(&cfg, &stream);
        lap("cache", &mut t);
        let (lookup_ns, update_ns) = layers::directory_layer(self.cores, &cache.misses);
        lap("directory", &mut t);
        let send_ns = layers::noc_layer(&cfg, &cache.misses);
        lap("noc", &mut t);
        let dram_ns = layers::dram_layer(&cfg, &cache.misses);
        lap("dram", &mut t);
        let acc = acc.lock().expect("no engine panicked");
        let charge_ns = layers::charge_ns(&cfg, &acc);
        lap("timing", &mut t);
        if self.metered {
            let ns = layers::telemetry_record_ns(
                &acc[0].levels,
                self.epoch_refs(p),
                self.warmup_refs(p),
            );
            lap("telemetry", &mut t);
            out.set("telemetry.record_ns", ns);
        }

        if self.replay {
            out.set("trace.decode_ns_per_ref", source_ns);
            out.set("trace.bytes_per_ref", bytes_per_ref);
        } else {
            out.set("trace.generate_ns_per_ref", source_ns);
        }
        let (silo, base) = (&acc[0], &acc[1]);
        out.set(
            "coherence.silo.ns_per_access",
            per(silo.ns as f64, silo.accesses as f64),
        );
        out.set(
            "coherence.baseline.ns_per_access",
            per(base.ns as f64, base.accesses as f64),
        );
        out.set(
            "coherence.steps_per_access",
            per(
                (silo.steps + base.steps) as f64,
                (silo.accesses + base.accesses) as f64,
            ),
        );
        out.set("cache.get_ns", cache.get_ns);
        out.set("cache.insert_ns", cache.insert_ns);
        out.set("cache.hit_ratio", cache.hit_ratio);
        out.set("directory.lookup_ns", lookup_ns);
        out.set("directory.update_ns", update_ns);
        out.set("noc.send_ns", send_ns);
        out.set("dram.access_ns", dram_ns);
        out.set("timing.charge_ns", charge_ns);
        if let Some(record) = last.first() {
            set_model_counts(&mut out, record);
        }

        let pair_refs = 2.0 * self.total_refs(p) as f64;
        let traced_ns = median(&timed_walls) * 1e9;
        let engine_ns = (silo.ns + base.ns) as f64 / timed_walls.len() as f64;
        out.set(
            "run.self_ns_per_ref",
            (traced_ns - engine_ns - source_ns * pair_refs) / pair_refs,
        );
        out.set(
            "run.tracing_overhead",
            median(&timed_walls) / median(&plain_walls),
        );
        out.samples.push(("traced_reps", timed_walls.len()));
        out.samples.push(("isolation_refs", stream.len()));
        out.complete(PER_LAYER);
        write_spans(&spans, trace_out, &mut out);
        out
    }

    /// The workload's reference stream, materialized, with the median
    /// ns per reference of decoding (replay) or generating it, and the
    /// trace file's bytes per reference (replay only, else 0).
    fn stream(&self, p: &Params) -> Result<(Vec<Ref>, f64, f64), String> {
        let cfg = self.config();
        let spec = if self.replay {
            WorkloadSpec::parse(&format!("trace:file={}", self.trace_path(p).display()))
                .map_err(|e| e.to_string())?
        } else {
            self.spec(p)
        };
        let open = || {
            spec.source(self.cores, cfg.scale, p.seed)
                .map_err(|e| e.to_string())
        };
        let mut times = Vec::new();
        for _ in 0..3 {
            let mut source = open()?;
            let t = Instant::now();
            let n = layers::drain(&mut *source, self.cores, |c, mr| {
                black_box((c, mr));
            });
            times.push(per(t.elapsed().as_nanos() as f64, n as f64));
        }
        let mut stream = Vec::with_capacity(self.total_refs(p) as usize);
        layers::drain(&mut *open()?, self.cores, |c, mr| stream.push((c, mr)));
        let bytes_per_ref = if self.replay {
            let len = std::fs::metadata(self.trace_path(p))
                .map_err(|e| e.to_string())?
                .len();
            per(len as f64, stream.len() as f64)
        } else {
            0.0
        };
        Ok((stream, median(&times), bytes_per_ref))
    }
}

/// Simulated per-kref counts of one repetition, over both systems'
/// measurement windows.
fn set_model_counts(out: &mut Outcome, record: &BenchRecord) {
    let runs = &record.runs;
    let sum = |f: &dyn Fn(&silo_sim::SystemRun) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    let refs = sum(&|r| r.stats.served.total());
    let kref = |counter: &str| 1e3 * per(sum(&|r| r.telemetry.recorder.get(counter)), refs);
    out.set("coherence.invalidations_per_kref", kref("invalidations"));
    out.set(
        "coherence.o_state_forwards_per_kref",
        kref("o_state_forwards"),
    );
    out.set(
        "coherence.directory_evictions_per_kref",
        kref("directory_evictions"),
    );
    out.set(
        "coherence.dirty_writebacks_per_kref",
        kref("dirty_writebacks"),
    );
    out.set("dram.memory_accesses_per_kref", kref("memory_accesses"));
    out.set("noc.msgs_per_kref", kref("mesh_messages"));
    out.set(
        "noc.avg_hops",
        per(
            sum(&|r| r.stats.mesh_total_hops),
            sum(&|r| r.stats.mesh_messages),
        ),
    );
    out.set(
        "noc.max_link_flits",
        runs.iter()
            .map(|r| r.stats.mesh_max_link_flits)
            .max()
            .unwrap_or(0) as f64,
    );
    let sram = sum(&|r| r.stats.served.l1.get() + r.stats.served.l2.get());
    out.set("coherence.sram_hit_ratio", per(sram, refs));
    if let Some(silo) = record.run("SILO") {
        let s = &silo.stats.served;
        let vault = (s.local_vault.get() + s.remote_vault.get()) as f64;
        out.set(
            "coherence.silo.vault_hit_ratio",
            per(vault, vault + s.memory.get() as f64),
        );
        out.set(
            "dram.vault_busy_cycles_per_kref",
            1e3 * per(
                silo.telemetry.recorder.get("vault_busy_cycles") as f64,
                s.total() as f64,
            ),
        );
    }
}

/// One span for the repetition and one per system run under it; the
/// runs are laid end to end from their measured wall times.
fn record_run_spans(spans: &SpanRecorder, name: &str, start: u64, records: &[BenchRecord]) {
    let rep = spans.reserve();
    let mut t = start;
    for run in records.iter().flat_map(|r| &r.runs) {
        let end = t + (run.wall_ms * 1e3) as u64;
        spans.record(&run.stats.system, "run", Some(rep), t, end);
        t = end;
    }
    spans.record_with_id(rep, name, "bench", None, start, spans.now_us());
}

pub(crate) fn write_spans(spans: &SpanRecorder, path: &Path, out: &mut Outcome) {
    if let Err(e) = std::fs::write(path, spans.chrome_json()) {
        out.op(vec![format!("writing {} failed: {e}", path.display())]);
    }
}

/// Digest of the simulated statistics of every run: the stats, the
/// telemetry counters, and the epoch timeline. Host time is left out.
pub fn digest(records: &[BenchRecord]) -> String {
    let mut s = String::new();
    for record in records {
        for run in &record.runs {
            let st = &run.stats;
            let v = &st.served;
            let _ = write!(
                s,
                "{}|{}|{}|{}|{:?}|{}|{:?}|{}|{}|{};",
                st.system,
                st.workload,
                st.instructions,
                st.cycles.as_u64(),
                [
                    v.l1,
                    v.l2,
                    v.local_vault,
                    v.remote_vault,
                    v.shared_llc,
                    v.memory
                ]
                .map(|c| c.get()),
                st.llc_accesses,
                st.llc_latency.bucket_counts(),
                st.mesh_messages,
                st.mesh_total_hops,
                st.mesh_max_link_flits,
            );
            for (name, n) in run.telemetry.recorder.counters() {
                let _ = write!(s, "{name}={n},");
            }
            for r in run.telemetry.timeline.rows() {
                let _ = write!(
                    s,
                    "[{} {} {} {} {} {:?} {} {} {} {} {} {} {} {} {}]",
                    r.epoch,
                    r.warmup,
                    r.refs,
                    r.instructions,
                    r.cycles,
                    r.served,
                    r.llc_accesses,
                    r.llc_p50.to_bits(),
                    r.llc_p95.to_bits(),
                    r.llc_p99.to_bits(),
                    r.mesh_messages,
                    r.mesh_max_link_flits,
                    r.mesh_mean_link_flits.to_bits(),
                    r.vault_busy_cycles,
                    r.vault_occupancy.to_bits(),
                );
            }
        }
    }
    report::fnv_hex(s.as_bytes())
}
