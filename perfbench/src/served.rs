//! The served workload: `examples/paper_fig11.scenario` submitted by one
//! closed-loop client to an in-process `silo_serve` daemon with one
//! worker. Cold jobs submit the scenario at distinct seeds, so every
//! point is simulated; warm jobs resubmit those jobs round-robin, so
//! every point is a row-cache hit.

use crate::json::Value;
use crate::report::{self, fnv_hex, median, per, quantile, Outcome, END_TO_END, PER_LAYER};
use crate::Params;
use silo_obs::SpanRecorder;
use silo_serve::{start, JobEngine, JobPlan, PointOutput, ServeConfig, ServerHandle};
use silo_sim::{SimJob, SimJobEngine};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

pub const NAME: &str = "served-fig11";

const SCENARIO: &str = include_str!("../../examples/paper_fig11.scenario");

/// Daemon start-ups timed for `setup_s`; the median is reported.
const SETUPS: usize = 41;
/// Fewest cold jobs, however small the time budget.
const MIN_COLD_JOBS: usize = 2;
/// Warm jobs per run: a fixed count, so the daemon's job table (and
/// with it the peak RSS) does not grow with host speed. The p90 has 300
/// samples beyond it; the p99 would sit on host stalls that delay about
/// 1% of jobs by 1.5-6 ms, and its run-to-run spread exceeded any
/// allowed bound. The smoke-test size runs 20.
const WARM_JOBS: usize = 3000;
const TINY_WARM_JOBS: usize = 20;
/// Warm jobs run in this many equal blocks spread over the cold budget.
/// The first warm job after a cold one is more often slow than the rest;
/// few blocks keep those jobs a negligible share of the warm samples.
const WARM_BLOCKS: f64 = 10.0;
/// Longest wait on one HTTP exchange before it counts as failed.
const HTTP_TIMEOUT: Duration = Duration::from_secs(30);

/// `text` with the value of `key` replaced by (or, if absent, set to)
/// `value`.
fn with_key(text: &str, key: &str, value: &str) -> String {
    let mut found = false;
    let mut out: Vec<String> = text
        .lines()
        .map(|line| {
            let is_key = line
                .trim_start()
                .strip_prefix(key)
                .is_some_and(|rest| rest.trim_start().starts_with('='));
            if is_key {
                found = true;
                format!("{key} = {value}")
            } else {
                line.to_string()
            }
        })
        .collect();
    if !found {
        out.push(format!("{key} = {value}"));
    }
    out.join("\n") + "\n"
}

fn key_value(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let rest = line.trim_start().strip_prefix(key)?.trim_start();
        rest.strip_prefix('=')?.trim().parse().ok()
    })
}

/// The scenario at `seed`; the smoke-test size shrinks it to 200
/// references per core with the same warmup share and epoch count.
fn scenario(seed: u64, tiny: bool) -> String {
    let mut text = with_key(SCENARIO, "seed", &seed.to_string());
    if tiny {
        for (key, value) in [("refs", "200"), ("warmup", "320"), ("epoch", "800")] {
            text = with_key(&text, key, value);
        }
    }
    text
}

/// One HTTP/1.1 exchange (the daemon closes every connection).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(HTTP_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nX-Client: perfbench\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut text = String::new();
    stream
        .read_to_string(&mut text)
        .map_err(|e| format!("receive: {e}"))?;
    let status = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("no status line in {text:?}"))?;
    let body = text
        .split_once("\r\n\r\n")
        .map_or_else(String::new, |(_, b)| b.to_string());
    Ok((status, body))
}

/// `doc` without its `"wall_ms":<number>` fields, the one host-dependent
/// part of a result document.
fn strip_wall_ms(doc: &str) -> String {
    const KEY: &str = "\"wall_ms\"";
    let mut out = String::with_capacity(doc.len());
    let mut rest = doc;
    while let Some(i) = rest.find(KEY) {
        let mut head = &rest[..i];
        let after = rest[i + KEY.len()..].trim_start();
        let after = after.strip_prefix(':').unwrap_or(after).trim_start();
        let end = after
            .find(|c: char| !matches!(c, '-' | '+' | '.' | 'e' | 'E' | '0'..='9'))
            .unwrap_or(after.len());
        let trimmed = head.trim_end();
        if let Some(h) = trimmed.strip_suffix(',') {
            head = h;
        }
        out.push_str(head);
        rest = &after[end..];
        if head.len() == trimmed.len() {
            // The field came first in its object: drop the comma after it.
            rest = rest.trim_start().strip_prefix(',').unwrap_or(rest);
        }
    }
    out.push_str(rest);
    out
}

/// Structural checks of one result document for the job at `seed`.
fn check_document(doc: &str, seed: u64, points: u64) -> Vec<String> {
    let mut errors = Vec::new();
    let v = match Value::parse(doc) {
        Ok(v) => v,
        Err(e) => return vec![format!("result is not JSON: {e}")],
    };
    if v.get("seed").and_then(Value::as_f64) != Some(seed as f64) {
        errors.push(format!("result seed is not {seed}"));
    }
    if !v
        .get("geomean_speedup")
        .and_then(Value::as_f64)
        .is_some_and(|g| g > 0.0)
    {
        errors.push("no positive geomean_speedup".into());
    }
    let rows = v.get("points").and_then(Value::as_arr).unwrap_or_default();
    if rows.len() as u64 != points || points == 0 {
        errors.push(format!(
            "{} points in the result, {points} submitted",
            rows.len()
        ));
    }
    for (i, row) in rows.iter().enumerate() {
        let systems = row
            .get("systems")
            .and_then(Value::as_arr)
            .unwrap_or_default();
        if systems.len() < 2 {
            errors.push(format!("point {i}: {} systems", systems.len()));
        }
        for s in systems {
            let name = s.get("system").and_then(Value::as_str).unwrap_or("?");
            let served: f64 = match s.get("served") {
                Some(Value::Obj(levels)) => levels.iter().filter_map(|(_, f)| f.as_f64()).sum(),
                _ => f64::NAN,
            };
            if (served - 1.0).abs() > 1e-9 {
                errors.push(format!(
                    "point {i} {name}: served-level shares sum to {served}"
                ));
            }
        }
    }
    errors
}

/// A cold job: its body, seed, and stripped result.
struct ColdJob {
    body: String,
    seed: u64,
    points: u64,
    doc: String,
}

/// One closed-loop job: submit, then block on the result. Returns the
/// result document and the submitted point count.
fn job(addr: SocketAddr, body: &str) -> Result<(String, u64), String> {
    let (status, resp) = http(addr, "POST", "/jobs", body)?;
    if !(200..300).contains(&status) {
        return Err(format!("submit answered {status}: {}", resp.trim()));
    }
    let v = Value::parse(resp.trim()).map_err(|e| format!("submit response: {e}"))?;
    let id = v.get("job").and_then(Value::as_f64).ok_or("no job id")? as u64;
    let points = v
        .get("points")
        .and_then(Value::as_f64)
        .ok_or("no point count")? as u64;
    let (status, doc) = http(addr, "GET", &format!("/jobs/{id}/result"), "")?;
    if !(200..300).contains(&status) {
        return Err(format!("result answered {status}: {}", doc.trim()));
    }
    Ok((doc, points))
}

struct Daemon<E: JobEngine> {
    handle: Option<ServerHandle<E>>,
    dir: PathBuf,
}

impl<E: JobEngine> Daemon<E> {
    /// Starts a daemon with one worker over a fresh cache directory.
    fn start(engine: E, dir: PathBuf) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            cache_dir: dir.clone(),
            ..ServeConfig::default()
        };
        let handle = start(engine, cfg).map_err(|e| format!("daemon start: {e}"))?;
        Ok(Daemon {
            handle: Some(handle),
            dir,
        })
    }

    fn handle(&self) -> &ServerHandle<E> {
        self.handle.as_ref().expect("running daemon")
    }

    fn addr(&self) -> SocketAddr {
        self.handle().addr()
    }
}

impl<E: JobEngine> Drop for Daemon<E> {
    /// Drains and joins the daemon's threads, then removes its cache.
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
            handle.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn cache_dir(p: &Params, tag: &str) -> PathBuf {
    p.work_dir
        .join(format!("serve-{}-{tag}", std::process::id()))
}

/// Daemon start: row-cache open, listener bind, thread spawn. The
/// daemon must then answer `/healthz`, which is not timed: the round
/// trip measures thread wake-up, not set-up.
fn set_up_once(p: &Params, tag: &str) -> Result<f64, String> {
    let t = Instant::now();
    let daemon = Daemon::start(SimJobEngine, cache_dir(p, tag))?;
    let secs = t.elapsed().as_secs_f64();
    let (status, _) = http(daemon.addr(), "GET", "/healthz", "")?;
    if status != 200 {
        return Err(format!("healthz answered {status}"));
    }
    Ok(secs)
}

/// What the jobs against one daemon measured.
#[derive(Default)]
struct JobTimes {
    cold: Vec<ColdJob>,
    /// Wall time spent in cold jobs.
    cold_s: f64,
    warm_ms: Vec<f64>,
    /// Per warm job: nanoseconds the engine spent inside it (traced
    /// daemon only).
    warm_engine_ns: Vec<f64>,
}

impl JobTimes {
    /// Wall time spent in jobs of either kind.
    fn busy_s(&self) -> f64 {
        self.cold_s + self.warm_ms.iter().sum::<f64>() / 1e3
    }
}

/// One daemon the jobs go to, with what they measured there.
struct Target<'a> {
    addr: SocketAddr,
    tracing: Option<&'a Tracing<'a>>,
    ph: JobTimes,
}

impl<'a> Target<'a> {
    fn new(addr: SocketAddr, tracing: Option<&'a Tracing<'a>>) -> Self {
        Target {
            addr,
            tracing,
            ph: JobTimes::default(),
        }
    }
}

fn warm_jobs(p: &Params) -> usize {
    if p.tiny {
        TINY_WARM_JOBS
    } else {
        WARM_JOBS
    }
}

/// What a traced daemon records into: the span ring, the timed engine's
/// running total, and the cell through which the engine learns the
/// current job's span id so its spans nest under it.
struct Tracing<'a> {
    spans: &'a SpanRecorder,
    engine_ns: &'a AtomicU64,
    job_span: &'a AtomicU64,
}

impl Tracing<'_> {
    /// Opens a job span; returns its id, start, and the engine total.
    fn begin(&self) -> (u64, u64, u64) {
        let id = self.spans.reserve();
        self.job_span.store(id, Ordering::SeqCst);
        (
            id,
            self.spans.now_us(),
            self.engine_ns.load(Ordering::SeqCst),
        )
    }
}

/// Runs cold jobs for `budget_s` seconds (at least `MIN_COLD_JOBS`),
/// then `warm` warm jobs, counting one operation per job. Every job goes
/// to each target in turn, so targets see the same jobs under the same
/// host conditions. Warm jobs run in blocks between cold ones, one
/// block each time another tenth of the budget is spent, so both kinds
/// sample the whole run rather than one stretch of it; any warm jobs
/// left are run at the end.
fn run_jobs(targets: &mut [Target<'_>], p: &Params, budget_s: f64, warm: usize, out: &mut Outcome) {
    let start = Instant::now();
    let (mut cold_attempts, mut warm_attempts) = (0usize, 0usize);
    let warm_up_to =
        |due: usize, done: &mut usize, targets: &mut [Target<'_>], out: &mut Outcome| {
            while *done < due {
                for i in turn_order(targets.len(), *done) {
                    if !targets[i].ph.cold.is_empty() {
                        warm_job(&mut targets[i], *done, out);
                    }
                }
                *done += 1;
            }
        };
    loop {
        let share = start.elapsed().as_secs_f64() / budget_s;
        let cold_done = targets.iter().map(|t| t.ph.cold.len()).min().unwrap_or(0);
        if (cold_done >= MIN_COLD_JOBS && share >= 1.0) || cold_attempts > 10_000 {
            break;
        }
        let blocks = (share.min(1.0) * WARM_BLOCKS).floor() / WARM_BLOCKS;
        warm_up_to(
            (warm as f64 * blocks) as usize,
            &mut warm_attempts,
            targets,
            out,
        );
        let seed = p.seed.wrapping_add(cold_attempts as u64);
        for i in turn_order(targets.len(), cold_attempts) {
            cold_job(&mut targets[i], p, seed, out);
        }
        cold_attempts += 1;
    }
    warm_up_to(warm, &mut warm_attempts, targets, out);
}

/// Target indices for job `k`: forwards for even `k`, backwards for odd,
/// so no target always runs a job first (the second of two back-to-back
/// runs of one simulation was measurably faster).
fn turn_order(n: usize, k: usize) -> Vec<usize> {
    if k % 2 == 0 {
        (0..n).collect()
    } else {
        (0..n).rev().collect()
    }
}

/// Submits the scenario at `seed` and checks the computed result.
fn cold_job(target: &mut Target<'_>, p: &Params, seed: u64, out: &mut Outcome) {
    let (tracing, ph) = (target.tracing, &mut target.ph);
    let body = scenario(seed, p.tiny);
    let open = tracing.map(Tracing::begin);
    let t = Instant::now();
    let result = job(target.addr, &body);
    ph.cold_s += t.elapsed().as_secs_f64();
    if let (Some(tr), Some((id, t, _))) = (tracing, open) {
        tr.spans
            .record_with_id(id, "cold job", "job", None, t, tr.spans.now_us());
    }
    match result {
        Ok((doc, points)) => {
            let mut errors = check_document(&doc, seed, points);
            let doc = strip_wall_ms(&doc);
            if seed == p.seed {
                let digest = fnv_hex(doc.as_bytes());
                if let Some(want) = p.expected_digest.as_ref().filter(|w| **w != digest) {
                    errors.push(format!("digest {digest} differs from expected {want}"));
                }
            }
            out.op(errors);
            ph.cold.push(ColdJob {
                body,
                seed,
                points,
                doc,
            });
        }
        Err(e) => out.op(vec![format!("cold job at seed {seed}: {e}")]),
    }
}

/// Resubmits cold job `i` (round-robin); its result must come back
/// byte-identical.
fn warm_job(target: &mut Target<'_>, i: usize, out: &mut Outcome) {
    let (tracing, ph) = (target.tracing, &mut target.ph);
    let cj = &ph.cold[i % ph.cold.len()];
    let open = tracing.map(Tracing::begin);
    let t = Instant::now();
    let result = job(target.addr, &cj.body);
    let elapsed = t.elapsed();
    if let (Some(tr), Some((id, t, _))) = (tracing, open) {
        tr.spans
            .record_with_id(id, "warm job", "job", None, t, tr.spans.now_us());
    }
    match result {
        Ok((doc, points)) => {
            let mut errors = Vec::new();
            if strip_wall_ms(&doc) != cj.doc || points != cj.points {
                errors.push(format!(
                    "warm result at seed {} differs from the cold one",
                    cj.seed
                ));
            }
            out.op(errors);
            ph.warm_ms.push(elapsed.as_secs_f64() * 1e3);
            if let (Some(tr), Some((_, _, before))) = (tracing, open) {
                ph.warm_engine_ns
                    .push((tr.engine_ns.load(Ordering::SeqCst) - before) as f64);
            }
        }
        Err(e) => out.op(vec![format!("warm job at seed {}: {e}", cj.seed)]),
    }
}

/// Simulated references of one cold job: points × systems × cores ×
/// references per core, read from its result document.
fn job_refs(job: &ColdJob, p: &Params) -> f64 {
    let refs = key_value(&scenario(job.seed, p.tiny), "refs").unwrap_or(0) as f64;
    let Ok(v) = Value::parse(&job.doc) else {
        return 0.0;
    };
    v.get("points")
        .and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|row| {
            let cores = row.get("cores").and_then(Value::as_f64).unwrap_or(0.0);
            let systems = row
                .get("systems")
                .and_then(Value::as_arr)
                .map_or(0, <[Value]>::len);
            cores * systems as f64 * refs
        })
        .sum()
}

/// The untraced run: end-to-end metrics.
pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    for i in 0..SETUPS {
        match set_up_once(p, &format!("setup{i}")) {
            Ok(s) => setups.push(s),
            Err(e) => {
                out.op(vec![format!("set-up failed: {e}")]);
                return out;
            }
        }
    }
    let daemon = match Daemon::start(SimJobEngine, cache_dir(p, "run")) {
        Ok(d) => d,
        Err(e) => {
            out.op(vec![e]);
            return out;
        }
    };
    let mut targets = [Target::new(daemon.addr(), None)];
    run_jobs(&mut targets, p, p.seconds, warm_jobs(p), &mut out);
    drop(daemon);
    let [Target { ph, .. }] = targets;

    let points: u64 = ph.cold.iter().map(|j| j.points).sum();
    let refs: f64 = ph.cold.iter().map(|j| job_refs(j, p)).sum();
    let speedup = ph
        .cold
        .first()
        .and_then(|j| Value::parse(&j.doc).ok())
        .and_then(|v| v.get("geomean_speedup").and_then(Value::as_f64))
        .unwrap_or(f64::NAN);
    out.set("refs_per_s", refs / ph.cold_s);
    out.set("sim_speedup", speedup);
    out.set("cold_points_per_s", points as f64 / ph.cold_s);
    out.set("warm_job_ms_p50", median(&ph.warm_ms));
    out.set("warm_job_ms_p90", quantile(&ph.warm_ms, 0.9));
    out.set("setup_s", median(&setups));
    out.set("peak_rss_mib", report::peak_rss_mib());
    out.samples.push(("cold_jobs", ph.cold.len()));
    out.samples.push(("warm_jobs", ph.warm_ms.len()));
    out.complete(END_TO_END);
    out
}

/// Host time of each `JobEngine` call, in nanoseconds.
#[derive(Default)]
struct EngineTimes {
    plan: Mutex<Vec<f64>>,
    point_key: Mutex<Vec<f64>>,
    run_point: Mutex<Vec<f64>>,
    document: Mutex<Vec<f64>>,
    /// Running total of all of the above. `SeqCst` so the client's read
    /// after a response sees the engine time spent producing it.
    total_ns: AtomicU64,
}

/// `SimJobEngine` with every call timed and recorded as a span under
/// the client's current job.
struct TimedJobEngine {
    times: Arc<EngineTimes>,
    spans: SpanRecorder,
    job_span: Arc<AtomicU64>,
}

impl TimedJobEngine {
    fn timed<T>(&self, name: &str, samples: &Mutex<Vec<f64>>, f: impl FnOnce() -> T) -> T {
        let start = self.spans.now_us();
        let t = Instant::now();
        let v = f();
        let ns = t.elapsed().as_nanos() as u64;
        self.times.total_ns.fetch_add(ns, Ordering::SeqCst);
        samples
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(ns as f64);
        let parent = self.job_span.load(Ordering::SeqCst);
        self.spans.record(
            name,
            "engine",
            (parent != 0).then_some(parent),
            start,
            self.spans.now_us(),
        );
        v
    }
}

impl JobEngine for TimedJobEngine {
    type Job = SimJob;

    fn plan(&self, body: &str) -> Result<JobPlan<SimJob>, String> {
        self.timed("plan", &self.times.plan, || SimJobEngine.plan(body))
    }

    fn point_key(&self, job: &SimJob, index: usize) -> String {
        self.timed("point_key", &self.times.point_key, || {
            SimJobEngine.point_key(job, index)
        })
    }

    fn run_point(&self, job: &SimJob, index: usize) -> Result<PointOutput, String> {
        self.timed("run_point", &self.times.run_point, || {
            SimJobEngine.run_point(job, index)
        })
    }

    fn document(&self, job: &SimJob, rows: &[String]) -> String {
        self.timed("document", &self.times.document, || {
            SimJobEngine.document(job, rows)
        })
    }
}

fn median_of(samples: &Mutex<Vec<f64>>) -> f64 {
    median(&samples.lock().unwrap_or_else(PoisonError::into_inner))
}

/// The traced run: every job goes to a plain daemon and then to one
/// whose engine is timed, so the ratio of their busy times is the
/// tracing overhead. Writes the spans to `trace_out`.
pub fn run_traced(p: &Params, trace_out: &Path) -> Outcome {
    let mut out = Outcome::default();
    let spans = SpanRecorder::new(1 << 17);
    let times = Arc::new(EngineTimes::default());
    let job_span = Arc::new(AtomicU64::new(0));
    let engine = TimedJobEngine {
        times: Arc::clone(&times),
        spans: spans.clone(),
        job_span: Arc::clone(&job_span),
    };
    let daemons = Daemon::start(SimJobEngine, cache_dir(p, "plain"))
        .and_then(|plain| Ok((plain, Daemon::start(engine, cache_dir(p, "timed"))?)));
    let (plain, timed) = match daemons {
        Ok(d) => d,
        Err(e) => {
            out.op(vec![e]);
            return out;
        }
    };
    let tracing = Tracing {
        spans: &spans,
        engine_ns: &times.total_ns,
        job_span: &job_span,
    };
    let mut targets = [
        Target::new(plain.addr(), None),
        Target::new(timed.addr(), Some(&tracing)),
    ];
    run_jobs(&mut targets, p, p.seconds, warm_jobs(p), &mut out);
    let (cached, computed) = (
        timed.handle().points_cached(),
        timed.handle().points_computed(),
    );
    drop((plain, timed));
    let [untraced, traced] = targets.map(|t| t.ph);

    for (a, b) in untraced.cold.iter().zip(&traced.cold) {
        if a.doc != b.doc {
            out.op(vec![format!(
                "traced result at seed {} differs from untraced",
                a.seed
            )]);
        }
    }
    let self_ms: Vec<f64> = traced
        .warm_ms
        .iter()
        .zip(&traced.warm_engine_ns)
        .map(|(ms, ns)| ms - ns / 1e6)
        .collect();
    out.set("serve.plan_ms", median_of(&times.plan) / 1e6);
    out.set("serve.point_key_us", median_of(&times.point_key) / 1e3);
    out.set("serve.document_ms", median_of(&times.document) / 1e6);
    out.set("serve.run_point_ms", median_of(&times.run_point) / 1e6);
    out.set("serve.self_ms_p50", median(&self_ms));
    out.set(
        "serve.cache_hit_ratio",
        per(cached as f64, (cached + computed) as f64),
    );
    out.set("run.tracing_overhead", traced.busy_s() / untraced.busy_s());
    out.samples.push(("cold_jobs", traced.cold.len()));
    out.samples.push(("warm_jobs", traced.warm_ms.len()));
    out.complete(PER_LAYER);
    crate::sim::write_spans(&spans, trace_out, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_keys_are_replaced_in_place() {
        let text = scenario(7, true);
        assert_eq!(key_value(&text, "seed"), Some(7));
        assert_eq!(key_value(&text, "refs"), Some(200));
        assert_eq!(key_value(&text, "epoch"), Some(800));
        assert_eq!(text.matches("\nseed").count(), 1);
        assert_eq!(key_value(&with_key("a = 1\n", "b", "2"), "b"), Some(2));
    }

    #[test]
    fn wall_ms_fields_are_stripped_wherever_they_sit() {
        assert_eq!(
            strip_wall_ms(r#"{"a":1,"wall_ms":12.5,"b":[{"wall_ms":3e-2,"c":2}]}"#),
            r#"{"a":1,"b":[{"c":2}]}"#
        );
        assert_eq!(strip_wall_ms(r#"{"x": 1, "wall_ms": 7}"#), r#"{"x": 1}"#);
    }
}
