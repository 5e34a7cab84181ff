//! Deterministic synthetic scale-out workload generators.
//!
//! The paper evaluates CloudSuite-style scale-out services: large
//! instruction footprints, per-request private data that dwarfs any SRAM
//! LLC, and a modest read-mostly shared region (Sec. II-B, Fig. 2-4).
//! These generators reproduce those properties synthetically and
//! deterministically — same seed, same trace — so runs are reproducible
//! and the two systems see byte-identical reference streams.
//!
//! Address-space carving (line addresses): each core's private heap lives
//! at `(core + 1) << 32`, its code region at `(core + 1) << 24 | 1 << 44`,
//! and the shared region at `1 << 52`. Regions never overlap.

use crate::error::ConfigError;
use silo_trace::{TraceReader, TraceSource};
use silo_types::{AccessKind, LineAddr, MemRef};
use std::path::PathBuf;

/// SplitMix64: a tiny, high-quality deterministic generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`, via Lemire's widening-multiply method
    /// with rejection: unbiased for every `n`, unlike the naive
    /// `next_u64() % n` fold, whose bias grows with `n` and skews
    /// sampling over large private regions. Still fully deterministic:
    /// the same seed consumes the same raw sequence.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        let mut m = self.next_u64() as u128 * n as u128;
        if (m as u64) < n {
            // 2^64 mod n: raw values whose low product half falls below
            // this threshold land in the over-represented remainder zone.
            let threshold = n.wrapping_neg() % n;
            while (m as u64) < threshold {
                m = self.next_u64() as u128 * n as u128;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli trial.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }
}

/// Zipf sampler over `[0, n)` with skew `theta` via inverse-CDF lookup.
#[derive(Clone, Debug)]
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: u64, theta: f64) -> Self {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.f64();
        self.cdf.partition_point(|&c| c < u) as u64
    }
}

/// A synthetic workload: region sizes, mix ratios, and memory-level
/// parallelism character.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Display name: the preset name, or the full spec string for custom
    /// parameterizations (e.g. `zipf:theta=0.9,footprint=4x`).
    pub name: String,
    /// References generated per core.
    pub refs_per_core: usize,
    /// Private heap working set per core, in lines (after scaling).
    pub private_lines: u64,
    /// Shared-region size in lines (after scaling).
    pub shared_lines: u64,
    /// Instruction footprint per core, in lines (after scaling).
    pub code_lines: u64,
    /// Fraction of data references into the shared region.
    pub shared_fraction: f64,
    /// Fraction of references that are instruction fetches.
    pub ifetch_fraction: f64,
    /// Fraction of data references that are writes.
    pub write_fraction: f64,
    /// Fraction of references that depend on the previous miss
    /// (pointer-chasing behaviour; serialises misses).
    pub dependent_fraction: f64,
    /// Mean instructions between references (geometric-ish gap).
    pub mean_gap: u32,
    /// Zipf skew over the shared region (0.0 = uniform).
    pub zipf_theta: f64,
    /// Replay source: when set (the `trace:file=PATH` spec form),
    /// references stream from this `.silotrace` capture instead of the
    /// synthetic generator, and the generator fields above are unused.
    pub trace_file: Option<PathBuf>,
}

impl WorkloadSpec {
    /// Uniform accesses over a large private heap: the data-serving /
    /// key-value store profile. Working sets dwarf any SRAM LLC but fit a
    /// 256 MiB vault.
    pub fn uniform_private() -> Self {
        WorkloadSpec {
            name: "uniform-private".into(),
            refs_per_core: 20_000,
            private_lines: ByteLines::MIB64,
            shared_lines: ByteLines::MIB4,
            code_lines: 512,
            shared_fraction: 0.05,
            ifetch_fraction: 0.30,
            write_fraction: 0.15,
            dependent_fraction: 0.35,
            mean_gap: 6,
            zipf_theta: 0.0,
            trace_file: None,
        }
    }

    /// Zipf-skewed shared reads: the web-serving / front-end profile with
    /// a hot, read-mostly shared document cache.
    pub fn zipf_shared() -> Self {
        WorkloadSpec {
            name: "zipf-shared".into(),
            refs_per_core: 20_000,
            private_lines: ByteLines::MIB32,
            shared_lines: ByteLines::MIB16,
            code_lines: 768,
            shared_fraction: 0.30,
            ifetch_fraction: 0.30,
            write_fraction: 0.05,
            dependent_fraction: 0.25,
            mean_gap: 6,
            zipf_theta: 0.9,
            trace_file: None,
        }
    }

    /// Private/shared mix with a meaningful write share: the streaming /
    /// MapReduce-style profile where cores exchange partitions.
    pub fn shared_mix() -> Self {
        WorkloadSpec {
            name: "shared-mix".into(),
            refs_per_core: 20_000,
            private_lines: ByteLines::MIB48,
            shared_lines: ByteLines::MIB8,
            code_lines: 384,
            shared_fraction: 0.15,
            ifetch_fraction: 0.25,
            write_fraction: 0.25,
            dependent_fraction: 0.30,
            mean_gap: 5,
            zipf_theta: 0.6,
            trace_file: None,
        }
    }

    /// Pointer-chasing over a mid-size private heap: the graph / media
    /// profile where dependent misses serialise.
    pub fn pointer_chase() -> Self {
        WorkloadSpec {
            name: "pointer-chase".into(),
            refs_per_core: 20_000,
            private_lines: ByteLines::MIB32,
            shared_lines: ByteLines::MIB4,
            code_lines: 256,
            shared_fraction: 0.08,
            ifetch_fraction: 0.15,
            write_fraction: 0.10,
            dependent_fraction: 0.70,
            mean_gap: 3,
            zipf_theta: 0.0,
            trace_file: None,
        }
    }

    /// Write-heavy partition exchange through the shared region: the
    /// producer/consumer pipeline profile where cores hand buffers to
    /// each other, stressing invalidations and dirty forwarding.
    pub fn producer_consumer() -> Self {
        WorkloadSpec {
            name: "producer-consumer".into(),
            refs_per_core: 20_000,
            private_lines: ByteLines::MIB16,
            shared_lines: ByteLines::MIB8,
            code_lines: 384,
            shared_fraction: 0.40,
            ifetch_fraction: 0.20,
            write_fraction: 0.45,
            dependent_fraction: 0.20,
            mean_gap: 5,
            zipf_theta: 0.4,
            trace_file: None,
        }
    }

    /// Instruction-footprint stress: the multi-megabyte code working set
    /// of scale-out services (Sec. II-B) that thrashes the L1-I and
    /// leans on the vault's instruction capture.
    pub fn code_heavy() -> Self {
        WorkloadSpec {
            name: "code-heavy".into(),
            refs_per_core: 20_000,
            private_lines: ByteLines::MIB16,
            shared_lines: ByteLines::MIB4,
            code_lines: 16 * 1024, // 1 MiB of code
            shared_fraction: 0.10,
            ifetch_fraction: 0.55,
            write_fraction: 0.10,
            dependent_fraction: 0.15,
            mean_gap: 4,
            zipf_theta: 0.0,
            trace_file: None,
        }
    }

    /// All built-in workloads, in report order.
    pub fn all() -> Vec<WorkloadSpec> {
        vec![
            Self::uniform_private(),
            Self::zipf_shared(),
            Self::shared_mix(),
            Self::pointer_chase(),
            Self::producer_consumer(),
            Self::code_heavy(),
        ]
    }

    /// Looks a preset up by name.
    pub fn by_name(name: &str) -> Option<WorkloadSpec> {
        Self::all().into_iter().find(|w| w.name == name)
    }

    /// Resolves a custom-spec base: any preset name, plus the family
    /// aliases `zipf` (zipf-shared) and `uniform` (uniform-private).
    fn base_by_name(name: &str) -> Option<WorkloadSpec> {
        match name {
            "zipf" => Some(Self::zipf_shared()),
            "uniform" => Some(Self::uniform_private()),
            _ => Self::by_name(name),
        }
    }

    /// Parses a workload spec string: a preset name (`pointer-chase`),
    /// a custom parameterization of the form
    /// `base:key=value[,key=value...]` (e.g.
    /// `zipf:theta=0.9,footprint=4x`), or the replay form
    /// `trace:file=PATH` streaming a recorded `.silotrace` capture. The
    /// same grammar is accepted by `--workloads` on the CLI and by
    /// scenario files.
    ///
    /// Recognized keys: `theta` (Zipf skew ≥ 0), `footprint` (private
    /// working set — `4x` multiplies the base, `64MiB` sets it
    /// absolutely), `shared` / `writes` / `dependent` / `ifetch`
    /// (fractions in `[0, 1]`), `refs` (references per core ≥ 1), and
    /// `gap` (mean instructions between references).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::UnknownWorkload`] for an unknown base and
    /// [`ConfigError::BadWorkloadSpec`] for malformed parameters.
    pub fn parse(spec: &str) -> Result<WorkloadSpec, ConfigError> {
        Self::parse_with_default_refs(spec, None)
    }

    /// Like [`WorkloadSpec::parse`], but with a default per-core
    /// reference count applied to the base *before* the spec's
    /// parameters, so an explicit `refs=` parameter in the spec wins
    /// over the default. This is how the builder's global refs override
    /// composes with custom specs.
    ///
    /// # Errors
    ///
    /// Same as [`WorkloadSpec::parse`].
    pub fn parse_with_default_refs(
        spec: &str,
        default_refs: Option<usize>,
    ) -> Result<WorkloadSpec, ConfigError> {
        let spec = spec.trim();
        let (base, params) = match spec.split_once(':') {
            Some((b, p)) => (b.trim(), Some(p)),
            None => (spec, None),
        };
        if base == "trace" {
            // Replay specs ignore the refs default: the file's own
            // length is the trace length.
            return Self::parse_trace_spec(spec, params);
        }
        let mut w = Self::base_by_name(base)
            .ok_or_else(|| ConfigError::UnknownWorkload(base.to_string()))?;
        if let Some(refs) = default_refs {
            w.refs_per_core = refs;
        }
        let Some(params) = params else {
            return Ok(w);
        };
        let bad = |reason: String| ConfigError::BadWorkloadSpec {
            spec: spec.to_string(),
            reason,
        };
        for kv in params.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (key, value) = kv
                .split_once('=')
                .ok_or_else(|| bad(format!("parameter '{kv}' is not key=value")))?;
            let (key, value) = (key.trim(), value.trim());
            let fraction = |w: &str| -> Result<f64, ConfigError> {
                let f: f64 = value
                    .parse()
                    .map_err(|_| bad(format!("{w} '{value}' is not a number")))?;
                if !(0.0..=1.0).contains(&f) {
                    return Err(bad(format!("{w} '{value}' outside [0, 1]")));
                }
                Ok(f)
            };
            match key {
                "theta" => {
                    let t: f64 = value
                        .parse()
                        .map_err(|_| bad(format!("theta '{value}' is not a number")))?;
                    if !t.is_finite() || t < 0.0 {
                        return Err(bad(format!("theta '{value}' must be finite and >= 0")));
                    }
                    w.zipf_theta = t;
                }
                "footprint" => {
                    if let Some(mult) = value.strip_suffix(['x', 'X']) {
                        let m: u64 = mult.parse().map_err(|_| {
                            bad(format!("footprint multiplier '{value}' is not an integer"))
                        })?;
                        if m == 0 {
                            return Err(bad("footprint multiplier must be >= 1".into()));
                        }
                        w.private_lines = w.private_lines.saturating_mul(m);
                    } else if let Some(mib) = value
                        .strip_suffix("MiB")
                        .or_else(|| value.strip_suffix("mib"))
                    {
                        let m: u64 = mib.parse().map_err(|_| {
                            bad(format!("footprint size '{value}' is not an integer MiB"))
                        })?;
                        if m == 0 {
                            return Err(bad("footprint must be >= 1 MiB".into()));
                        }
                        w.private_lines = m
                            .checked_mul(1024 * 1024 / 64)
                            .ok_or_else(|| bad(format!("footprint '{value}' overflows")))?;
                    } else {
                        return Err(bad(format!(
                            "footprint '{value}' needs an 'x' multiplier or 'MiB' suffix"
                        )));
                    }
                }
                "shared" => w.shared_fraction = fraction("shared fraction")?,
                "writes" => w.write_fraction = fraction("write fraction")?,
                "dependent" => w.dependent_fraction = fraction("dependent fraction")?,
                "ifetch" => w.ifetch_fraction = fraction("ifetch fraction")?,
                "refs" => {
                    let n: usize = value
                        .parse()
                        .map_err(|_| bad(format!("refs '{value}' is not an integer")))?;
                    if n == 0 {
                        return Err(bad("refs must be >= 1".into()));
                    }
                    w.refs_per_core = n;
                }
                "gap" => {
                    w.mean_gap = value
                        .parse()
                        .map_err(|_| bad(format!("gap '{value}' is not an integer")))?;
                }
                other => return Err(bad(format!("unknown parameter '{other}'"))),
            }
        }
        w.name = spec.to_string();
        Ok(w)
    }

    /// Parses the replay form `trace:file=PATH`: a workload whose
    /// references stream from a `.silotrace` capture. The builder
    /// resolves the file at build time (validating the checksum and
    /// filling in name and length from the header), so parsing does no
    /// I/O.
    fn parse_trace_spec(spec: &str, params: Option<&str>) -> Result<WorkloadSpec, ConfigError> {
        let bad = |reason: String| ConfigError::BadWorkloadSpec {
            spec: spec.to_string(),
            reason,
        };
        let mut file: Option<PathBuf> = None;
        for kv in params
            .unwrap_or("")
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
        {
            let (key, value) = kv
                .split_once('=')
                .ok_or_else(|| bad(format!("parameter '{kv}' is not key=value")))?;
            match key.trim() {
                "file" => {
                    let value = value.trim();
                    if value.is_empty() {
                        return Err(bad("file= needs a path".into()));
                    }
                    file = Some(PathBuf::from(value));
                }
                other => {
                    return Err(bad(format!(
                        "unknown parameter '{other}' (trace specs take only file=PATH)"
                    )))
                }
            }
        }
        let Some(file) = file else {
            return Err(bad(
                "trace replay needs file=PATH (e.g. trace:file=out.silotrace)".into(),
            ));
        };
        Ok(WorkloadSpec {
            name: spec.to_string(),
            refs_per_core: 0, // resolved from the file header at build time
            private_lines: 0,
            shared_lines: 0,
            code_lines: 0,
            shared_fraction: 0.0,
            ifetch_fraction: 0.0,
            write_fraction: 0.0,
            dependent_fraction: 0.0,
            mean_gap: 0,
            zipf_theta: 0.0,
            trace_file: Some(file),
        })
    }

    /// Splits a comma-separated list of workload specs into individual
    /// spec strings, keeping custom-spec parameters attached to their
    /// base: a segment of the form `key=value` (no `:` before the `=`)
    /// continues the previous spec — which must itself be a custom spec
    /// (contain a `:`) — and anything else starts a new one. So
    /// `a,zipf:theta=0.9,footprint=4x,b` yields
    /// `["a", "zipf:theta=0.9,footprint=4x", "b"]`, while
    /// `a,footprint=4x` is rejected (the parameter has no custom spec to
    /// attach to).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::BadWorkloadSpec`] for a parameter segment
    /// that does not follow a `base:key=value` spec.
    pub fn split_list(raw: &str) -> Result<Vec<String>, ConfigError> {
        let mut items: Vec<String> = Vec::new();
        for seg in raw.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let continuation = match (seg.find('='), seg.find(':')) {
                (Some(eq), Some(colon)) => colon > eq,
                (Some(_), None) => true,
                _ => false,
            };
            if continuation {
                match items.last_mut() {
                    Some(last) if last.contains(':') => {
                        last.push(',');
                        last.push_str(seg);
                    }
                    _ => {
                        return Err(ConfigError::BadWorkloadSpec {
                            spec: seg.to_string(),
                            reason: "parameter segment must follow a 'base:key=value' \
                                     custom spec (missing ':' after the base name?)"
                                .into(),
                        })
                    }
                }
            } else {
                items.push(seg.to_string());
            }
        }
        Ok(items)
    }

    /// Generates the per-core reference streams, deterministically from
    /// `seed`, fully materialized. Region sizes are divided by `scale`
    /// (matching the cache scaling of the systems), flooring at one
    /// line. [`WorkloadSpec::source`] produces the identical stream
    /// lazily, one reference at a time, for runs that should not hold
    /// the whole trace in memory.
    ///
    /// # Panics
    ///
    /// Panics for `trace:file=` replay specs, which have no synthetic
    /// generator — stream them through [`WorkloadSpec::source`].
    pub fn generate(&self, cores: usize, scale: u64, seed: u64) -> Vec<Vec<MemRef>> {
        assert!(
            self.trace_file.is_none(),
            "trace-backed workload '{}' streams from file; use WorkloadSpec::source",
            self.name
        );
        let regions = Regions::of(self, scale);
        (0..cores)
            .map(|core| {
                let mut cursor = CoreCursor::new(core, seed);
                (0..self.refs_per_core)
                    .map(|_| cursor.gen_ref(self, &regions))
                    .collect()
            })
            .collect()
    }

    /// Opens this workload as a streaming [`TraceSource`]: the lazy
    /// synthetic generator (bit-identical to
    /// [`WorkloadSpec::generate`]) for generator-backed specs, or a
    /// `.silotrace` file reader for `trace:file=` replay specs. Either
    /// way, peak memory is O(cores), independent of trace length.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Trace`] when a replay file cannot be
    /// opened, has a malformed header, or was recorded with a core
    /// count other than `cores`.
    pub fn source(
        &self,
        cores: usize,
        scale: u64,
        seed: u64,
    ) -> Result<Box<dyn TraceSource>, ConfigError> {
        let Some(path) = &self.trace_file else {
            return Ok(Box::new(SyntheticTrace::new(self, cores, scale, seed)));
        };
        let trace_err = |message: String| ConfigError::Trace {
            path: path.display().to_string(),
            message,
        };
        // One streaming validation pass before replay: `TraceReader`
        // itself trusts the stream (its per-record path cannot report
        // errors), so verifying here keeps corrupt files from silently
        // truncating runs that bypass the builder (`run` or
        // `run_system` over a direct source() call). The builder
        // verifies too, for typed errors at build time.
        silo_trace::verify(path).map_err(|e| trace_err(e.to_string()))?;
        let reader = TraceReader::open(path).map_err(|e| trace_err(e.to_string()))?;
        let recorded = reader.header().cores;
        if recorded != cores {
            return Err(trace_err(format!(
                "recorded with {recorded} cores; replay it with --cores {recorded}, not {cores}"
            )));
        }
        Ok(Box::new(reader))
    }
}

/// Region geometry of one generation run, resolved from a spec and a
/// capacity scale (shared by the materializing and streaming paths so
/// they stay bit-identical).
#[derive(Clone, Debug)]
struct Regions {
    private: u64,
    shared: u64,
    code: u64,
    zipf: Option<Zipf>,
}

impl Regions {
    fn of(spec: &WorkloadSpec, scale: u64) -> Self {
        let shared = (spec.shared_lines / scale).max(1);
        Regions {
            private: (spec.private_lines / scale).max(1),
            shared,
            code: (spec.code_lines / scale.min(8)).max(16),
            zipf: (spec.zipf_theta > 0.0).then(|| Zipf::new(shared, spec.zipf_theta)),
        }
    }
}

/// One core's generator state: its RNG stream and region base
/// addresses.
#[derive(Clone, Debug)]
struct CoreCursor {
    rng: Rng,
    priv_base: u64,
    code_base: u64,
}

/// Line-address base of the shared region (see the module docs).
const SHARED_BASE: u64 = 1 << 52;

impl CoreCursor {
    fn new(core: usize, seed: u64) -> Self {
        CoreCursor {
            rng: Rng::new(seed ^ (core as u64).wrapping_mul(0xa076_1d64_78bd_642f)),
            priv_base: (core as u64 + 1) << 32,
            code_base: (1u64 << 44) | ((core as u64 + 1) << 24),
        }
    }

    /// Draws the next reference of this core's stream. The draw order
    /// is the generator's wire format: changing it changes every seed's
    /// trace.
    fn gen_ref(&mut self, spec: &WorkloadSpec, regions: &Regions) -> MemRef {
        let rng = &mut self.rng;
        let gap = rng.below(2 * spec.mean_gap as u64 + 1) as u32;
        if rng.chance(spec.ifetch_fraction) {
            return MemRef {
                line: LineAddr::new(self.code_base + rng.below(regions.code)),
                kind: AccessKind::IFetch,
                gap_instructions: gap,
                dependent: false,
            };
        }
        let (line, shared_ref) = if rng.chance(spec.shared_fraction) {
            let off = match &regions.zipf {
                Some(z) => z.sample(rng),
                None => rng.below(regions.shared),
            };
            (LineAddr::new(SHARED_BASE + off), true)
        } else {
            (
                LineAddr::new(self.priv_base + rng.below(regions.private)),
                false,
            )
        };
        // Writes to the shared region are rarer than the overall write
        // mix (read-mostly sharing, Fig. 4).
        let wf = if shared_ref {
            spec.write_fraction * 0.4
        } else {
            spec.write_fraction
        };
        MemRef {
            line,
            kind: if rng.chance(wf) {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
            gap_instructions: gap,
            dependent: rng.chance(spec.dependent_fraction),
        }
    }
}

/// The lazy synthetic generator: a [`TraceSource`] producing the same
/// per-core streams as [`WorkloadSpec::generate`] one reference at a
/// time, so a sweep point never materializes its trace. Each core owns
/// an independent RNG cursor; the Zipf lookup table is shared.
#[derive(Clone, Debug)]
pub struct SyntheticTrace {
    spec: WorkloadSpec,
    regions: Regions,
    cursors: Vec<CoreCursor>,
    remaining: Vec<usize>,
}

impl SyntheticTrace {
    /// Positions a fresh generator at the start of every core's stream.
    ///
    /// # Panics
    ///
    /// Panics for `trace:file=` replay specs (no synthetic generator).
    pub fn new(spec: &WorkloadSpec, cores: usize, scale: u64, seed: u64) -> Self {
        assert!(
            spec.trace_file.is_none(),
            "trace-backed workload '{}' streams from file; use WorkloadSpec::source",
            spec.name
        );
        SyntheticTrace {
            regions: Regions::of(spec, scale),
            cursors: (0..cores).map(|c| CoreCursor::new(c, seed)).collect(),
            remaining: vec![spec.refs_per_core; cores],
            spec: spec.clone(),
        }
    }
}

impl TraceSource for SyntheticTrace {
    fn next(&mut self, core: usize) -> Option<MemRef> {
        let remaining = self.remaining.get_mut(core)?;
        if *remaining == 0 {
            return None;
        }
        *remaining -= 1;
        Some(self.cursors[core].gen_ref(&self.spec, &self.regions))
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.spec.refs_per_core as u64 * self.cursors.len() as u64)
    }
}

/// Common region sizes expressed in 64-byte lines.
struct ByteLines;

impl ByteLines {
    const MIB4: u64 = 4 * 1024 * 1024 / 64;
    const MIB8: u64 = 8 * 1024 * 1024 / 64;
    const MIB16: u64 = 16 * 1024 * 1024 / 64;
    const MIB32: u64 = 32 * 1024 * 1024 / 64;
    const MIB48: u64 = 48 * 1024 * 1024 / 64;
    const MIB64: u64 = 64 * 1024 * 1024 / 64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(Rng::new(1).next_u64(), Rng::new(2).next_u64());
    }

    #[test]
    fn rng_below_is_in_range_and_deterministic() {
        let mut a = Rng::new(99);
        let mut b = Rng::new(99);
        for n in [1, 2, 3, 7, 1 << 20, u64::MAX - 1] {
            for _ in 0..200 {
                let v = a.below(n);
                assert!(v < n, "below({n}) returned {v}");
                assert_eq!(v, b.below(n), "same seed must give the same draws");
            }
        }
    }

    #[test]
    fn rng_below_is_roughly_uniform() {
        // A bucket count that is NOT a power of two, where the old
        // modulo fold would be detectably biased for adversarial n.
        let mut rng = Rng::new(17);
        const N: u64 = 12;
        const DRAWS: usize = 60_000;
        let mut counts = [0u32; N as usize];
        for _ in 0..DRAWS {
            counts[rng.below(N) as usize] += 1;
        }
        let expect = DRAWS as f64 / N as f64;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expect).abs() / expect;
            assert!(
                dev < 0.10,
                "bucket {i}: {c} deviates {dev:.3} from {expect}"
            );
        }
    }

    #[test]
    fn rng_f64_in_unit_interval() {
        let mut r = Rng::new(3);
        for _ in 0..1000 {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = Rng::new(11);
        let mut head = 0;
        const N: usize = 10_000;
        for _ in 0..N {
            if z.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // Top-1% of ranks should draw far more than 1% of samples.
        assert!(head > N / 20, "only {head}/{N} samples in the head");
    }

    #[test]
    fn generate_is_deterministic_and_sized() {
        let spec = WorkloadSpec::uniform_private();
        let a = spec.generate(4, 64, 42);
        let b = spec.generate(4, 64, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        assert!(a.iter().all(|t| t.len() == spec.refs_per_core));
        let c = spec.generate(4, 64, 43);
        assert_ne!(a, c, "different seed, different trace");
    }

    #[test]
    fn regions_do_not_overlap_across_cores() {
        let spec = WorkloadSpec::shared_mix();
        let traces = spec.generate(4, 64, 1);
        let shared_base = 1u64 << 52;
        for (core, trace) in traces.iter().enumerate() {
            for r in trace {
                let a = r.line.as_u64();
                if a >= shared_base {
                    continue; // shared region
                }
                if r.kind.is_ifetch() {
                    assert_eq!((a >> 24) & 0xff, core as u64 + 1, "code region of {core}");
                } else {
                    assert_eq!(a >> 32, core as u64 + 1, "private region of {core}");
                }
            }
        }
    }

    #[test]
    fn shared_fraction_roughly_respected() {
        let spec = WorkloadSpec::zipf_shared();
        let traces = spec.generate(2, 64, 5);
        let shared_base = 1u64 << 52;
        let total: usize = traces.iter().map(Vec::len).sum();
        let shared: usize = traces
            .iter()
            .flatten()
            .filter(|r| r.line.as_u64() >= shared_base)
            .count();
        let frac = shared as f64 / total as f64;
        // 30% of the 70% non-ifetch refs = 21% of all refs.
        assert!((0.15..0.28).contains(&frac), "shared fraction {frac}");
    }

    #[test]
    fn presets_resolve_by_name() {
        assert!(WorkloadSpec::by_name("zipf-shared").is_some());
        assert!(WorkloadSpec::by_name("producer-consumer").is_some());
        assert!(WorkloadSpec::by_name("code-heavy").is_some());
        assert!(WorkloadSpec::by_name("nope").is_none());
        assert!(WorkloadSpec::all().len() >= 6);
    }

    #[test]
    fn parse_accepts_presets_and_custom_specs() {
        let w = WorkloadSpec::parse("pointer-chase").expect("preset");
        assert_eq!(w.name, "pointer-chase");

        let w = WorkloadSpec::parse("zipf:theta=0.9,footprint=4x").expect("custom");
        assert_eq!(w.name, "zipf:theta=0.9,footprint=4x");
        assert_eq!(w.zipf_theta, 0.9);
        assert_eq!(
            w.private_lines,
            WorkloadSpec::zipf_shared().private_lines * 4
        );

        let w = WorkloadSpec::parse("uniform:footprint=64MiB,refs=1234").expect("absolute");
        assert_eq!(w.private_lines, 64 * 1024 * 1024 / 64);
        assert_eq!(w.refs_per_core, 1234);

        let w = WorkloadSpec::parse("pointer-chase:dependent=0.9,gap=2").expect("chase");
        assert_eq!(w.dependent_fraction, 0.9);
        assert_eq!(w.mean_gap, 2);
    }

    #[test]
    fn parse_rejects_malformed_specs_with_typed_errors() {
        assert!(matches!(
            WorkloadSpec::parse("nope"),
            Err(ConfigError::UnknownWorkload(_))
        ));
        for bad in [
            "zipf:theta=skewed",
            "zipf:theta=-1",
            "zipf:shared=1.5",
            "zipf:footprint=4",
            "zipf:footprint=0x",
            "zipf:footprint=99999999999999999MiB",
            "zipf:refs=0",
            "zipf:bogus=1",
            "zipf:theta",
        ] {
            assert!(
                matches!(
                    WorkloadSpec::parse(bad),
                    Err(ConfigError::BadWorkloadSpec { .. })
                ),
                "'{bad}' must be rejected as a bad spec"
            );
        }
    }

    #[test]
    fn default_refs_yield_to_an_explicit_refs_parameter() {
        let w = WorkloadSpec::parse_with_default_refs("zipf:refs=100", Some(4_000)).expect("ok");
        assert_eq!(w.refs_per_core, 100, "explicit refs= must win");
        let w = WorkloadSpec::parse_with_default_refs("zipf-shared", Some(4_000)).expect("ok");
        assert_eq!(w.refs_per_core, 4_000, "default applies without refs=");
    }

    #[test]
    fn split_list_keeps_parameters_with_their_base() {
        let items =
            WorkloadSpec::split_list("uniform-private,zipf:theta=0.9,footprint=4x,code-heavy")
                .expect("split");
        assert_eq!(
            items,
            vec![
                "uniform-private".to_string(),
                "zipf:theta=0.9,footprint=4x".to_string(),
                "code-heavy".to_string(),
            ]
        );
        assert!(WorkloadSpec::split_list("footprint=4x,zipf").is_err());
        // A parameter after a plain preset (no ':') is a user mistake,
        // not a continuation: reject it instead of gluing a garbage name.
        assert!(matches!(
            WorkloadSpec::split_list("uniform-private,refs=500"),
            Err(ConfigError::BadWorkloadSpec { .. })
        ));
    }

    #[test]
    fn trace_replay_specs_split_and_parse_alongside_customs() {
        let items = WorkloadSpec::split_list(
            "zipf:theta=0.9,footprint=4x,trace:file=caps/a.silotrace,code-heavy",
        )
        .expect("split");
        assert_eq!(
            items,
            vec![
                "zipf:theta=0.9,footprint=4x".to_string(),
                "trace:file=caps/a.silotrace".into(),
                "code-heavy".into(),
            ]
        );
        let w = WorkloadSpec::parse("trace:file=caps/a.silotrace").expect("parses");
        assert!(w.trace_file.is_some());
        // Replay length comes from the file, so the refs default does
        // not apply at parse time.
        let w = WorkloadSpec::parse_with_default_refs("trace:file=caps/a.silotrace", Some(9_000))
            .expect("parses");
        assert_eq!(w.refs_per_core, 0, "resolved from the file at build time");
    }

    #[test]
    fn custom_specs_generate_deterministically() {
        let w = WorkloadSpec::parse("zipf:theta=0.5,footprint=2x").expect("custom");
        assert_eq!(w.generate(2, 64, 9), w.generate(2, 64, 9));
    }

    #[test]
    fn preset_names_are_unique() {
        let all = WorkloadSpec::all();
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.name, b.name, "duplicate preset name");
            }
        }
    }
}
