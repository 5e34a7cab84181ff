//! Streaming `.silotrace` writer.

use crate::wire::{put_varint, zigzag, Fnv};
use crate::{TraceError, TraceHeader, END_TAG, MAGIC, MAX_STRING_LEN, VERSION};
use silo_types::{AccessKind, MemRef};
use std::io::Write;
use std::path::Path;

/// The 2-bit on-wire encoding of an access kind.
pub(crate) fn kind_bits(kind: AccessKind) -> u64 {
    match kind {
        AccessKind::IFetch => 0,
        AccessKind::Read => 1,
        AccessKind::Write => 2,
    }
}

/// Inverse of [`kind_bits`]; the reserved value 3 yields `None`.
pub(crate) fn kind_from_bits(bits: u64) -> Option<AccessKind> {
    match bits {
        0 => Some(AccessKind::IFetch),
        1 => Some(AccessKind::Read),
        2 => Some(AccessKind::Write),
        _ => None,
    }
}

fn encode_string(out: &mut Vec<u8>, what: &str, s: &str) -> Result<(), TraceError> {
    if s.len() > MAX_STRING_LEN as usize {
        return Err(TraceError::Io(format!(
            "{what} string of {} bytes exceeds the {MAX_STRING_LEN}-byte header limit",
            s.len()
        )));
    }
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

pub(crate) fn encode_header(header: &TraceHeader) -> Result<Vec<u8>, TraceError> {
    if header.cores == 0 || header.cores > crate::MAX_CORES as usize {
        return Err(TraceError::Io(format!(
            "core count {} outside [1, {}]",
            header.cores,
            crate::MAX_CORES
        )));
    }
    let mut out = Vec::with_capacity(64 + header.name.len() + header.provenance.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(header.cores as u32).to_le_bytes());
    out.extend_from_slice(&header.refs_per_core.to_le_bytes());
    out.extend_from_slice(&header.seed.to_le_bytes());
    encode_string(&mut out, "name", &header.name)?;
    encode_string(&mut out, "provenance", &header.provenance)?;
    Ok(out)
}

/// Streams core-tagged records into a `.silotrace` file (or any
/// [`Write`] sink), maintaining the per-core delta state and the
/// running checksum. Call [`TraceWriter::finish`] to seal the file with
/// the sentinel and footer — dropping the writer without finishing
/// leaves a truncated stream that [`crate::verify`] rejects.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    out: W,
    hash: Fnv,
    last_line: Vec<u64>,
    per_core: Vec<u64>,
    buf: Vec<u8>,
}

impl TraceWriter<std::io::BufWriter<std::fs::File>> {
    /// Creates `path` and writes the header for `header`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] when the file cannot be created and
    /// propagates header-encoding failures.
    pub fn create(path: &Path, header: &TraceHeader) -> Result<Self, TraceError> {
        let file = std::fs::File::create(path)
            .map_err(|e| TraceError::Io(format!("cannot create {}: {e}", path.display())))?;
        TraceWriter::new(std::io::BufWriter::new(file), header)
    }
}

impl<W: Write> TraceWriter<W> {
    /// Wraps `out` and writes the header. Hand in a buffered writer for
    /// file sinks; every record is a handful of small writes.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] for unencodable headers or write failures.
    pub fn new(out: W, header: &TraceHeader) -> Result<Self, TraceError> {
        let mut w = TraceWriter {
            out,
            hash: Fnv::new(),
            last_line: vec![0; header.cores],
            per_core: vec![0; header.cores],
            buf: Vec::with_capacity(32),
        };
        let bytes = encode_header(header)?;
        w.emit(&bytes)?;
        Ok(w)
    }

    fn emit(&mut self, bytes: &[u8]) -> Result<(), TraceError> {
        self.hash.update(bytes);
        self.out.write_all(bytes)?;
        Ok(())
    }

    /// Appends one reference of `core`'s stream.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] on write failures.
    ///
    /// # Panics
    ///
    /// Panics if `core` is outside the header's core count.
    pub fn write(&mut self, core: usize, mr: MemRef) -> Result<(), TraceError> {
        assert!(core < self.last_line.len(), "core {core} out of range");
        let line = mr.line.as_u64();
        let delta = line.wrapping_sub(self.last_line[core]) as i64;
        self.last_line[core] = line;
        self.per_core[core] += 1;
        let tag = ((core as u64) << 3) | (kind_bits(mr.kind) << 1) | mr.dependent as u64;
        self.buf.clear();
        put_varint(&mut self.buf, tag);
        put_varint(&mut self.buf, mr.gap_instructions as u64);
        put_varint(&mut self.buf, zigzag(delta));
        let buf = std::mem::take(&mut self.buf);
        self.emit(&buf)?;
        self.buf = buf;
        Ok(())
    }

    /// Seals the trace: sentinel tag, record count, checksum; flushes
    /// and returns the sink.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] on write failures.
    pub fn finish(mut self) -> Result<W, TraceError> {
        self.emit(&[END_TAG as u8])?;
        let count: u64 = self.per_core.iter().sum();
        self.emit(&count.to_le_bytes())?;
        let digest = self.hash.digest();
        self.out.write_all(&digest.to_le_bytes())?;
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Writes fully materialized per-core traces to `path`, interleaving
/// the streams round-robin (one reference per core per turn — the
/// order the simulation loop consumes them, so replay needs only a few
/// buffered records per core).
///
/// # Errors
///
/// Propagates [`TraceWriter`] failures.
///
/// # Panics
///
/// Panics if `traces.len()` differs from `header.cores`.
pub fn write_traces(
    path: &Path,
    header: &TraceHeader,
    traces: &[Vec<MemRef>],
) -> Result<(), TraceError> {
    assert_eq!(traces.len(), header.cores, "one stream per core");
    let mut w = TraceWriter::create(path, header)?;
    let longest = traces.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for (core, trace) in traces.iter().enumerate() {
            if let Some(&mr) = trace.get(i) {
                w.write(core, mr)?;
            }
        }
    }
    w.finish()?;
    Ok(())
}
