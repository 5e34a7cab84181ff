//! Low-level wire encoding: LEB128 varints, zigzag mapping for signed
//! deltas, and the dependency-free FNV-1a checksum.

use crate::TraceError;
use std::io::{BufRead, Read};

/// 64-bit FNV-1a running hash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Fnv(u64);

impl Fnv {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub(crate) fn new() -> Self {
        Fnv(Self::OFFSET_BASIS)
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    pub(crate) fn digest(self) -> u64 {
        self.0
    }
}

/// Appends `v` to `out` as an LEB128 varint (1–10 bytes).
pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Maps a signed delta onto an unsigned varint payload so small
/// negative strides stay short: 0, -1, 1, -2, 2, ... → 0, 1, 2, 3, 4.
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// A reader wrapper that hashes every byte it yields, so validation
/// passes compute the checksum while streaming. Bytes leave through
/// [`Read::read`] or through [`BufRead::consume`], which hashes the
/// consumed front of the buffer as one slice.
pub(crate) struct HashingReader<R> {
    inner: R,
    hash: Fnv,
}

impl<R> HashingReader<R> {
    pub(crate) fn new(inner: R) -> Self {
        HashingReader {
            inner,
            hash: Fnv::new(),
        }
    }

    pub(crate) fn digest(&self) -> u64 {
        self.hash.digest()
    }

    /// The wrapped reader, for reads that must stay out of the hash
    /// (the checksum field itself).
    pub(crate) fn inner_mut(&mut self) -> &mut R {
        &mut self.inner
    }
}

impl<R: Read> Read for HashingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.hash.update(&buf[..n]);
        Ok(n)
    }
}

impl<R: BufRead> BufRead for HashingReader<R> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        self.inner.fill_buf()
    }

    fn consume(&mut self, amt: usize) {
        // The caller consumes from the buffer its last `fill_buf`
        // returned, so a second `fill_buf` hands back the same bytes
        // without reading (and with `amt > 0` it is not empty).
        if amt > 0 {
            if let Ok(buf) = self.inner.fill_buf() {
                self.hash.update(&buf[..amt.min(buf.len())]);
            }
        }
        self.inner.consume(amt);
    }
}

/// Reads exactly `N` bytes.
pub(crate) fn read_array<R: Read, const N: usize>(r: &mut R) -> Result<[u8; N], TraceError> {
    let mut buf = [0u8; N];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

/// Reads a little-endian u32.
pub(crate) fn read_u32<R: Read>(r: &mut R) -> Result<u32, TraceError> {
    Ok(u32::from_le_bytes(read_array(r)?))
}

/// Reads a little-endian u64.
pub(crate) fn read_u64<R: Read>(r: &mut R) -> Result<u64, TraceError> {
    Ok(u64::from_le_bytes(read_array(r)?))
}

/// A varint whose value does not fit in 64 bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Overflow;

/// Decodes one LEB128 varint from `bytes` at `*pos`, advancing `*pos`
/// past the bytes it reads. `Ok(None)` means `bytes` ended before the
/// varint did. A tenth byte above 1 is an [`Overflow`]: it carries bits
/// past 64, or a continuation to an eleventh byte, so no varint is
/// longer than ten bytes.
#[inline]
pub(crate) fn take_varint(bytes: &[u8], pos: &mut usize) -> Result<Option<u64>, Overflow> {
    let mut v = 0u64;
    let mut shift = 0u32;
    while let Some(&byte) = bytes.get(*pos) {
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(Overflow);
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(Some(v));
        }
        shift += 7;
    }
    Ok(None)
}

/// True when the stream has no more bytes (used to reject trailing
/// garbage after the footer).
pub(crate) fn at_eof<R: BufRead>(r: &mut R) -> Result<bool, TraceError> {
    Ok(r.fill_buf()?.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn varints_round_trip_across_the_range() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert!(buf.len() <= 10);
            let mut pos = 0;
            assert_eq!(take_varint(&buf, &mut pos).expect("decodes"), Some(v));
            assert_eq!(pos, buf.len(), "consumes exactly the varint");
            // Every proper prefix is short, not an error.
            for cut in 0..buf.len() {
                let mut pos = 0;
                assert_eq!(take_varint(&buf[..cut], &mut pos).expect("short"), None);
            }
        }
    }

    #[test]
    fn overlong_varints_are_rejected() {
        // A tenth byte that continues cannot fit in 64 bits; the error
        // comes at that byte, before an eleventh is needed.
        let mut pos = 0;
        let bytes = [0x80u8; 10];
        assert_eq!(take_varint(&bytes, &mut pos), Err(Overflow));
        assert_eq!(pos, 10);
        // Ten bytes whose top payload exceeds the final bit.
        let mut bytes = vec![0xffu8; 9];
        bytes.push(0x02);
        assert_eq!(take_varint(&bytes, &mut 0), Err(Overflow));
        // A non-canonical (zero-padded) ten-byte varint still decodes.
        let mut bytes = vec![0x81u8];
        bytes.extend([0x80u8; 8]);
        bytes.push(0x00);
        assert_eq!(take_varint(&bytes, &mut 0).expect("decodes"), Some(1));
    }

    #[test]
    fn zigzag_round_trips_signed_deltas() {
        for v in [0i64, 1, -1, 2, -2, 1000, -1000, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn fnv_matches_the_reference_basis_and_differs_on_content() {
        assert_eq!(Fnv::new().digest(), 0xcbf2_9ce4_8422_2325);
        let mut a = Fnv::new();
        a.update(b"silo");
        let mut b = Fnv::new();
        b.update(b"sil0");
        assert_ne!(a.digest(), b.digest());
        // Incremental updates equal one-shot hashing.
        let mut c = Fnv::new();
        c.update(b"si");
        c.update(b"lo");
        assert_eq!(a.digest(), c.digest());
    }

    #[test]
    fn hashing_reader_hashes_exactly_the_bytes_read() {
        let data = b"0123456789".to_vec();
        let mut hr = HashingReader::new(Cursor::new(data.clone()));
        let mut out = Vec::new();
        hr.read_to_end(&mut out).expect("reads");
        let mut direct = Fnv::new();
        direct.update(&data);
        assert_eq!(hr.digest(), direct.digest());
    }

    #[test]
    fn hashing_reader_hashes_consumed_slices_like_reads() {
        let data = b"0123456789".to_vec();
        let mut direct = Fnv::new();
        direct.update(&data);
        // Consume through a 3-byte buffer in uneven steps, with an empty
        // consume between, then read the tail.
        let mut hr = HashingReader::new(std::io::BufReader::with_capacity(3, Cursor::new(data)));
        for step in [2, 0, 1, 3, 1] {
            let have = hr.fill_buf().expect("fills").len();
            hr.consume(step.min(have));
        }
        let mut rest = Vec::new();
        hr.read_to_end(&mut rest).expect("reads");
        assert_eq!(hr.digest(), direct.digest());
    }
}
