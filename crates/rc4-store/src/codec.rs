//! Cell codecs: how the `u64` counter cells of a shard are laid out on disk.
//!
//! Format version 1 stores every cell as 8 little-endian bytes. Version 2
//! stores the *delta* between consecutive cells, zigzag-mapped to unsigned
//! and LEB128-varint encoded. Neighbouring counter cells of a bias dataset
//! are statistically close (they count near-uniform byte values over the
//! same key budget), so deltas are small and most cells compress to one or
//! two bytes — typically a 3-6x size reduction on real count tables.
//!
//! The codec layer is streaming on both sides, and it is the only one: the
//! encoder is fed cells incrementally and appends to a caller-owned buffer
//! (the one shard writer, [`crate::shard::create_cells`], controls flushing),
//! and [`CellReader`] — the one decoder — pulls bytes from any
//! [`std::io::Read`] through an internal refill window, decoding a whole
//! window per refill. Every shard read goes through it, from a full
//! [`crate::shard::read_shard`] to the windowed
//! [`crate::merge::merge_shards`], so no path ever buffers a whole file. The
//! byte-level layout is specified normatively in `docs/shard-format.md`.

use std::io::Read;

use rc4_stats::DatasetError;

use crate::format::{FORMAT_VERSION, FORMAT_VERSION_COMPRESSED};

/// How the cell section of a shard file is encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CellEncoding {
    /// Format version 1: each cell as 8 little-endian bytes.
    #[default]
    Raw,
    /// Format version 2: consecutive-cell deltas, zigzag + LEB128 varint.
    DeltaVarint,
}

impl CellEncoding {
    /// The shard format version that carries this encoding.
    pub fn format_version(self) -> u32 {
        match self {
            CellEncoding::Raw => FORMAT_VERSION,
            CellEncoding::DeltaVarint => FORMAT_VERSION_COMPRESSED,
        }
    }

    /// The encoding carried by a shard format version, if supported.
    pub fn from_format_version(version: u32) -> Option<Self> {
        match version {
            FORMAT_VERSION => Some(CellEncoding::Raw),
            FORMAT_VERSION_COMPRESSED => Some(CellEncoding::DeltaVarint),
            _ => None,
        }
    }

    /// Human-readable name (`raw` / `delta-varint`), used by `dataset info`.
    pub fn name(self) -> &'static str {
        match self {
            CellEncoding::Raw => "raw",
            CellEncoding::DeltaVarint => "delta-varint",
        }
    }
}

/// Maps a signed delta to unsigned so small negative deltas stay small:
/// `0, -1, 1, -2, 2, ...` → `0, 1, 2, 3, 4, ...`.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

/// Appends `v` as an LEB128 varint (1-10 bytes, little-endian base-128).
pub fn varint_encode(mut v: u64, out: &mut Vec<u8>) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Decodes one LEB128 varint from the front of `bytes`, returning the value
/// and the number of bytes consumed. `None` on truncation or a varint longer
/// than the 10 bytes a `u64` can need.
pub fn varint_decode(bytes: &[u8]) -> Option<(u64, usize)> {
    let mut value = 0u64;
    for (i, &byte) in bytes.iter().enumerate().take(10) {
        // The 10th byte may only carry the single remaining bit of a u64.
        if i == 9 && byte > 0x01 {
            return None;
        }
        value |= u64::from(byte & 0x7F) << (7 * i);
        if byte & 0x80 == 0 {
            return Some((value, i + 1));
        }
    }
    None
}

/// Streaming delta+varint encoder: feed cells in order, bytes accumulate in
/// a caller-owned buffer (so the shard writer controls flush granularity).
#[derive(Debug, Default)]
pub struct DeltaVarintEncoder {
    prev: u64,
}

impl DeltaVarintEncoder {
    /// A fresh encoder (the first cell is delta-ed against zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes one cell, appending its varint delta to `out`.
    pub fn push(&mut self, cell: u64, out: &mut Vec<u8>) {
        let delta = zigzag(cell.wrapping_sub(self.prev) as i64);
        varint_encode(delta, out);
        self.prev = cell;
    }
}

/// Streaming delta+varint decoder over byte slices.
#[derive(Debug, Default)]
pub struct DeltaVarintDecoder {
    prev: u64,
}

impl DeltaVarintDecoder {
    /// A fresh decoder, mirroring [`DeltaVarintEncoder::new`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Decodes the next cell from the front of `bytes`, returning the cell
    /// value and bytes consumed. `None` on truncated or malformed input.
    pub fn next(&mut self, bytes: &[u8]) -> Option<(u64, usize)> {
        let (delta, used) = varint_decode(bytes)?;
        let cell = self.prev.wrapping_add(unzigzag(delta) as u64);
        self.prev = cell;
        Some((cell, used))
    }
}

/// Refill window for [`CellReader`]: big enough that raw cells and worst-case
/// 10-byte varints always fit whole, small enough to stay cache-friendly.
const READ_BUF_LEN: usize = 64 << 10;

/// A streaming cell decoder over any byte source, for either encoding.
///
/// Reads cells in caller-sized windows without ever materializing the whole
/// cell section; the out-of-core merge runs one `CellReader` per input shard.
/// The reader keeps a running CRC-32 over exactly the bytes it decodes (the
/// caller seeds it with the preamble+header digest via [`CellReader::with_crc`]),
/// so the shard-level caller can verify the file trailer afterwards without
/// a second pass.
#[derive(Debug)]
pub struct CellReader<R: Read> {
    inner: R,
    encoding: CellEncoding,
    decoder: DeltaVarintDecoder,
    crc: crypto_prims::crc32::Crc32,
    buf: Vec<u8>,
    pos: usize,
    len: usize,
    /// Total bytes consumed from `inner` *through decoding* (refilled bytes
    /// not yet decoded are excluded).
    consumed: u64,
}

impl<R: Read> CellReader<R> {
    /// Wraps `inner`, decoding cells under `encoding`.
    pub fn new(inner: R, encoding: CellEncoding) -> Self {
        Self::with_crc(inner, encoding, crypto_prims::crc32::Crc32::new())
    }

    /// Wraps `inner` with a pre-seeded CRC (covering the bytes the caller
    /// already consumed before the cell section, i.e. preamble + header).
    pub fn with_crc(inner: R, encoding: CellEncoding, crc: crypto_prims::crc32::Crc32) -> Self {
        Self {
            inner,
            encoding,
            decoder: DeltaVarintDecoder::new(),
            crc,
            buf: vec![0u8; READ_BUF_LEN],
            pos: 0,
            len: 0,
            consumed: 0,
        }
    }

    /// Bytes consumed from the underlying reader by decoded cells so far.
    pub fn bytes_consumed(&self) -> u64 {
        self.consumed
    }

    /// Ensures at least `want` unread bytes are buffered (or fewer at EOF).
    fn fill(&mut self, want: usize) -> Result<(), std::io::Error> {
        if self.len - self.pos >= want {
            return Ok(());
        }
        // Everything before `pos` has been decoded: fold it into the CRC
        // before compacting so the digest tracks exactly the consumed bytes.
        self.crc.update(&self.buf[..self.pos]);
        self.buf.copy_within(self.pos..self.len, 0);
        self.len -= self.pos;
        self.pos = 0;
        while self.len < want.min(self.buf.len()) {
            let n = self.inner.read(&mut self.buf[self.len..])?;
            if n == 0 {
                break;
            }
            self.len += n;
        }
        Ok(())
    }

    /// Decodes exactly `out.len()` cells into `out`, one buffered window at
    /// a time: every whole raw cell in the window decodes in one pass, and
    /// varints decode while a worst-case 10-byte varint is guaranteed to be
    /// buffered, so the refill check runs once per window, not per cell.
    ///
    /// # Errors
    ///
    /// [`DatasetError::Io`]-shaped strings are reported through the returned
    /// message; the caller (which knows the path) wraps them.
    pub fn read_cells(&mut self, out: &mut [u64]) -> Result<(), String> {
        let mut done = 0;
        while done < out.len() {
            match self.encoding {
                CellEncoding::Raw => {
                    self.fill(8).map_err(|e| e.to_string())?;
                    let n = ((self.len - self.pos) / 8).min(out.len() - done);
                    if n == 0 {
                        return Err("truncated cell section".into());
                    }
                    let bytes = &self.buf[self.pos..self.pos + 8 * n];
                    for (cell, raw) in out[done..done + n].iter_mut().zip(bytes.chunks_exact(8)) {
                        *cell = u64::from_le_bytes(raw.try_into().expect("8 bytes"));
                    }
                    self.pos += 8 * n;
                    self.consumed += 8 * n as u64;
                    done += n;
                }
                CellEncoding::DeltaVarint => {
                    self.fill(10).map_err(|e| e.to_string())?;
                    let start = self.pos;
                    // Under 10 bytes after a refill means the input is ending;
                    // its last cells then decode one per refill attempt.
                    loop {
                        let (value, used) = self
                            .decoder
                            .next(&self.buf[self.pos..self.len])
                            .ok_or_else(|| "truncated or malformed varint cell".to_string())?;
                        out[done] = value;
                        self.pos += used;
                        done += 1;
                        if done == out.len() || self.len - self.pos < 10 {
                            break;
                        }
                    }
                    self.consumed += (self.pos - start) as u64;
                }
            }
        }
        Ok(())
    }

    /// Finishes the reader: folds the last decoded stretch into the CRC and
    /// returns `(inner, crc, leftover)` where `leftover` is any bytes read
    /// past the decoded cells (for a well-formed shard: the 4-byte trailer,
    /// possibly partially — the rest is still in `inner`).
    pub fn finish(mut self) -> (R, crypto_prims::crc32::Crc32, Vec<u8>) {
        self.crc.update(&self.buf[..self.pos]);
        (self.inner, self.crc, self.buf[self.pos..self.len].to_vec())
    }
}

/// Typed wrapper for codec failures surfacing from shard reads.
pub(crate) fn corrupt_cells(path: &std::path::Path, msg: String) -> DatasetError {
    DatasetError::corrupt(path, format!("cell section: {msg}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encodes a whole cell slice-run into a fresh buffer.
    fn encode_cells_delta_varint<'a>(slices: impl IntoIterator<Item = &'a [u64]>) -> Vec<u8> {
        let mut enc = DeltaVarintEncoder::new();
        let mut out = Vec::new();
        for slice in slices {
            for &cell in slice {
                enc.push(cell, &mut out);
            }
        }
        out
    }

    /// Decodes exactly `out.len()` delta+varint cells from `bytes`, returning
    /// the number of input bytes consumed.
    fn decode_cells_delta_varint(bytes: &[u8], out: &mut [u64]) -> Option<usize> {
        let mut dec = DeltaVarintDecoder::new();
        let mut offset = 0usize;
        for cell in out.iter_mut() {
            let (value, used) = dec.next(&bytes[offset..])?;
            *cell = value;
            offset += used;
        }
        Some(offset)
    }

    /// A reader that hands out 1-7 bytes per `read` call, so raw cells and
    /// varints arrive split across reads.
    struct Trickle<'a> {
        bytes: &'a [u8],
        calls: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            self.calls += 1;
            let n = (1 + self.calls % 7).min(out.len()).min(self.bytes.len());
            out[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn varint_roundtrips_edge_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            16383,
            16384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            varint_encode(v, &mut buf);
            assert!(buf.len() <= 10);
            let (back, used) = varint_decode(&buf).unwrap();
            assert_eq!(back, v);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overlong() {
        assert!(varint_decode(&[]).is_none());
        assert!(varint_decode(&[0x80]).is_none());
        // 10 continuation bytes: an 11-byte varint cannot encode a u64.
        assert!(varint_decode(&[0x80; 10]).is_none());
        // 10th byte carrying more than the last u64 bit.
        let mut overlong = vec![0x80u8; 9];
        overlong.push(0x02);
        assert!(varint_decode(&overlong).is_none());
    }

    #[test]
    fn zigzag_orders_small_magnitudes_first() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(i64::MIN), u64::MAX);
        for v in [-5i64, -1, 0, 1, 5, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn delta_varint_roundtrips_counter_like_cells() {
        let cells: Vec<u64> = (0..10_000u64)
            .map(|i| 4_000_000 + (i * 2654435761) % 997)
            .collect();
        let encoded = encode_cells_delta_varint([cells.as_slice()]);
        // Counter-like cells (large values, small deltas) must compress.
        assert!(encoded.len() < cells.len() * 8 / 3);
        let mut back = vec![0u64; cells.len()];
        let used = decode_cells_delta_varint(&encoded, &mut back).unwrap();
        assert_eq!(used, encoded.len());
        assert_eq!(back, cells);
    }

    #[test]
    fn cell_reader_streams_both_encodings_across_window_boundaries() {
        let cells: Vec<u64> = (0..100_000u64).map(|i| i.wrapping_mul(0x9E37)).collect();

        let mut raw = Vec::new();
        for &c in &cells {
            raw.extend_from_slice(&c.to_le_bytes());
        }
        let compressed = encode_cells_delta_varint([cells.as_slice()]);

        for (bytes, encoding) in [
            (&raw, CellEncoding::Raw),
            (&compressed, CellEncoding::DeltaVarint),
        ] {
            let buffered: Box<dyn Read> = Box::new(bytes.as_slice());
            let trickle: Box<dyn Read> = Box::new(Trickle { bytes, calls: 0 });
            for source in [buffered, trickle] {
                let mut reader = CellReader::new(source, encoding);
                let mut out = vec![0u64; cells.len()];
                // Odd window size so windows straddle the refill buffer.
                for chunk in out.chunks_mut(777) {
                    reader.read_cells(chunk).unwrap();
                }
                assert_eq!(out, cells);
                assert_eq!(reader.bytes_consumed(), bytes.len() as u64);
                let (_, crc, leftover) = reader.finish();
                assert!(leftover.is_empty());
                let mut whole = crypto_prims::crc32::Crc32::new();
                whole.update(bytes);
                assert_eq!(crc.finalize(), whole.finalize());
            }
        }
    }

    #[test]
    fn cell_reader_reports_truncation() {
        let cells = [7u64, 8, 9];
        let encoded = encode_cells_delta_varint([cells.as_slice()]);
        let mut reader = CellReader::new(&encoded[..encoded.len() - 1], CellEncoding::DeltaVarint);
        let mut out = [0u64; 3];
        assert!(reader.read_cells(&mut out).is_err());

        let mut reader = CellReader::new(&[1u8, 2, 3][..], CellEncoding::Raw);
        let mut out = [0u64; 1];
        assert!(reader.read_cells(&mut out).is_err());
    }

    #[test]
    fn encoding_maps_to_format_versions() {
        assert_eq!(CellEncoding::Raw.format_version(), FORMAT_VERSION);
        assert_eq!(
            CellEncoding::DeltaVarint.format_version(),
            FORMAT_VERSION_COMPRESSED
        );
        assert_eq!(
            CellEncoding::from_format_version(1),
            Some(CellEncoding::Raw)
        );
        assert_eq!(
            CellEncoding::from_format_version(2),
            Some(CellEncoding::DeltaVarint)
        );
        assert_eq!(CellEncoding::from_format_version(3), None);
    }
}
