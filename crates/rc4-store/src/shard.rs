//! Reading and writing shard files.
//!
//! Writes are atomic: the file is assembled in a sibling `*.tmp` file and
//! renamed over the destination, so a crash mid-checkpoint leaves the
//! previous complete checkpoint intact. Reads validate everything — magic,
//! format version, header consistency, cell count, file length and the
//! CRC-32 trailer — before any cell reaches a dataset, and surface failures
//! as typed [`DatasetError::Io`] / [`DatasetError::Corrupt`] errors naming
//! the path.

use std::fs;
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use crypto_prims::crc32::Crc32;
use rc4_stats::{DatasetError, StorableDataset};

use crate::codec::{CellEncoding, CellReader, DeltaVarintDecoder, DeltaVarintEncoder};
use crate::format::{ShardHeader, MAGIC, MAX_HEADER_LEN, PREAMBLE_LEN};

/// A fully loaded shard: its header plus the reconstructed dataset.
#[derive(Debug, Clone)]
pub struct ShardFile<D> {
    /// The validated on-disk header.
    pub header: ShardHeader,
    /// The dataset, with cells and keystream totals restored.
    pub dataset: D,
    /// The cell encoding the file was stored under. Resume preserves it, so
    /// a compressed shard stays compressed across checkpoints.
    pub encoding: CellEncoding,
}

/// Sibling temp path used for atomic writes, salted with the process id and
/// a counter so concurrent writers of the same destination (e.g. two runs
/// filling one shared cache entry) never interleave into one temp file —
/// last rename wins with a complete file either way.
fn tmp_path(path: &Path) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SERIAL: AtomicU64 = AtomicU64::new(0);
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(
        ".{}-{}.tmp",
        std::process::id(),
        SERIAL.fetch_add(1, Ordering::Relaxed)
    ));
    path.with_file_name(name)
}

/// Serializes `dataset` under `header` to `path` atomically, with raw
/// (format version 1) cells — the default encoding every byte-identity
/// contract is pinned against. See [`write_shard_with`] for compression.
///
/// # Errors
///
/// Returns [`DatasetError::Io`] on file-system failures,
/// [`DatasetError::Serialization`] if the header fails to encode, and
/// [`DatasetError::InvalidConfig`] if `header.cells` disagrees with the
/// dataset's cell count (a caller bug worth catching before it reaches disk).
pub fn write_shard<D: StorableDataset>(
    path: &Path,
    header: &ShardHeader,
    dataset: &D,
) -> Result<(), DatasetError> {
    write_shard_with(path, header, dataset, CellEncoding::Raw)
}

/// Serializes `dataset` under `header` to `path` atomically, choosing the
/// cell encoding (and thereby the format version actually written).
///
/// # Errors
///
/// As [`write_shard`].
pub fn write_shard_with<D: StorableDataset>(
    path: &Path,
    header: &ShardHeader,
    dataset: &D,
    encoding: CellEncoding,
) -> Result<(), DatasetError> {
    if header.cells != dataset.cell_count() as u64 {
        return Err(DatasetError::InvalidConfig(format!(
            "header declares {} cells but the dataset holds {}",
            header.cells,
            dataset.cell_count()
        )));
    }
    let header_bytes = header_json_bytes(header)?;
    let header_len = header_bytes.len() as u32;

    let tmp = tmp_path(path);
    let file = fs::File::create(&tmp).map_err(|e| DatasetError::io(&tmp, e))?;
    let mut out = BufWriter::new(file);
    let mut crc = Crc32::new();
    let mut emit = |out: &mut BufWriter<fs::File>, bytes: &[u8]| -> Result<(), DatasetError> {
        crc.update(bytes);
        out.write_all(bytes).map_err(|e| DatasetError::io(&tmp, e))
    };

    emit(&mut out, &MAGIC)?;
    emit(&mut out, &encoding.format_version().to_le_bytes())?;
    emit(&mut out, &header_len.to_le_bytes())?;
    emit(&mut out, &header_bytes)?;
    // Cells, buffered in ~512 KiB chunks so CRC and write syscalls both see
    // large runs instead of per-cell pieces. The delta chain of the
    // compressed encoding runs across slice boundaries, exactly as the
    // decoder expects.
    let mut buf = Vec::with_capacity(1 << 19);
    let mut encoder = DeltaVarintEncoder::new();
    for slice in dataset.cell_slices() {
        for &cell in slice {
            match encoding {
                CellEncoding::Raw => buf.extend_from_slice(&cell.to_le_bytes()),
                CellEncoding::DeltaVarint => encoder.push(cell, &mut buf),
            }
            if buf.len() >= (1 << 19) {
                emit(&mut out, &buf)?;
                buf.clear();
            }
        }
    }
    if !buf.is_empty() {
        emit(&mut out, &buf)?;
    }
    let digest = crc.finalize();
    out.write_all(&digest.to_le_bytes())
        .map_err(|e| DatasetError::io(&tmp, e))?;
    out.flush().map_err(|e| DatasetError::io(&tmp, e))?;
    out.into_inner()
        .map_err(|e| DatasetError::io(&tmp, e.to_string()))?
        .sync_all()
        .map_err(|e| DatasetError::io(&tmp, e))?;
    fs::rename(&tmp, path).map_err(|e| DatasetError::io(path, e))?;
    Ok(())
}

/// Serializes a header to its JSON bytes, enforcing the format's length
/// limit (the single place both the in-memory and the streaming writer get
/// their header bytes from, so they cannot diverge).
fn header_json_bytes(header: &ShardHeader) -> Result<Vec<u8>, DatasetError> {
    let header_json = serde_json::to_string(header)
        .map_err(|e| DatasetError::Serialization(format!("shard header: {e}")))?;
    if header_json.len() > MAX_HEADER_LEN {
        return Err(DatasetError::InvalidConfig(format!(
            "shard header would be {} bytes, over the {MAX_HEADER_LEN}-byte format limit \
             (usually an extreme worker count; split the run into more shards)",
            header_json.len()
        )));
    }
    Ok(header_json.into_bytes())
}

/// A streaming, window-at-a-time shard *writer* — the output half of the
/// out-of-core merge, mirroring [`ShardCellStream`] on the input side.
///
/// Cells are encoded and CRC'd as they arrive; nothing is visible at the
/// destination path until [`ShardCellWriter::finish`] has written the CRC-32
/// trailer, synced, and atomically renamed the temp file into place. Dropping
/// an unfinished writer removes the temp file, so an aborted merge leaves no
/// partial output behind.
#[derive(Debug)]
pub struct ShardCellWriter {
    path: PathBuf,
    tmp: Option<PathBuf>,
    out: BufWriter<fs::File>,
    crc: Crc32,
    encoding: CellEncoding,
    encoder: DeltaVarintEncoder,
    buf: Vec<u8>,
    remaining: u64,
    bytes_written: u64,
}

impl ShardCellWriter {
    /// Cells the header still expects before [`ShardCellWriter::finish`] is
    /// allowed.
    pub fn remaining_cells(&self) -> u64 {
        self.remaining
    }

    /// Encoded bytes produced so far (the merge's write-bytes telemetry).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    fn emit(&mut self, flush_threshold: usize) -> Result<(), DatasetError> {
        if self.buf.is_empty() || self.buf.len() < flush_threshold {
            return Ok(());
        }
        self.crc.update(&self.buf);
        self.bytes_written += self.buf.len() as u64;
        if let Err(e) = self.out.write_all(&self.buf) {
            let tmp = self.tmp.as_deref().expect("unfinished writer has a tmp");
            return Err(DatasetError::io(tmp, e));
        }
        self.buf.clear();
        Ok(())
    }

    /// Appends `cells` to the cell section.
    ///
    /// # Errors
    ///
    /// [`DatasetError::InvalidConfig`] when more cells arrive than the header
    /// declared; [`DatasetError::Io`] on write failures.
    pub fn write_cells(&mut self, cells: &[u64]) -> Result<(), DatasetError> {
        if cells.len() as u64 > self.remaining {
            return Err(DatasetError::InvalidConfig(format!(
                "write of {} cells exceeds the {} the header has room for",
                cells.len(),
                self.remaining
            )));
        }
        for &cell in cells {
            match self.encoding {
                CellEncoding::Raw => self.buf.extend_from_slice(&cell.to_le_bytes()),
                CellEncoding::DeltaVarint => self.encoder.push(cell, &mut self.buf),
            }
        }
        self.remaining -= cells.len() as u64;
        self.emit(1 << 19)
    }

    /// Writes the CRC-32 trailer, syncs, and renames the file into place.
    ///
    /// # Errors
    ///
    /// [`DatasetError::InvalidConfig`] when cells are still owed;
    /// [`DatasetError::Io`] on write/sync/rename failures.
    pub fn finish(mut self) -> Result<(), DatasetError> {
        if self.remaining != 0 {
            return Err(DatasetError::InvalidConfig(format!(
                "writer finished with {} of the header's cells unwritten",
                self.remaining
            )));
        }
        self.emit(0)?;
        let tmp = self.tmp.take().expect("finish runs once");
        let digest = self.crc.finalize();
        let write = (|| -> std::io::Result<()> {
            self.out.write_all(&digest.to_le_bytes())?;
            self.out.flush()?;
            self.out.get_ref().sync_all()?;
            Ok(())
        })();
        if let Err(e) = write {
            let _ = fs::remove_file(&tmp);
            return Err(DatasetError::io(&tmp, e));
        }
        self.bytes_written += 4;
        if let Err(e) = fs::rename(&tmp, &self.path) {
            let _ = fs::remove_file(&tmp);
            return Err(DatasetError::io(&self.path, e));
        }
        Ok(())
    }
}

impl Drop for ShardCellWriter {
    fn drop(&mut self) {
        if let Some(tmp) = self.tmp.take() {
            let _ = fs::remove_file(tmp);
        }
    }
}

/// Opens a streaming shard writer for `header` at `path`.
///
/// The preamble and header are written (to the temp file) immediately; the
/// caller then supplies exactly `header.cells` cells via
/// [`ShardCellWriter::write_cells`] and seals the file with
/// [`ShardCellWriter::finish`].
///
/// # Errors
///
/// [`DatasetError::Corrupt`]-free validation errors when the header is
/// inconsistent, [`DatasetError::Serialization`] if it fails to encode, and
/// [`DatasetError::Io`] on file-system failures.
pub fn create_cells(
    path: &Path,
    header: &ShardHeader,
    encoding: CellEncoding,
) -> Result<ShardCellWriter, DatasetError> {
    header.validate(path)?;
    let header_bytes = header_json_bytes(header)?;
    let tmp = tmp_path(path);
    let file = fs::File::create(&tmp).map_err(|e| DatasetError::io(&tmp, e))?;
    let mut writer = ShardCellWriter {
        path: path.to_path_buf(),
        tmp: Some(tmp),
        out: BufWriter::new(file),
        crc: Crc32::new(),
        encoding,
        encoder: DeltaVarintEncoder::new(),
        buf: Vec::with_capacity(1 << 19),
        remaining: header.cells,
        bytes_written: 0,
    };
    writer.buf.extend_from_slice(&MAGIC);
    writer
        .buf
        .extend_from_slice(&encoding.format_version().to_le_bytes());
    writer
        .buf
        .extend_from_slice(&(header_bytes.len() as u32).to_le_bytes());
    writer.buf.extend_from_slice(&header_bytes);
    writer.emit(0)?;
    Ok(writer)
}

/// Version-check shared by every read path: maps the on-disk format version
/// to its cell encoding, rejecting unknown versions by name.
fn decode_version(path: &Path, version: u32) -> Result<CellEncoding, DatasetError> {
    CellEncoding::from_format_version(version).ok_or_else(|| {
        DatasetError::corrupt(
            path,
            format!(
                "unsupported format version {version} (this build reads {} and {})",
                crate::format::FORMAT_VERSION,
                crate::format::FORMAT_VERSION_COMPRESSED
            ),
        )
    })
}

/// Parses and validates the preamble and header from raw bytes.
fn decode_header(
    path: &Path,
    bytes: &[u8],
) -> Result<(ShardHeader, usize, CellEncoding), DatasetError> {
    if bytes.len() < PREAMBLE_LEN {
        return Err(DatasetError::corrupt(
            path,
            format!("truncated file ({} bytes, preamble needs 16)", bytes.len()),
        ));
    }
    if bytes[..8] != MAGIC {
        return Err(DatasetError::corrupt(
            path,
            "not an rc4-store dataset (bad magic)",
        ));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    let encoding = decode_version(path, version)?;
    let header_len = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")) as usize;
    if header_len > MAX_HEADER_LEN {
        return Err(DatasetError::corrupt(
            path,
            format!("implausible header length {header_len} (limit {MAX_HEADER_LEN})"),
        ));
    }
    let header_end = PREAMBLE_LEN
        .checked_add(header_len)
        .filter(|&end| end <= bytes.len())
        .ok_or_else(|| {
            DatasetError::corrupt(path, "truncated file (header extends past end of file)")
        })?;
    let header_json = std::str::from_utf8(&bytes[PREAMBLE_LEN..header_end])
        .map_err(|_| DatasetError::corrupt(path, "shard header is not UTF-8"))?;
    let header: ShardHeader = serde_json::from_str(header_json)
        .map_err(|e| DatasetError::corrupt(path, format!("unreadable shard header: {e}")))?;
    header.validate(path)?;
    Ok((header, header_end, encoding))
}

/// Reads only the header of a shard file (cells are not touched and the CRC
/// is *not* verified — use [`read_shard`] before trusting the counts).
///
/// # Errors
///
/// Returns [`DatasetError::Io`] when the file cannot be read and
/// [`DatasetError::Corrupt`] when the preamble or header is invalid.
pub fn peek_header(path: &Path) -> Result<ShardHeader, DatasetError> {
    peek_shard(path).map(|(h, _)| h)
}

/// As [`peek_header`], additionally reporting the file's cell encoding.
///
/// # Errors
///
/// As [`peek_header`].
pub fn peek_shard(path: &Path) -> Result<(ShardHeader, CellEncoding), DatasetError> {
    let mut file = fs::File::open(path).map_err(|e| DatasetError::io(path, e))?;
    let bytes = read_preamble_and_header(path, &mut file)?;
    decode_header(path, &bytes).map(|(h, _, enc)| (h, enc))
}

/// Reads exactly the preamble + JSON header bytes from the front of `file`,
/// leaving the reader positioned at the first cell byte.
fn read_preamble_and_header(path: &Path, file: &mut fs::File) -> Result<Vec<u8>, DatasetError> {
    let eof_or_io = |e: std::io::Error, what: &str| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            DatasetError::corrupt(path, format!("truncated file ({what})"))
        } else {
            DatasetError::io(path, e)
        }
    };
    let mut preamble = [0u8; PREAMBLE_LEN];
    file.read_exact(&mut preamble)
        .map_err(|e| eof_or_io(e, "shorter than the 16-byte preamble"))?;
    if preamble[..8] != MAGIC {
        return Err(DatasetError::corrupt(
            path,
            "not an rc4-store dataset (bad magic)",
        ));
    }
    let version = u32::from_le_bytes(preamble[8..12].try_into().expect("4 bytes"));
    decode_version(path, version)?;
    let header_len = u32::from_le_bytes(preamble[12..16].try_into().expect("4 bytes")) as usize;
    if header_len > MAX_HEADER_LEN {
        return Err(DatasetError::corrupt(
            path,
            format!("implausible header length {header_len} (limit {MAX_HEADER_LEN})"),
        ));
    }
    let mut bytes = preamble.to_vec();
    bytes.resize(PREAMBLE_LEN + header_len, 0);
    file.read_exact(&mut bytes[PREAMBLE_LEN..])
        .map_err(|e| eof_or_io(e, "header extends past end of file"))?;
    Ok(bytes)
}

/// Reads and fully validates a shard file, reconstructing the dataset.
///
/// # Errors
///
/// * [`DatasetError::Io`] — the file cannot be read.
/// * [`DatasetError::Corrupt`] — bad magic, unsupported format version,
///   truncation, header/shape/cell-count inconsistency, or CRC mismatch.
pub fn read_shard<D: StorableDataset>(path: &Path) -> Result<ShardFile<D>, DatasetError> {
    let bytes = fs::read(path).map_err(|e| DatasetError::io(path, e))?;
    let (header, header_end, encoding) = decode_header(path, &bytes)?;
    if header.kind != D::kind() {
        return Err(DatasetError::corrupt(
            path,
            format!(
                "holds a '{}' dataset, expected '{}'",
                header.kind,
                D::kind()
            ),
        ));
    }
    let mut dataset = D::empty_with_shape(&header.shape)
        .map_err(|e| DatasetError::corrupt(path, format!("invalid stored shape: {e}")))?;
    if dataset.cell_count() as u64 != header.cells {
        return Err(DatasetError::corrupt(
            path,
            format!(
                "header declares {} cells but the shape implies {}",
                header.cells,
                dataset.cell_count()
            ),
        ));
    }
    // Length accounting: raw cells have a fixed byte size, compressed cells
    // occupy whatever the varints take — there the decoder itself must
    // consume the cell section exactly.
    if encoding == CellEncoding::Raw {
        let cells_len = (header.cells as usize)
            .checked_mul(8)
            .ok_or_else(|| DatasetError::corrupt(path, "cell count overflows"))?;
        let expected_len = header_end + cells_len + 4;
        if bytes.len() < expected_len {
            return Err(DatasetError::corrupt(
                path,
                format!(
                    "truncated file ({} bytes, expected {expected_len})",
                    bytes.len()
                ),
            ));
        }
        if bytes.len() > expected_len {
            return Err(DatasetError::corrupt(
                path,
                format!(
                    "trailing bytes after the CRC ({} bytes, expected {expected_len})",
                    bytes.len()
                ),
            ));
        }
    } else if bytes.len() < header_end + 4 {
        return Err(DatasetError::corrupt(
            path,
            format!(
                "truncated file ({} bytes, no room for the CRC trailer)",
                bytes.len()
            ),
        ));
    }
    let crc_at = bytes.len() - 4;
    let stored_crc = u32::from_le_bytes(bytes[crc_at..].try_into().expect("4 bytes"));
    let mut crc = Crc32::new();
    crc.update(&bytes[..crc_at]);
    if crc.finalize() != stored_crc {
        return Err(DatasetError::corrupt(
            path,
            "CRC-32 mismatch (bit flip or torn write)",
        ));
    }
    let mut offset = header_end;
    match encoding {
        CellEncoding::Raw => {
            for slice in dataset.cell_slices_mut() {
                for cell in slice.iter_mut() {
                    *cell =
                        u64::from_le_bytes(bytes[offset..offset + 8].try_into().expect("8 bytes"));
                    offset += 8;
                }
            }
        }
        CellEncoding::DeltaVarint => {
            let mut decoder = DeltaVarintDecoder::new();
            for slice in dataset.cell_slices_mut() {
                for cell in slice.iter_mut() {
                    let (value, used) = decoder.next(&bytes[offset..crc_at]).ok_or_else(|| {
                        DatasetError::corrupt(path, "truncated or malformed varint cell")
                    })?;
                    *cell = value;
                    offset += used;
                }
            }
            if offset != crc_at {
                return Err(DatasetError::corrupt(
                    path,
                    format!("{} trailing bytes after the last cell", crc_at - offset),
                ));
            }
        }
    }
    dataset.set_recorded_keystreams(header.keys_done());
    Ok(ShardFile {
        header,
        dataset,
        encoding,
    })
}

/// A streaming, window-at-a-time reader over one shard's cell section.
///
/// Opened by [`open_cells`]; the out-of-core merge runs one per input shard
/// so no full cell table is ever resident. The CRC-32 trailer is verified by
/// [`ShardCellStream::finish`] — cells handed out before that are *unverified*,
/// so callers must only commit derived output after `finish` succeeds.
#[derive(Debug)]
pub struct ShardCellStream {
    path: PathBuf,
    header: ShardHeader,
    encoding: CellEncoding,
    remaining: u64,
    reader: CellReader<fs::File>,
}

impl ShardCellStream {
    /// The shard's validated header.
    pub fn header(&self) -> &ShardHeader {
        &self.header
    }

    /// The shard's cell encoding.
    pub fn encoding(&self) -> CellEncoding {
        self.encoding
    }

    /// Cells not yet handed out.
    pub fn remaining_cells(&self) -> u64 {
        self.remaining
    }

    /// Encoded cell-section bytes consumed so far (the merge's read-bytes
    /// telemetry).
    pub fn bytes_read(&self) -> u64 {
        self.reader.bytes_consumed()
    }

    /// Decodes the next `out.len()` cells (caller must not ask for more
    /// than [`ShardCellStream::remaining_cells`]).
    ///
    /// # Errors
    ///
    /// [`DatasetError::Corrupt`] on truncated or malformed cells, or when
    /// over-read; [`DatasetError::Io`] on read failures.
    pub fn read_cells(&mut self, out: &mut [u64]) -> Result<(), DatasetError> {
        if out.len() as u64 > self.remaining {
            return Err(DatasetError::corrupt(
                &self.path,
                format!(
                    "read of {} cells exceeds the {} remaining",
                    out.len(),
                    self.remaining
                ),
            ));
        }
        self.reader
            .read_cells(out)
            .map_err(|msg| crate::codec::corrupt_cells(&self.path, msg))?;
        self.remaining -= out.len() as u64;
        Ok(())
    }

    /// Verifies end-of-stream: every declared cell consumed, exactly one
    /// CRC-32 trailer left, and the digest matching.
    ///
    /// # Errors
    ///
    /// [`DatasetError::Corrupt`] on leftover cells, trailing bytes or a CRC
    /// mismatch; [`DatasetError::Io`] on read failures.
    pub fn finish(self) -> Result<(), DatasetError> {
        if self.remaining != 0 {
            return Err(DatasetError::corrupt(
                &self.path,
                format!("stream finished with {} cells unread", self.remaining),
            ));
        }
        let path = self.path;
        let (mut file, crc, mut trailer) = self.reader.finish();
        file.read_to_end(&mut trailer)
            .map_err(|e| DatasetError::io(&path, e))?;
        if trailer.len() != 4 {
            return Err(DatasetError::corrupt(
                &path,
                format!(
                    "expected a 4-byte CRC trailer after the cells, found {} bytes",
                    trailer.len()
                ),
            ));
        }
        let stored = u32::from_le_bytes(trailer[..4].try_into().expect("4 bytes"));
        if crc.finalize() != stored {
            return Err(DatasetError::corrupt(
                &path,
                "CRC-32 mismatch (bit flip or torn write)",
            ));
        }
        Ok(())
    }
}

/// Opens a shard for streaming cell access without loading it into memory.
///
/// Validates the preamble and header eagerly; cell bytes are decoded lazily
/// through [`ShardCellStream::read_cells`] and integrity-checked at
/// [`ShardCellStream::finish`]. Kind/shape validation against a concrete
/// dataset type is the caller's job (the merge checks the header's kind tag
/// and [`rc4_stats::StorableDataset::cell_count_for_shape`]).
///
/// # Errors
///
/// As [`peek_header`].
pub fn open_cells(path: &Path) -> Result<ShardCellStream, DatasetError> {
    let mut file = fs::File::open(path).map_err(|e| DatasetError::io(path, e))?;
    let bytes = read_preamble_and_header(path, &mut file)?;
    let (header, _, encoding) = decode_header(path, &bytes)?;
    let mut crc = Crc32::new();
    crc.update(&bytes);
    Ok(ShardCellStream {
        path: path.to_path_buf(),
        remaining: header.cells,
        header,
        encoding,
        reader: CellReader::with_crc(file, encoding, crc),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc4_stats::{single::SingleByteDataset, GenerationConfig};

    fn temp_file(name: &str) -> PathBuf {
        let mut dir = std::env::temp_dir();
        dir.push(format!("rc4-store-shard-{}-{name}", std::process::id()));
        let _ = fs::create_dir_all(&dir);
        dir.join("shard.ds")
    }

    fn sample() -> (ShardHeader, SingleByteDataset) {
        let mut ds = SingleByteDataset::new(4);
        ds.record_stream(0, &[1, 2, 3, 4]);
        ds.record_stream(0, &[1, 9, 3, 4]);
        let mut header = ShardHeader::new(
            "single",
            GenerationConfig::with_keys(2),
            ds.shape_params(),
            0,
            1,
            ds.cell_count() as u64,
        )
        .unwrap();
        header.progress = vec![2];
        (header, ds)
    }

    #[test]
    fn write_read_roundtrip_preserves_everything() {
        let path = temp_file("roundtrip");
        let (header, ds) = sample();
        write_shard(&path, &header, &ds).unwrap();

        let peeked = peek_header(&path).unwrap();
        assert_eq!(peeked, header);

        let loaded: ShardFile<SingleByteDataset> = read_shard(&path).unwrap();
        assert_eq!(loaded.header, header);
        assert_eq!(loaded.dataset.count(1, 1), 2);
        assert_eq!(loaded.dataset.count(2, 9), 1);
        assert_eq!(loaded.dataset.recorded_keystreams(), 2);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn cell_count_mismatch_is_a_caller_error() {
        let path = temp_file("cellcount");
        let (mut header, ds) = sample();
        header.cells += 1;
        assert!(matches!(
            write_shard(&path, &header, &ds),
            Err(DatasetError::InvalidConfig(_))
        ));
    }

    #[test]
    fn kind_mismatch_is_corrupt() {
        let path = temp_file("kind");
        let (header, ds) = sample();
        write_shard(&path, &header, &ds).unwrap();
        let r: Result<ShardFile<rc4_stats::pairs::PairDataset>, _> = read_shard(&path);
        assert!(matches!(r, Err(DatasetError::Corrupt(msg)) if msg.contains("'single'")));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_io() {
        let r: Result<ShardFile<SingleByteDataset>, _> =
            read_shard(Path::new("/nonexistent/rc4-store.ds"));
        assert!(matches!(r, Err(DatasetError::Io(msg)) if msg.contains("rc4-store.ds")));
    }

    #[test]
    fn compressed_shard_roundtrips_cell_for_cell() {
        let dir = std::env::temp_dir().join(format!("rc4-store-v2-{}", std::process::id()));
        let _ = fs::create_dir_all(&dir);
        let raw_path = dir.join("raw.ds");
        let v2_path = dir.join("compressed.ds");
        let (header, ds) = sample();
        write_shard(&raw_path, &header, &ds).unwrap();
        write_shard_with(&v2_path, &header, &ds, CellEncoding::DeltaVarint).unwrap();

        // The compressed file is a format-version-2 file and smaller.
        let raw_len = fs::metadata(&raw_path).unwrap().len();
        let v2_len = fs::metadata(&v2_path).unwrap().len();
        assert!(v2_len < raw_len, "compressed {v2_len} >= raw {raw_len}");
        let (peeked, encoding) = peek_shard(&v2_path).unwrap();
        assert_eq!(peeked, header);
        assert_eq!(encoding, CellEncoding::DeltaVarint);

        // Cell-for-cell identical dataset on read-back.
        let raw: ShardFile<SingleByteDataset> = read_shard(&raw_path).unwrap();
        let v2: ShardFile<SingleByteDataset> = read_shard(&v2_path).unwrap();
        assert_eq!(raw.encoding, CellEncoding::Raw);
        assert_eq!(v2.encoding, CellEncoding::DeltaVarint);
        assert_eq!(v2.dataset.cell_slices(), raw.dataset.cell_slices());
        assert_eq!(
            v2.dataset.recorded_keystreams(),
            raw.dataset.recorded_keystreams()
        );

        // Corrupting one cell byte must fail the CRC.
        let mut bytes = fs::read(&v2_path).unwrap();
        let mid = bytes.len() - 6;
        bytes[mid] ^= 0x40;
        fs::write(&v2_path, &bytes).unwrap();
        let r: Result<ShardFile<SingleByteDataset>, _> = read_shard(&v2_path);
        assert!(matches!(r, Err(DatasetError::Corrupt(msg)) if msg.contains("CRC")));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_format_version_names_supported_range() {
        let dir = std::env::temp_dir().join(format!("rc4-store-ver-{}", std::process::id()));
        let _ = fs::create_dir_all(&dir);
        let path = dir.join("future.ds");
        let (header, ds) = sample();
        write_shard(&path, &header, &ds).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[8] = 9; // format version 9
        fs::write(&path, &bytes).unwrap();
        for result in [
            peek_header(&path).map(|_| ()),
            read_shard::<SingleByteDataset>(&path).map(|_| ()),
            open_cells(&path).map(|_| ()),
        ] {
            assert!(
                matches!(&result, Err(DatasetError::Corrupt(msg)) if msg.contains("version 9") && msg.contains("1 and 2")),
                "{result:?}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cell_stream_yields_the_same_cells_as_a_full_read() {
        let dir = std::env::temp_dir().join(format!("rc4-store-stream-{}", std::process::id()));
        let _ = fs::create_dir_all(&dir);
        for encoding in [CellEncoding::Raw, CellEncoding::DeltaVarint] {
            let path = dir.join(format!("{}.ds", encoding.name()));
            let (header, ds) = sample();
            write_shard_with(&path, &header, &ds, encoding).unwrap();
            let loaded: ShardFile<SingleByteDataset> = read_shard(&path).unwrap();
            let expected: Vec<u64> = loaded
                .dataset
                .cell_slices()
                .into_iter()
                .flat_map(|s| s.iter().copied())
                .collect();

            let mut stream = open_cells(&path).unwrap();
            assert_eq!(stream.header(), &header);
            assert_eq!(stream.encoding(), encoding);
            let mut got = vec![0u64; expected.len()];
            // Windows of 3 cells exercise the chunked path.
            for chunk in got.chunks_mut(3) {
                stream.read_cells(chunk).unwrap();
            }
            assert_eq!(got, expected);
            assert_eq!(stream.remaining_cells(), 0);
            stream.finish().unwrap();
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
