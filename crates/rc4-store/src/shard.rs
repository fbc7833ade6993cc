//! Reading and writing shard files: one writer, one reader.
//!
//! [`create_cells`] is the only writer. It streams cells through the codec
//! into a sibling `*.tmp` file and renames that over the destination only
//! once the CRC-32 trailer is written and synced, so a crash mid-checkpoint
//! leaves the previous complete checkpoint intact; a failed or abandoned
//! write removes its temp file. [`write_shard_with`] is that writer fed from
//! an in-memory dataset.
//!
//! [`open_cells`] is the only reader, and the one place the preamble and
//! header are parsed and validated. It hands out cells window by window
//! through [`CellReader`] and checks the cell count, trailer length and
//! CRC-32 at [`ShardCellStream::finish`]. [`read_shard`] is that reader
//! filling an in-memory dataset and [`peek_shard`] stops after the header,
//! so no path ever buffers a whole file. Failures surface as typed
//! [`DatasetError::Io`] / [`DatasetError::Corrupt`] errors naming the path.

use std::fs;
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use crypto_prims::crc32::Crc32;
use rc4_stats::{DatasetError, StorableDataset};

use crate::codec::{CellEncoding, CellReader, DeltaVarintEncoder};
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

/// Encoded bytes the writer buffers before one CRC update and one write.
const FLUSH_BYTES: usize = 1 << 19;

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

/// Serializes `dataset` under `header` to `path` atomically, choosing the
/// cell encoding (and thereby the format version actually written):
/// [`CellEncoding::Raw`] is the v1 default every byte-identity contract is
/// pinned against. The cells go through [`create_cells`], one slice at a time.
///
/// # Errors
///
/// Returns [`DatasetError::Io`] on file-system failures (the temp file is
/// removed), [`DatasetError::Serialization`] if the header fails to encode,
/// [`DatasetError::Corrupt`] if the header contradicts itself, and
/// [`DatasetError::InvalidConfig`] if `header.cells` disagrees with the
/// dataset's cell count (a caller bug worth catching before it reaches disk).
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
    let mut writer = create_cells(path, header, encoding)?;
    for slice in dataset.cell_slices() {
        writer.write_cells(slice)?;
    }
    writer.finish()
}

/// The streaming shard writer, opened by [`create_cells`]: the output half
/// of every shard write, mirroring [`ShardCellStream`] on the input side.
///
/// Cells are encoded and CRC'd as they arrive; nothing is visible at the
/// destination path until [`ShardCellWriter::finish`] has written the CRC-32
/// trailer, synced, and atomically renamed the temp file into place. A failed
/// write, sync or rename, or dropping an unfinished writer, removes the temp
/// file, so an aborted write leaves no partial output behind.
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

    /// Appends `cells` to the cell section, flushing every 512 KiB of
    /// encoded output, so even a whole-table slice is never buffered whole.
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
        // A raw chunk is exactly FLUSH_BYTES; a varint chunk at most 10x
        // the cells, so the buffer stays within a few flushes' worth.
        for chunk in cells.chunks(FLUSH_BYTES / 8) {
            match self.encoding {
                CellEncoding::Raw => {
                    for &cell in chunk {
                        self.buf.extend_from_slice(&cell.to_le_bytes());
                    }
                }
                CellEncoding::DeltaVarint => {
                    for &cell in chunk {
                        self.encoder.push(cell, &mut self.buf);
                    }
                }
            }
            self.remaining -= chunk.len() as u64;
            self.emit(FLUSH_BYTES)?;
        }
        Ok(())
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
/// [`DatasetError::Corrupt`] when the header contradicts itself,
/// [`DatasetError::Serialization`] if it fails to encode,
/// [`DatasetError::InvalidConfig`] if it exceeds the format's length limit,
/// and [`DatasetError::Io`] on file-system failures.
pub fn create_cells(
    path: &Path,
    header: &ShardHeader,
    encoding: CellEncoding,
) -> Result<ShardCellWriter, DatasetError> {
    header.validate(path)?;
    let header_json = serde_json::to_string(header)
        .map_err(|e| DatasetError::Serialization(format!("shard header: {e}")))?;
    if header_json.len() > MAX_HEADER_LEN {
        return Err(DatasetError::InvalidConfig(format!(
            "shard header would be {} bytes, over the {MAX_HEADER_LEN}-byte format limit \
             (usually an extreme worker count; split the run into more shards)",
            header_json.len()
        )));
    }
    let tmp = tmp_path(path);
    let file = fs::File::create(&tmp).map_err(|e| DatasetError::io(&tmp, e))?;
    let mut writer = ShardCellWriter {
        path: path.to_path_buf(),
        tmp: Some(tmp),
        out: BufWriter::new(file),
        crc: Crc32::new(),
        encoding,
        encoder: DeltaVarintEncoder::new(),
        buf: Vec::with_capacity(FLUSH_BYTES),
        remaining: header.cells,
        bytes_written: 0,
    };
    writer.buf.extend_from_slice(&MAGIC);
    writer
        .buf
        .extend_from_slice(&encoding.format_version().to_le_bytes());
    writer
        .buf
        .extend_from_slice(&(header_json.len() as u32).to_le_bytes());
    writer.buf.extend_from_slice(header_json.as_bytes());
    writer.emit(0)?;
    Ok(writer)
}

/// Checks that `header` describes a `D` dataset: the kind tag matches and
/// the declared cell count is the one the shape implies. Shared by
/// [`read_shard`] and the merge, which both trust cell counts from here on.
pub(crate) fn expect_kind<D: StorableDataset>(
    path: &Path,
    header: &ShardHeader,
) -> Result<(), DatasetError> {
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
    let implied = D::cell_count_for_shape(&header.shape)
        .map_err(|e| DatasetError::corrupt(path, format!("invalid stored shape: {e}")))?;
    if implied != header.cells {
        return Err(DatasetError::corrupt(
            path,
            format!(
                "header declares {} cells but the shape implies {implied}",
                header.cells
            ),
        ));
    }
    Ok(())
}

/// Reads only the header of a shard file and its cell encoding (cells are
/// not touched and the CRC is *not* verified — use [`read_shard`] before
/// trusting the counts).
///
/// # Errors
///
/// Returns [`DatasetError::Io`] when the file cannot be read and
/// [`DatasetError::Corrupt`] when the preamble or header is invalid.
pub fn peek_shard(path: &Path) -> Result<(ShardHeader, CellEncoding), DatasetError> {
    let stream = open_cells(path)?;
    Ok((stream.header, stream.encoding))
}

/// Reads and fully validates a shard file, reconstructing the dataset: the
/// [`open_cells`] stream read into the dataset's cell slices, then
/// [`ShardCellStream::finish`]'s trailer and CRC checks.
///
/// # Errors
///
/// * [`DatasetError::Io`] — the file cannot be read.
/// * [`DatasetError::Corrupt`] — bad magic, unsupported format version,
///   truncation, trailing bytes, header/shape/cell-count inconsistency, or
///   CRC mismatch.
pub fn read_shard<D: StorableDataset>(path: &Path) -> Result<ShardFile<D>, DatasetError> {
    let mut stream = open_cells(path)?;
    expect_kind::<D>(path, &stream.header)?;
    let mut dataset = D::empty_with_shape(&stream.header.shape)
        .map_err(|e| DatasetError::corrupt(path, format!("invalid stored shape: {e}")))?;
    for slice in dataset.cell_slices_mut() {
        stream.read_cells(slice)?;
    }
    let (header, encoding) = (stream.header.clone(), stream.encoding);
    stream.finish()?;
    dataset.set_recorded_keystreams(header.keys_done());
    Ok(ShardFile {
        header,
        dataset,
        encoding,
    })
}

/// The streaming reader over one shard's cell section, opened by
/// [`open_cells`]: the input half of every shard read.
///
/// [`read_shard`] drains one into a dataset; the merge runs one per input
/// shard so no full cell table is ever resident. The CRC-32 trailer is
/// verified by [`ShardCellStream::finish`] — cells handed out before that
/// are *unverified*, so callers must only commit derived output after
/// `finish` succeeds.
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

    /// Encoded cell-section bytes consumed so far (the merge's read-bytes
    /// telemetry).
    pub fn bytes_read(&self) -> u64 {
        self.reader.bytes_consumed()
    }

    /// Decodes the next `out.len()` cells (caller must not ask for more
    /// than the header's shape holds, less the cells already read).
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
/// Parses and validates the preamble and header eagerly — the one place any
/// read path does; cell bytes are decoded lazily through
/// [`ShardCellStream::read_cells`] and integrity-checked at
/// [`ShardCellStream::finish`]. Kind/shape validation against a concrete
/// dataset type is the caller's job ([`read_shard`] and the merge both check
/// the header's kind tag and implied cell count).
///
/// # Errors
///
/// As [`peek_shard`].
pub fn open_cells(path: &Path) -> Result<ShardCellStream, DatasetError> {
    let mut file = fs::File::open(path).map_err(|e| DatasetError::io(path, e))?;
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
    let encoding = CellEncoding::from_format_version(version).ok_or_else(|| {
        DatasetError::corrupt(
            path,
            format!(
                "unsupported format version {version} (this build reads {} and {})",
                crate::format::FORMAT_VERSION,
                crate::format::FORMAT_VERSION_COMPRESSED
            ),
        )
    })?;
    let header_len = u32::from_le_bytes(preamble[12..16].try_into().expect("4 bytes")) as usize;
    if header_len > MAX_HEADER_LEN {
        return Err(DatasetError::corrupt(
            path,
            format!("implausible header length {header_len} (limit {MAX_HEADER_LEN})"),
        ));
    }
    let mut header_bytes = vec![0u8; header_len];
    file.read_exact(&mut header_bytes)
        .map_err(|e| eof_or_io(e, "header extends past end of file"))?;
    let header_json = std::str::from_utf8(&header_bytes)
        .map_err(|_| DatasetError::corrupt(path, "shard header is not UTF-8"))?;
    let header: ShardHeader = serde_json::from_str(header_json)
        .map_err(|e| DatasetError::corrupt(path, format!("unreadable shard header: {e}")))?;
    header.validate(path)?;
    // A cell takes at least 8 raw bytes or 1 varint byte, so a header
    // declaring more cells than the file can hold is rejected here, before
    // any reader allocates a table for them.
    let file_len = file
        .metadata()
        .map_err(|e| DatasetError::io(path, e))?
        .len();
    let cell_bytes = file_len.saturating_sub((PREAMBLE_LEN + header_len) as u64);
    let min_cell_bytes = match encoding {
        CellEncoding::Raw => 8,
        CellEncoding::DeltaVarint => 1,
    };
    if header.cells.saturating_mul(min_cell_bytes) > cell_bytes.saturating_sub(4) {
        return Err(DatasetError::corrupt(
            path,
            format!(
                "truncated file ({cell_bytes} bytes after the header cannot hold {} cells \
                 and the CRC trailer)",
                header.cells
            ),
        ));
    }
    // The cell reader continues the digest the trailer covers.
    let mut crc = Crc32::new();
    crc.update(&preamble);
    crc.update(&header_bytes);
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
        write_shard_with(&path, &header, &ds, CellEncoding::Raw).unwrap();

        let (peeked, _) = peek_shard(&path).unwrap();
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
            write_shard_with(&path, &header, &ds, CellEncoding::Raw),
            Err(DatasetError::InvalidConfig(_))
        ));
    }

    #[test]
    fn failed_write_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("rc4-store-leak-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        // The destination is a non-empty directory, so the final rename fails.
        let dest = dir.join("dest.ds");
        fs::create_dir_all(dest.join("occupied")).unwrap();
        let (header, ds) = sample();
        let r = write_shard_with(&dest, &header, &ds, CellEncoding::Raw);
        assert!(matches!(r, Err(DatasetError::Io(_))), "{r:?}");
        let temps: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(temps.is_empty(), "leftover temp files: {temps:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn kind_mismatch_is_corrupt() {
        let path = temp_file("kind");
        let (header, ds) = sample();
        write_shard_with(&path, &header, &ds, CellEncoding::Raw).unwrap();
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
        write_shard_with(&raw_path, &header, &ds, CellEncoding::Raw).unwrap();
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
        write_shard_with(&path, &header, &ds, CellEncoding::Raw).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[8] = 9; // format version 9
        fs::write(&path, &bytes).unwrap();
        for result in [
            peek_shard(&path).map(|_| ()),
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
            // Every cell was handed out: one more is an over-read.
            assert!(stream.read_cells(&mut [0]).is_err());
            stream.finish().unwrap();
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
