//! `datasets`: generate one shard of each dataset kind with
//! `rc4_store::generate_shard` into a fresh directory and read it back with
//! `read_shard`.
//!
//! The only workload where the keystream engines, counting and shard writes
//! do nearly all the work. Per-TSC keys need 16 keystream bytes, so that
//! kind is bound by the key schedule (KSA); single-byte and pair keys need
//! 256-261 bytes and are bound by keystream generation (PRGA). An engine
//! change that helps only one regime therefore shows. The long-term shard is
//! bound by encoding and decoding its 16.7M-cell table (shard I/O).

use std::path::{Path, PathBuf};

use rc4_accel::KeystreamBatch;
use rc4_exec::Executor;
use rc4_stats::{
    generate_storable_with_exec,
    longterm::LongTermDataset,
    pairs::{PairDataset, PositionPair},
    single::SingleByteDataset,
    tsc::{PerTscDataset, TscConditioning},
    GenerationConfig, StorableDataset,
};
use rc4_store::{
    generate_shard, read_shard, write_shard_with, CellEncoding, GenerateOptions, ShardHeader,
    ShardSpec,
};

use crate::measure::{mix, timed, ObsDelta, Trace};
use crate::{Item, Layers, Pass, Workload, WORKERS};

/// RC4 key length of every shard (the paper's 128-bit keys).
const KEY_LEN: usize = 16;

#[derive(Clone, Copy)]
enum Kind {
    Single,
    Pairs,
    LongTerm,
    PerTsc,
}

const KINDS: [Kind; 4] = [Kind::Single, Kind::Pairs, Kind::LongTerm, Kind::PerTsc];

impl Kind {
    /// Keys per shard. The long-term table's fixed size makes its shard cost
    /// ~0.6 s whatever the key count; the other kinds are sized to match, so
    /// every unit of work takes about the same time and the latency
    /// percentiles do not jump between kinds as the sample count changes.
    fn keys(self) -> u64 {
        match self {
            Kind::Single => 5 << 18,
            Kind::Pairs => 3 << 19,
            Kind::LongTerm => 1 << 12,
            Kind::PerTsc => 9 << 17,
        }
    }

    /// The long-term digraph table has 16.7M cells and is ~95% zeros at
    /// this key count: the case the compressed v2 encoding exists for
    /// (a raw shard would be 134 MB of mostly zeros per pass). The other
    /// kinds keep the raw v1 default, so both codecs are exercised.
    fn encoding(self) -> CellEncoding {
        match self {
            Kind::LongTerm => CellEncoding::DeltaVarint,
            _ => CellEncoding::Raw,
        }
    }
}

/// Binds an empty dataset of `kind`'s shape to `$ds` and evaluates `$body`
/// with it, so one generic body serves all four concrete kinds.
macro_rules! with_empty {
    ($kind:expr, |$ds:ident| $body:expr) => {
        match $kind {
            Kind::Single => {
                let $ds = SingleByteDataset::new(256);
                $body
            }
            Kind::Pairs => {
                let $ds =
                    PairDataset::new((257..261).map(|a| PositionPair { a, b: a + 1 }).collect())
                        .expect("valid pair list");
                $body
            }
            Kind::LongTerm => {
                let $ds = LongTermDataset::new(LongTermDataset::DEFAULT_DROP, 256)
                    .expect("valid long-term shape");
                $body
            }
            Kind::PerTsc => {
                let $ds =
                    PerTscDataset::new(TscConditioning::Tsc1, 16).expect("valid per-TSC shape");
                $body
            }
        }
    };
}

struct Shard {
    kind: Kind,
    config: GenerationConfig,
    /// Digest of the cells an in-memory generation of `config` produces.
    digest: u64,
    keystream_len: usize,
}

pub struct Datasets {
    dir: PathBuf,
    shards: Vec<Shard>,
    passes: u64,
    /// Bytes read back per pass (shard file sizes).
    read_bytes: f64,
}

/// Order-sensitive 64-bit digest of a dataset's cells and keystream total.
fn digest<D: StorableDataset>(ds: &D) -> u64 {
    let mut h = mix(ds.recorded_keystreams(), 0);
    for slice in ds.cell_slices() {
        for &cell in slice {
            h = (h ^ cell).wrapping_mul(0x100_0000_01B3).rotate_left(29);
        }
    }
    mix(h, 1)
}

fn generate_in_memory<D: StorableDataset>(
    mut ds: D,
    config: &GenerationConfig,
) -> Result<D, String> {
    generate_storable_with_exec(&mut ds, config, &Executor::new(WORKERS))
        .map_err(|e| format!("in-memory generation failed: {e}"))?;
    Ok(ds)
}

/// One unit: generate the shard, read it back (CRC-verified by
/// `read_shard`), and compare its cells with the reference digest.
fn unit<D: StorableDataset>(
    empty: D,
    shard: &Shard,
    path: &Path,
    trace: &Trace,
) -> Result<u64, String> {
    let spec = ShardSpec::full(shard.config);
    let opts = GenerateOptions {
        encoding: shard.kind.encoding(),
        ..GenerateOptions::default()
    };
    generate_shard(path, empty, &spec, &opts, None, &mut |_, _| {})
        .map_err(|e| format!("generate_shard: {e}"))?;
    let read = trace
        .span("rc4-store.read_shard", || read_shard::<D>(path))
        .map_err(|e| format!("read_shard: {e}"))?;
    if digest(&read.dataset) != shard.digest {
        return Err("cells read back differ from the generated cells".into());
    }
    Ok(std::fs::metadata(path).map_or(0, |m| m.len()))
}

impl Workload for Datasets {
    const WORK_UNIT: &'static str = "keys_per_s";

    fn setup(seed: u64, dir: &Path) -> Result<Self, String> {
        let shards = KINDS
            .iter()
            .enumerate()
            .map(|(i, &kind)| {
                let config = GenerationConfig {
                    keys: kind.keys(),
                    workers: WORKERS,
                    seed: mix(seed, i as u64),
                    key_len: KEY_LEN,
                };
                with_empty!(kind, |empty| {
                    let keystream_len = empty.required_keystream_len();
                    let ds = generate_in_memory(empty, &config)?;
                    Ok(Shard {
                        kind,
                        config,
                        digest: digest(&ds),
                        keystream_len,
                    })
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Datasets {
            dir: dir.to_path_buf(),
            shards,
            passes: 0,
            read_bytes: 0.0,
        })
    }

    fn pass(&mut self, trace: &Trace) -> Pass {
        let dir = self.dir.join(format!("pass-{}", self.passes));
        self.passes += 1;
        let fresh = std::fs::create_dir_all(&dir);
        let mut items = Vec::with_capacity(self.shards.len());
        let mut read_bytes = 0u64;
        for (i, shard) in self.shards.iter().enumerate() {
            let path = dir.join(format!("shard-{i}.ds"));
            let (outcome, us) = timed(|| {
                fresh
                    .as_ref()
                    .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
                with_empty!(shard.kind, |empty| unit(empty, shard, &path, trace))
            });
            if let Err(msg) = &outcome {
                eprintln!("e2ebench: datasets shard {i}: {msg}");
            }
            read_bytes += outcome.as_ref().map_or(0, |b| *b);
            items.push(Item {
                ms: us / 1e3,
                ok: outcome.is_ok(),
            });
        }
        let _ = std::fs::remove_dir_all(&dir);
        self.read_bytes = read_bytes as f64;
        Pass {
            items,
            work: self.shards.iter().map(|s| s.config.keys).sum(),
        }
    }

    fn layers(&mut self, trace: &Trace, passes: f64, _obs: &ObsDelta, out: &mut Layers) -> f64 {
        let read_us = trace.total_us("rc4-store.read_shard") / passes;
        out.insert("rc4-store.read_bytes", self.read_bytes);
        out.insert("rc4-store.read_us", read_us);

        // Probes: replay one pass's shards, each generated in memory
        // (rc4-stats) and written through the store with the same header,
        // cells and encoding, and the raw engine work on the same key shapes
        // (rc4-accel, single-threaded; part of the generation time).
        let probe_path = self.dir.join("probe.ds");
        let (mut gen_us, mut write_us, mut write_bytes, mut keys) = (0.0, 0.0, 0.0, 0.0);
        let (mut accel_bytes, mut accel_us) = (0.0, 0.0);
        for shard in &self.shards {
            match with_empty!(shard.kind, |empty| replay(empty, shard, &probe_path)) {
                Ok((gen, write, bytes)) => {
                    gen_us += gen;
                    write_us += write;
                    write_bytes += bytes;
                    keys += shard.config.keys as f64;
                }
                Err(msg) => eprintln!("e2ebench: datasets probe: {msg}"),
            }
            let _ = std::fs::remove_file(&probe_path);
            let (bytes, us) =
                accel_probe(shard.config.keys, shard.keystream_len, shard.config.seed);
            accel_bytes += bytes;
            accel_us += us;
        }
        out.insert("rc4-stats.keys", keys);
        out.insert("rc4-stats.generate_us", gen_us);
        out.insert("rc4-store.write_us", write_us);
        out.insert("rc4-store.write_bytes", write_bytes);
        out.insert("rc4-accel.keys", keys);
        out.insert("rc4-accel.bytes", accel_bytes);
        out.insert("rc4-accel.busy_us", accel_us);
        gen_us + write_us + read_us
    }
}

/// Generates `shard` in memory and writes it to `path` as `generate_shard`'s
/// final checkpoint would. Returns `(generation µs, write µs, file bytes)`.
fn replay<D: StorableDataset>(
    empty: D,
    shard: &Shard,
    path: &Path,
) -> Result<(f64, f64, f64), String> {
    let config = shard.config;
    let (ds, gen_us) = timed(|| generate_in_memory(empty, &config));
    let ds = ds?;
    let mut header = ShardHeader::new(
        D::kind(),
        config,
        ds.shape_params(),
        0,
        config.workers as u64,
        ds.cell_count() as u64,
    )
    .map_err(|e| e.to_string())?;
    header.progress = (0..config.workers as u64)
        .map(|w| config.keys_for_worker(w))
        .collect();
    let (written, write_us) = timed(|| write_shard_with(path, &header, &ds, shard.kind.encoding()));
    written.map_err(|e| format!("write_shard_with: {e}"))?;
    let bytes = std::fs::metadata(path).map_or(0, |m| m.len()) as f64;
    Ok((gen_us, write_us, bytes))
}

/// Schedules `keys` random keys through `AutoBatch` and fills
/// `keystream_len` bytes for each, one engine batch at a time, on one
/// thread. Returns `(keystream bytes, µs)`.
fn accel_probe(keys: u64, keystream_len: usize, seed: u64) -> (f64, f64) {
    let mut engine = rc4_accel::AutoBatch::new();
    let lanes = engine.lanes();
    let mut key_bytes = vec![0u8; lanes * KEY_LEN];
    for (i, b) in key_bytes.iter_mut().enumerate() {
        *b = mix(seed, i as u64) as u8;
    }
    let mut out = vec![0u8; lanes * keystream_len];
    let mut sink = 0u8;
    let (_, us) = timed(|| {
        let mut done = 0u64;
        while done < keys {
            let n = (keys - done).min(lanes as u64) as usize;
            key_bytes[0] ^= out[0];
            engine
                .schedule(&key_bytes[..n * KEY_LEN], KEY_LEN)
                .expect("valid key length");
            engine.fill(&mut out[..n * keystream_len], keystream_len);
            sink ^= out[n * keystream_len - 1];
            done += n as u64;
        }
    });
    std::hint::black_box(sink);
    ((keys as usize * keystream_len) as f64, us)
}
