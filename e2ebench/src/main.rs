//! End-to-end benchmark of the RC4-bias reproduction.
//!
//! ```sh
//! cargo run --release --offline -q --manifest-path e2ebench/Cargo.toml -- \
//!     --workload datasets|recovery|served-attacks --seed N --seconds S --trace 0|1
//! ```
//!
//! The program is exercised from outside, through the crates' public APIs only:
//!
//! * `datasets` — `rc4_store::generate_shard` + `read_shard` for all four
//!   dataset kinds (keystream engines, counting and shard I/O).
//! * `recovery` — fig7, fig10, fig7-stream and fig10-stream through
//!   `Experiment::run_observed` (Monte-Carlo sampling and likelihood scoring;
//!   no keystream is generated).
//! * `served-attacks` — a closed loop of two `rc4_serve::Client`s against an
//!   in-process `rc4_serve::Server` (serving, cache-hit reads, single-flight
//!   and the TKIP/TLS protocol substrate).
//!
//! Each run sets the workload up three times (the median is `setup_s`),
//! then repeats passes over the workload's fixed work list for `--seconds`.
//! There is no separate warm-up pass: the median over passes absorbs a
//! slower first one. Every unit of work is checked against a
//! reference made during set-up; a mismatch counts as a failed operation.
//!
//! With `--trace 0` the last stdout line reports the end-to-end metrics. With
//! `--trace 1` the first half of the time runs untraced passes and the second
//! half traced ones, which record benchmark-side spans and per-job telemetry
//! and diff the `rc4-obs` registry (enabled at the half) around the passes.
//! Afterwards each workload replays its inner-layer calls on the same shapes
//! ("probes") to split the time among layers. The last line then reports the
//! per-layer metrics: figures from the traced passes per pass, probe figures
//! as totals over the probe (see `PREDICTIONS.md`, which also pairs each
//! per-layer metric with the end-to-end metric it should move). `other_us` is
//! the mean traced pass wall minus the part of it the workload's layer
//! figures account for.
//!
//! The line before the result carries the environment fingerprint (resolved
//! keystream engine, `nproc`, worker budget, seed) and details that do not
//! fit the metric schema: the tail percentile and its sample count,
//! `failed_ratio`, the median per-pass peak RSS, and the workload's name for
//! `work_per_s`.

mod datasets;
mod measure;
mod recovery;
mod served;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use serde::Value;

use measure::{median, percentile, tail_percentile, timed, ObsDelta, Trace};

/// Executor workers and client connections used by every workload: the
/// 2-core machine the benchmark was calibrated on.
pub const WORKERS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// End-to-end metrics (reported with `--trace 0`).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("item_ms.p50", "ms"),
    ("item_ms.tail", "ms"),
    ("work_per_s", "1/s"),
];

/// Per-layer metrics (reported with `--trace 1`; 0 where a workload does
/// not reach the layer).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("rc4-accel.keys", "count"),
    ("rc4-accel.bytes", "bytes"),
    ("rc4-accel.busy_us", "us"),
    ("rc4-stats.keys", "count"),
    ("rc4-stats.generate_us", "us"),
    ("rc4-exec.busy_us", "us"),
    ("rc4-exec.idle_us", "us"),
    ("rc4-exec.utilization", "ratio"),
    ("rc4-exec.tasks", "count"),
    ("rc4-exec.steals", "count"),
    ("rc4-store.write_bytes", "bytes"),
    ("rc4-store.write_us", "us"),
    ("rc4-store.read_bytes", "bytes"),
    ("rc4-store.read_us", "us"),
    ("rc4-store.cache_hit_ratio", "ratio"),
    ("rc4-store.singleflight_coalesced", "count"),
    ("rc4-attacks.sample_calls", "count"),
    ("rc4-attacks.sample_cells", "count"),
    ("rc4-attacks.sample_us", "us"),
    ("plaintext-recovery.likelihood_calls", "count"),
    ("plaintext-recovery.likelihood_us", "us"),
    ("plaintext-recovery.viterbi_us", "us"),
    ("plaintext-recovery.candidates_us", "us"),
    ("plaintext-recovery.decided_ratio", "ratio"),
    ("wpa-tkip.frames", "count"),
    ("wpa-tkip.capture_us", "us"),
    ("wpa-tkip.recover_us", "us"),
    ("tls-rc4.records", "count"),
    ("tls-rc4.capture_us", "us"),
    ("tls-rc4.score_us", "us"),
    ("rc4-serve.queue_wait_us.p50", "us"),
    ("rc4-serve.budget_wait_us.p50", "us"),
    ("rc4-serve.run_us.p50", "us"),
    ("rc4-serve.overhead_us.p50", "us"),
    ("rc4-serve.jobs_failed", "count"),
    ("other_us", "us"),
    ("trace_overhead_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// One unit of work: its latency and whether its output check passed.
pub struct Item {
    pub ms: f64,
    pub ok: bool,
}

/// What one pass over the work list produced.
pub struct Pass {
    pub items: Vec<Item>,
    /// Work done in the workload's own unit (keys, trials or jobs).
    pub work: u64,
}

/// Per-layer values being filled in by a traced run.
pub type Layers = BTreeMap<&'static str, f64>;

/// A benchmark workload.
pub trait Workload: Sized {
    /// What `work_per_s` counts for this workload.
    const WORK_UNIT: &'static str;

    /// Builds everything the passes need, including the references the
    /// output checks compare against. `dir` is a fresh directory.
    fn setup(seed: u64, dir: &Path) -> Result<Self, String>;

    /// One pass over the fixed work list, with spans around each public call
    /// when `trace` is on.
    fn pass(&mut self, trace: &Trace) -> Pass;

    /// Fills this workload's per-layer metrics from the traced passes, the
    /// `rc4-obs` delta around them, and its layer probes. Returns how much
    /// of one pass's wall time, in µs, those layer figures account for; the
    /// rest of the pass is `other_us`.
    fn layers(&mut self, trace: &Trace, passes: f64, obs: &ObsDelta, out: &mut Layers) -> f64;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: e2ebench --workload datasets|recovery|served-attacks --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("e2ebench: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let work_dir = match std::env::current_dir() {
        Ok(cwd) => {
            cwd.join(".bench_work")
                .join(format!("{}-{}", args.workload, std::process::id()))
        }
        Err(e) => {
            eprintln!("e2ebench: no working directory: {e}");
            std::process::exit(1);
        }
    };
    let outcome = match args.workload.as_str() {
        "datasets" => run::<datasets::Datasets>(&args, &work_dir),
        "recovery" => run::<recovery::Recovery>(&args, &work_dir),
        "served-attacks" => run::<served::Served>(&args, &work_dir),
        other => {
            eprintln!("e2ebench: unknown workload `{other}`\n{USAGE}");
            std::process::exit(2);
        }
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    match outcome {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
        }
        Err(msg) => {
            eprintln!("e2ebench: {msg}");
            std::process::exit(1);
        }
    }
}

/// Passes and their walls, accumulated over one measurement phase.
#[derive(Default)]
struct Phase {
    walls_s: Vec<f64>,
    /// Peak RSS of each pass, MiB.
    rss_mb: Vec<f64>,
    items_ms: Vec<f64>,
    work: u64,
    attempted: u64,
    failed: u64,
}

impl Phase {
    fn add(&mut self, pass: Pass, wall_s: f64) {
        self.walls_s.push(wall_s);
        self.work += pass.work;
        for item in pass.items {
            self.attempted += 1;
            self.failed += u64::from(!item.ok);
            self.items_ms.push(item.ms);
        }
    }
}

/// Runs passes until `seconds` have elapsed (at least one pass).
fn measure<W: Workload>(w: &mut W, trace: &Trace, seconds: f64, phase: &mut Phase) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    loop {
        // Writing 5 to clear_refs resets the kernel's RSS high-water mark,
        // so each pass reports its own peak.
        let _ = std::fs::write("/proc/self/clear_refs", "5");
        let (pass, us) = timed(|| w.pass(trace));
        phase.rss_mb.extend(measure::peak_rss_mb());
        phase.add(pass, us / 1e6);
        if Instant::now() >= deadline {
            break;
        }
    }
}

fn metric(value: f64, unit: &str) -> Value {
    Value::Object(vec![
        ("value".into(), Value::Float(value)),
        ("unit".into(), Value::Str(unit.into())),
    ])
}

fn run<W: Workload>(args: &Args, work_dir: &Path) -> Result<Vec<String>, String> {
    let engine = rc4_accel::AutoBatch::new().engine_name();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    eprintln!(
        "e2ebench: workload {} seed {} engine {engine} nproc {nproc} workers {WORKERS}",
        args.workload, args.seed
    );

    // Set up several times; keep the last, drop the others untimed.
    let mut setups_s = Vec::with_capacity(SETUP_REPEATS);
    let mut workload = None;
    for k in 0..SETUP_REPEATS {
        let dir: PathBuf = work_dir.join(format!("setup-{k}"));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        drop(workload.take());
        let (w, us) = timed(|| W::setup(args.seed, &dir));
        setups_s.push(us / 1e6);
        workload = Some(w?);
    }
    let mut w = workload.expect("at least one set-up ran");

    let off = Trace::new(false);
    let mut untraced = Phase::default();
    let mut metrics: Vec<(String, Value)> = Vec::new();
    let mut detail: Vec<(String, Value)> = Vec::new();
    let (attempted, failed);

    if !args.trace {
        measure(&mut w, &off, args.seconds, &mut untraced);
        attempted = untraced.attempted;
        failed = untraced.failed;
        let busy_s: f64 = untraced.walls_s.iter().sum();
        let tail_p = tail_percentile(untraced.items_ms.len());
        let values = [
            median(&setups_s),
            median(&untraced.walls_s),
            median(&untraced.items_ms),
            percentile(&untraced.items_ms, tail_p),
            untraced.work as f64 / busy_s,
        ];
        for (&(name, unit), value) in END_TO_END.iter().zip(values) {
            metrics.push((name.into(), metric(value, unit)));
        }
        detail.push(("item_ms.tail_percentile".into(), Value::Float(tail_p)));
        detail.push(("peak_rss_mb".into(), Value::Float(median(&untraced.rss_mb))));
        detail.push((
            "item_samples".into(),
            Value::UInt(untraced.items_ms.len() as u64),
        ));
        detail.push(("passes".into(), Value::UInt(untraced.walls_s.len() as u64)));
        detail.push((
            W::WORK_UNIT.into(),
            Value::Float(untraced.work as f64 / busy_s),
        ));
    } else {
        measure(&mut w, &off, args.seconds / 2.0, &mut untraced);
        rc4_obs::metrics::enable();
        let on = Trace::new(true);
        let mut traced = Phase::default();
        let before = rc4_obs::metrics::snapshot();
        measure(&mut w, &on, args.seconds / 2.0, &mut traced);
        let obs = ObsDelta::new(before, rc4_obs::metrics::snapshot());
        attempted = untraced.attempted + traced.attempted;
        failed = untraced.failed + traced.failed;

        let passes = traced.walls_s.len() as f64;
        let mut layers: Layers = PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect();
        let busy = obs.counter("exec.worker_busy_us");
        let idle = obs.counter("exec.worker_idle_us");
        layers.insert("rc4-exec.busy_us", busy / passes);
        layers.insert("rc4-exec.idle_us", idle / passes);
        if busy + idle > 0.0 {
            layers.insert("rc4-exec.utilization", busy / (busy + idle));
        }
        layers.insert("rc4-exec.tasks", obs.counter("exec.tasks") / passes);
        layers.insert("rc4-exec.steals", obs.counter("exec.steals") / passes);
        layers.insert(
            "trace_overhead_ratio",
            median(&traced.walls_s) / median(&untraced.walls_s),
        );
        layers.insert("peak_rss_mb", median(&traced.rss_mb));
        let accounted_us = w.layers(&on, passes, &obs, &mut layers);
        let pass_us = traced.walls_s.iter().sum::<f64>() * 1e6 / passes;
        layers.insert("other_us", pass_us - accounted_us);
        for &(name, unit) in PER_LAYER {
            metrics.push((name.into(), metric(layers[name], unit)));
        }
        detail.push((
            "passes".into(),
            Value::Array(vec![
                Value::UInt(untraced.walls_s.len() as u64),
                Value::UInt(traced.walls_s.len() as u64),
            ]),
        ));
    }
    drop(w);

    detail.push((
        "failed_ratio".into(),
        Value::Float(failed as f64 / attempted.max(1) as f64),
    ));
    let fingerprint = Value::Object(vec![
        ("workload".into(), Value::Str(args.workload.clone())),
        ("engine".into(), Value::Str(engine.into())),
        ("nproc".into(), Value::UInt(nproc as u64)),
        ("workers".into(), Value::UInt(WORKERS as u64)),
        ("seed".into(), Value::UInt(args.seed)),
        ("trace".into(), Value::Bool(args.trace)),
    ]);
    let context = Value::Object(vec![
        ("fingerprint".into(), fingerprint),
        ("detail".into(), Value::Object(detail)),
    ]);
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(failed == 0)),
        ("attempted".into(), Value::UInt(attempted)),
        ("failed".into(), Value::UInt(failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    let json = |v: &Value| serde_json::to_string(v).expect("value trees serialize");
    Ok(vec![json(&context), json(&result)])
}
