//! `repro` — thin driver over the experiment registry: regenerate every
//! table, figure and end-to-end attack of the paper at a chosen scale.
//!
//! Usage:
//!
//! ```text
//! repro list
//! repro run <NAME...|all> [--scale quick|laptop|extended] [--seed N]
//!           [--workers W] [--json] [--config FILE] [--cache-dir DIR]
//!           [--trace FILE]
//!
//! --scale      per-experiment preset to start from        (default: quick)
//! --seed       global seed mixed into every experiment    (default: 0)
//! --workers    dataset-generation worker threads          (default: 1)
//! --json       print ONLY a JSON array with one report per experiment
//! --config     JSON object {"<experiment>": {<config>}, ...}; each value is a
//!              COMPLETE config object that replaces the scale preset for that
//!              experiment (print a template with `Experiment::config_json`)
//! --cache-dir  dataset cache directory: matching complete datasets are
//!              loaded instead of regenerated, fresh ones are persisted
//! --trace      write a span trace of the run as JSONL;
//!              results are byte-identical with or without it
//!
//! # offline trace aggregation (see README "Observability"):
//! repro trace summarize FILE [--json]
//!
//! # the persistent dataset store (see README "On-disk dataset store"):
//! repro dataset generate --out FILE --kind KIND [shape flags] [config flags]
//!                        [--worker-range LO..HI] [--checkpoint-keys N]
//!                        [--stop-after-keys N]
//! repro dataset resume FILE [--checkpoint-keys N] [--stop-after-keys N]
//! repro dataset merge --out FILE SHARD...
//! repro dataset info FILE [--json]
//!
//! # fleet-scale dataset campaigns (see README "Fleet campaigns"):
//! repro campaign plan --dir DIR --kind KIND --shape A[,B,...] --leases N [config flags]
//! repro campaign run --dir DIR --out FILE [--procs P] [--heartbeat-timeout-ms N] ...
//! repro campaign resume ... | repro campaign status --dir DIR [--json]
//! repro campaign worker --dir DIR --lease ID   # one lease child, spawned by `run`
//!
//! # the perf smoke mode and CI regression gate (see README "Performance"):
//! repro bench [--json] [--compare BENCH_FILE] [--tolerance PCT]
//!
//! # the resident job server and its clients (see README "Serving mode"):
//! repro serve [--addr HOST:PORT] [--state-dir DIR] [--budget N]
//!             [--default-workers W] [--cache-dir DIR] [--no-cache]
//! repro submit NAME [--scale S] [--seed N] [--priority P] [--workers W]
//! repro jobs [--json]
//! repro watch ID [--from N]
//! repro result ID [--telemetry]
//! repro cancel ID
//! repro status [--json|--metrics]
//! repro shutdown [--deadline-ms N]
//! # clients find the server through --addr or the `addr` file in --state-dir
//! ```
//!
//! Everything experiment-specific — names, summaries, per-scale defaults,
//! config schemas — lives in the registry (`rc4_attacks::Registry`); this
//! binary only parses arguments and renders reports.

use std::process::ExitCode;
use std::sync::Arc;

use bench::{fail, runtime, CliResult, FlagTable, Flags};
use rc4_attacks::{
    context::StderrSink, experiments::Scale, Experiment, ExperimentContext, ExperimentReport,
    Registry,
};

/// `print!` through [`bench::write_stdout`]: a closed stdout ends the
/// process cleanly instead of panicking.
macro_rules! out {
    ($($arg:tt)*) => {
        bench::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`bench::write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        bench::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

const USAGE: &str = "usage: repro list\n       \
     repro run <NAME...|all> [--until-confident] [--scale S] [--seed N] [--workers W] [--json] [--config FILE] [--cache-dir DIR] [--trace FILE] [--metrics-out FILE]\n       \
     repro dataset <generate|resume|merge|info> ... (see `repro dataset --help`)\n       \
     repro campaign <plan|run|resume|worker|status> ... (see `repro campaign --help`)\n       \
     repro bench [--json] [--compare BENCH_FILE] [--tolerance PCT]\n       \
     repro trace summarize FILE [--json]\n       \
     repro serve|submit|jobs|watch|result|cancel|status|shutdown ... (see `repro serve --help`)";

const LIST_FLAGS: FlagTable = FlagTable {
    switches: &["--json"],
    valued: &[],
};

const RUN_FLAGS: FlagTable = FlagTable {
    switches: &["--json", "--until-confident"],
    valued: &[
        "--scale",
        "--seed",
        "--workers",
        "--config",
        "--cache-dir",
        "--trace",
        "--metrics-out",
    ],
};

/// Maps experiment names to their streaming `--until-confident` variants.
///
/// Canonical names and aliases resolve through the registry first, so
/// `fig9`-style aliases and already-streaming names (`fig7-stream`) work;
/// `all` maps to every experiment that has a streaming variant.
fn until_confident_names(registry: &Registry, names: &[String]) -> Result<Vec<String>, String> {
    let mut streaming: Vec<String> = Vec::new();
    for name in names {
        if name == "all" {
            streaming.extend(
                registry
                    .names()
                    .iter()
                    .filter(|n| n.ends_with("-stream"))
                    .map(|n| n.to_string()),
            );
            continue;
        }
        let Some(entry) = registry.find(name) else {
            return Err(format!(
                "unknown experiment '{name}'; registered experiments: {}",
                registry.names().join(", ")
            ));
        };
        let canonical = entry.name();
        if canonical.ends_with("-stream") {
            streaming.push(canonical.to_string());
            continue;
        }
        let variant = format!("{canonical}-stream");
        if registry.find(&variant).is_none() {
            let available: Vec<String> = registry
                .names()
                .iter()
                .filter_map(|n| n.strip_suffix("-stream"))
                .map(|n| n.to_string())
                .collect();
            return Err(format!(
                "'{canonical}' has no --until-confident variant; experiments with one: {}",
                available.join(", ")
            ));
        }
        streaming.push(variant);
    }
    Ok(streaming)
}

fn parse_scale(name: &str) -> CliResult<Scale> {
    Scale::parse(name).ok_or_else(|| {
        let known: Vec<&str> = Scale::ALL.iter().map(|s| s.name()).collect();
        (
            format!("unknown scale '{name}' (expected {})", known.join(" | ")),
            2,
        )
    })
}

/// Loads and validates the `--config` overrides: a JSON object keyed by
/// registered experiment name (or alias), with each value a *complete*
/// config object for that experiment. Keys are canonicalized through the
/// registry so alias-keyed entries (e.g. `"fig9"`) reach the experiment.
fn load_config_overrides(
    registry: &Registry,
    path: &str,
) -> Result<Vec<(String, serde::Value)>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read config {path}: {e}"))?;
    let value: serde::Value =
        serde_json::from_str(&text).map_err(|e| format!("config {path} is not valid JSON: {e}"))?;
    let serde::Value::Object(fields) = value else {
        return Err(format!(
            "config {path} must be a JSON object keyed by experiment name"
        ));
    };
    let mut overrides: Vec<(String, serde::Value)> = Vec::with_capacity(fields.len());
    for (name, value) in fields {
        let Some(entry) = registry.find(&name) else {
            return Err(format!(
                "config {path} mentions unknown experiment '{name}'; registered experiments: {}",
                registry.names().join(", ")
            ));
        };
        let canonical = entry.name().to_string();
        if overrides.iter().any(|(n, _)| *n == canonical) {
            return Err(format!(
                "config {path} configures '{canonical}' twice (aliases count)"
            ));
        }
        overrides.push((canonical, value));
    }
    Ok(overrides)
}

/// Resolves `names` ("all" expands to the whole registry) into instantiated
/// experiments at `scale` with `overrides` applied.
fn build_experiments(
    registry: &Registry,
    names: &[String],
    scale: Scale,
    overrides: &[(String, serde::Value)],
) -> Result<Vec<Box<dyn Experiment>>, String> {
    let mut resolved: Vec<&str> = Vec::new();
    for name in names {
        if name == "all" {
            resolved.extend(registry.names());
        } else {
            resolved.push(name.as_str());
        }
    }
    let mut experiments = Vec::with_capacity(resolved.len());
    let mut overrides_used = vec![false; overrides.len()];
    for name in resolved {
        let mut experiment = registry.create(name).map_err(|e| e.to_string())?;
        experiment.apply_scale(scale);
        let canonical = experiment.name();
        if let Some(idx) = overrides.iter().position(|(n, _)| n == canonical) {
            experiment
                .set_config_value(&overrides[idx].1)
                .map_err(|e| e.to_string())?;
            overrides_used[idx] = true;
        }
        experiments.push(experiment);
    }
    // A validated-but-unused override would silently produce preset results
    // the user believes were overridden; refuse instead.
    let unused: Vec<&str> = overrides
        .iter()
        .zip(&overrides_used)
        .filter(|(_, used)| !**used)
        .map(|((name, _), _)| name.as_str())
        .collect();
    if !unused.is_empty() {
        return Err(format!(
            "--config configures {} but {} not being run; add the name(s) to 'repro run' or drop the entry",
            unused.join(", "),
            if unused.len() == 1 { "it is" } else { "they are" }
        ));
    }
    Ok(experiments)
}

fn run() -> CliResult<()> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, args)) = raw.split_first() else {
        return fail(format!("'repro' needs a command\n{USAGE}"));
    };
    match command.as_str() {
        "list" => list(&LIST_FLAGS.parse(args, USAGE)?),
        "run" => run_experiments(&RUN_FLAGS.parse(args, USAGE)?),
        "dataset" => dataset_cli::run(args),
        "campaign" => campaign_cli::run(args),
        "bench" => bench_cli::run(args),
        "trace" => trace_cli::run(args),
        "serve" | "submit" | "jobs" | "watch" | "result" | "cancel" | "status" | "shutdown" => {
            serve_cli::run(command, args)
        }
        "--help" | "-h" => Err((USAGE.to_string(), 0)),
        other => fail(format!(
            "unknown command '{other}'; experiments run through 'repro run <NAME...|all>'\n{USAGE}"
        )),
    }
}

fn list(flags: &Flags) -> CliResult<()> {
    flags.at_most(0)?;
    let registry = Registry::with_defaults();
    if flags.switch("--json") {
        let scales: Vec<serde::Value> = Scale::ALL
            .iter()
            .map(|s| serde::Value::Str(s.name().into()))
            .collect();
        let entries: Vec<serde::Value> = registry
            .entries()
            .iter()
            .map(|e| {
                serde::Value::Object(vec![
                    ("name".into(), serde::Value::Str(e.name().into())),
                    ("summary".into(), serde::Value::Str(e.summary().into())),
                    (
                        "aliases".into(),
                        serde::Value::Array(
                            e.aliases()
                                .iter()
                                .map(|a| serde::Value::Str((*a).into()))
                                .collect(),
                        ),
                    ),
                    ("scales".into(), serde::Value::Array(scales.clone())),
                ])
            })
            .collect();
        outln!(
            "{}",
            serde_json::to_string_pretty(&entries).expect("list serializes")
        );
    } else {
        let width = registry.names().iter().map(|n| n.len()).max().unwrap_or(0);
        for entry in registry.entries() {
            outln!("{:width$}  {}", entry.name(), entry.summary());
        }
    }
    Ok(())
}

fn run_experiments(flags: &Flags) -> CliResult<()> {
    if flags.positional.is_empty() {
        return flags.usage_error("'repro run' needs experiment names");
    }
    let scale = flags
        .value("--scale")
        .map_or(Ok(Scale::Quick), parse_scale)?;
    let seed = flags.u64("--seed")?.unwrap_or(0);
    let workers = flags.at_least("--workers", 1)?.unwrap_or(1);
    let json = flags.switch("--json");
    let cache_dir = flags.value("--cache-dir");
    let metrics_out = flags.value("--metrics-out");

    let registry = Registry::with_defaults();
    let names = if flags.switch("--until-confident") {
        until_confident_names(&registry, &flags.positional).or_else(fail)?
    } else {
        flags.positional.clone()
    };
    let overrides = match flags.value("--config") {
        Some(path) => load_config_overrides(&registry, path).or_else(fail)?,
        None => Vec::new(),
    };
    let experiments = build_experiments(&registry, &names, scale, &overrides).or_else(fail)?;

    let mut ctx = ExperimentContext::new()
        .with_seed(seed)
        .with_workers(workers)
        .with_sink(Arc::new(StderrSink));
    if let Some(dir) = cache_dir {
        ctx = ctx
            .with_cache_dir(dir)
            .or_else(|e| fail(format!("--cache-dir {dir}: {e}")))?;
    }
    eprintln!(
        "repro: running {} experiment(s) at scale {} (seed {seed}, {workers} worker(s){})",
        experiments.len(),
        scale.name(),
        cache_dir
            .map(|d| format!(", cache {d}"))
            .unwrap_or_default()
    );

    let trace_path = flags.value("--trace");
    if let Some(path) = trace_path {
        rc4_obs::trace::init_file(std::path::Path::new(path))
            .or_else(|e| fail(format!("--trace {path}: {e}")))?;
    }
    // `--metrics-out` switches the metrics registry on for this run
    // and dumps the final snapshot as JSON. The executor's
    // `exec.worker_busy_us` / `exec.worker_idle_us` counters in that
    // snapshot are what the multi-core utilization tests read.
    if metrics_out.is_some() {
        rc4_obs::metrics::enable();
    }

    let mut reports: Vec<ExperimentReport> = Vec::with_capacity(experiments.len());
    for experiment in &experiments {
        let report = experiment
            .run_observed(&ctx)
            .or_else(|e| runtime(format!("experiment '{}' failed: {e}", experiment.name())))?;
        if !json {
            outln!("{}", report.render());
        }
        reports.push(report);
    }
    if trace_path.is_some() {
        rc4_obs::trace::flush();
    }
    if let Some(path) = metrics_out {
        let snapshot = rc4_obs::metrics::snapshot().to_value();
        let text = serde_json::to_string_pretty(&snapshot).expect("metrics snapshot serializes");
        std::fs::write(path, format!("{text}\n"))
            .or_else(|e| runtime(format!("--metrics-out {path}: {e}")))?;
    }
    if json {
        out!("{}", rc4_attacks::report::json_document(&reports));
    }
    Ok(())
}

/// The dataset kind tags `repro dataset` and `repro campaign` accept.
const KINDS: &str = "single | pairs | longterm | per-tsc";

/// Evaluates `$body`, a `Result<_, DatasetError>`, with `$D` naming the
/// storable dataset type whose kind tag is `$kind` (a shard header's or a
/// campaign manifest's). An unknown tag is a usage error (exit 2), a
/// `DatasetError` a runtime one (exit 1).
macro_rules! with_kind {
    ($kind:expr, $D:ident => $body:expr) => {
        match &$kind[..] {
            "single" => {
                type $D = rc4_stats::single::SingleByteDataset;
                ($body).or_else(bench::runtime)
            }
            "pairs" => {
                type $D = rc4_stats::pairs::PairDataset;
                ($body).or_else(bench::runtime)
            }
            "longterm" => {
                type $D = rc4_stats::longterm::LongTermDataset;
                ($body).or_else(bench::runtime)
            }
            "per-tsc" => {
                type $D = rc4_stats::tsc::PerTscDataset;
                ($body).or_else(bench::runtime)
            }
            other => bench::fail(format!(
                "unknown dataset kind '{other}' (expected {})",
                crate::KINDS
            )),
        }
    };
}

/// Checks `shape` for dataset kind `kind` without allocating the table. An
/// unknown kind or a shape the kind rejects is a usage error (exit 2).
fn check_shape(kind: &str, shape: &[u64]) -> CliResult<()> {
    use rc4_stats::StorableDataset;
    with_kind!(kind, D => D::cell_count_for_shape(shape).map(|_| ())).map_err(|(msg, _)| (msg, 2))
}

/// The `repro dataset` subcommand family: drive the `rc4-store` persistence
/// layer (generate / resume / merge / info) from the command line.
mod dataset_cli {
    use std::path::{Path, PathBuf};

    use rc4_stats::{
        longterm::LongTermDataset, GenerationConfig, StorableDataset, MAX_CELLS, NUM_PAIRS,
    };
    use rc4_store::{
        generate_shard, merge_shards, peek_shard, read_shard, resume_shard, CellEncoding,
        GenerateOptions, GenerateStatus, MergeOptions, ShardHeader, ShardSpec,
    };

    use bench::{fail, parse_u64, runtime, CliResult, FlagTable, Flags};

    use super::{check_shape, KINDS};

    const USAGE: &str = "usage: repro dataset generate --out FILE --kind KIND [shape flags] \
         [--keys N] [--workers W] [--seed N] [--key-len L] [--worker-range LO..HI] \
         [--checkpoint-keys N] [--stop-after-keys N] [--compress]\n       \
         repro dataset resume FILE [--checkpoint-keys N] [--stop-after-keys N]\n       \
         repro dataset merge --out FILE [--fan-in N] [--window-cells N] [--compress] \
         SHARD SHARD...\n       \
         repro dataset info FILE [--json]\n\
         \n\
         --compress writes v2 delta+varint cells (smaller; v1 raw cells stay the\n\
         byte-identity default); resume always keeps the file's own encoding.\n\
         merge sums shards through fixed windows of --window-cells cells;\n\
         --fan-in caps simultaneously open inputs (tiered merge).\n\
         \n\
         kinds and their shape flags:\n  \
         single    --positions P                 per-position byte counts (Fig. 6 style)\n  \
         pairs     --consecutive R | --pairs a:b,c:d...   joint pair counts (consec512/first16 style)\n  \
         longterm  --block B [--drop D]          long-term digraphs (default drop 1023)\n  \
         per-tsc   --positions P [--conditioning tsc1|tsc0tsc1]   TKIP per-TSC counts (Fig. 8)";

    const GENERATE_FLAGS: FlagTable = FlagTable {
        switches: &["--compress"],
        valued: &[
            "--out",
            "--kind",
            "--positions",
            "--pairs",
            "--consecutive",
            "--drop",
            "--block",
            "--conditioning",
            "--keys",
            "--workers",
            "--seed",
            "--key-len",
            "--worker-range",
            "--checkpoint-keys",
            "--stop-after-keys",
        ],
    };

    const RESUME_FLAGS: FlagTable = FlagTable {
        switches: &[],
        valued: &["--checkpoint-keys", "--stop-after-keys"],
    };

    const MERGE_FLAGS: FlagTable = FlagTable {
        switches: &["--compress"],
        valued: &["--out", "--fan-in", "--window-cells"],
    };

    const INFO_FLAGS: FlagTable = FlagTable {
        switches: &["--json"],
        valued: &[],
    };

    /// Flags shared by `generate` (and partially by `resume`).
    struct GenerateArgs {
        out: PathBuf,
        kind: String,
        shape: Vec<u64>,
        config: GenerationConfig,
        worker_range: Option<(u64, u64)>,
        opts: GenerateOptions,
    }

    pub fn run(args: &[String]) -> CliResult<()> {
        match args.first().map(String::as_str) {
            Some("--help") | Some("-h") => Err((USAGE.to_string(), 0)),
            None => fail(format!("'repro dataset' needs a subcommand\n{USAGE}")),
            Some("generate") => generate(&args[1..]),
            Some("resume") => resume(&args[1..]),
            Some("merge") => merge(&args[1..]),
            Some("info") => info(&args[1..]),
            Some(other) => fail(format!("unknown dataset subcommand '{other}'\n{USAGE}")),
        }
    }

    /// Stderr progress line per checkpoint.
    fn progress_printer(label: String) -> impl FnMut(u64, u64) {
        move |done, total| {
            let pct = if total == 0 {
                100.0
            } else {
                done as f64 / total as f64 * 100.0
            };
            eprintln!("repro: dataset {label}: {done}/{total} keys ({pct:.1}%)");
        }
    }

    fn parse_generate(args: &[String]) -> CliResult<GenerateArgs> {
        let flags = GENERATE_FLAGS.parse(args, USAGE)?;
        flags.at_most(0)?;
        let Some(out) = flags.value("--out").map(PathBuf::from) else {
            return flags.usage_error("--out is required");
        };
        let Some(kind) = flags.value("--kind") else {
            return flags.usage_error(format!("--kind is required ({KINDS})"));
        };
        let shape = shape_descriptor(&flags, kind)?;
        check_shape(kind, &shape)?;
        let config = generation_config(&flags)?;
        let worker_range = flags.value("--worker-range").map(parse_range).transpose()?;
        let mut opts = resume_options(&flags)?;
        if flags.switch("--compress") {
            opts.encoding = CellEncoding::DeltaVarint;
        }
        Ok(GenerateArgs {
            out,
            kind: kind.to_string(),
            shape,
            config,
            worker_range,
            opts,
        })
    }

    /// The shape descriptor (`StorableDataset::shape_params`) that `kind`'s
    /// shape flags select. The flags are only parsed here; the dataset kind
    /// checks the descriptor.
    fn shape_descriptor(flags: &Flags, kind: &str) -> CliResult<Vec<u64>> {
        let positions = flags.u64("--positions")?;
        match kind {
            "single" => {
                let positions =
                    positions.ok_or_else(|| ("kind 'single' needs --positions".to_string(), 2))?;
                Ok(vec![positions])
            }
            "pairs" => match (flags.value("--pairs"), flags.u64("--consecutive")?) {
                (Some(list), None) => parse_pairs(list),
                (None, Some(0)) => fail("--consecutive must be at least 1"),
                // Each pair adds NUM_PAIRS cells: a count past the cell
                // bound is refused before its descriptor is built.
                (None, Some(r)) if r > MAX_CELLS / NUM_PAIRS as u64 => fail(format!(
                    "--consecutive {r} exceeds the dataset cell bound of {MAX_CELLS} cells"
                )),
                (None, Some(r)) => Ok((1..=r).flat_map(|a| [a, a + 1]).collect()),
                (Some(_), Some(_)) => fail("give either --pairs or --consecutive, not both"),
                (None, None) => fail("kind 'pairs' needs --pairs a:b,c:d or --consecutive R"),
            },
            "longterm" => {
                let drop = flags.u64("--drop")?;
                let block = flags
                    .u64("--block")?
                    .ok_or_else(|| ("kind 'longterm' needs --block".to_string(), 2))?;
                Ok(vec![
                    drop.unwrap_or(LongTermDataset::DEFAULT_DROP as u64),
                    block,
                ])
            }
            "per-tsc" => {
                // Descriptor codes of `TscConditioning::{Tsc1, Tsc0Tsc1}`.
                let conditioning = match flags.value("--conditioning") {
                    None | Some("tsc1") => 0,
                    Some("tsc0tsc1") => 1,
                    Some(other) => {
                        return fail(format!(
                            "unknown conditioning '{other}' (expected tsc1 | tsc0tsc1)"
                        ))
                    }
                };
                let positions =
                    positions.ok_or_else(|| ("kind 'per-tsc' needs --positions".to_string(), 2))?;
                Ok(vec![conditioning, positions])
            }
            other => fail(format!("unknown kind '{other}' (expected {KINDS})")),
        }
    }

    /// Warns when the requested checkpoint interval exceeds the shard's key
    /// range: the interval is clamped (see
    /// `GenerateOptions::effective_checkpoint_keys`), so the run only
    /// checkpoints at completion — an operator who asked for intermediate
    /// checkpoints should know they are not getting any.
    fn warn_oversized_checkpoint(opts: &GenerateOptions, keys_total: u64) {
        if opts.checkpoint_keys > keys_total.max(1) {
            eprintln!(
                "repro: warning: --checkpoint-keys {} exceeds the shard's {} keys; \
                 clamping — the run will only checkpoint at completion",
                opts.checkpoint_keys, keys_total
            );
        }
    }

    fn generate(args: &[String]) -> CliResult<()> {
        let parsed = parse_generate(args)?;
        let (lo, hi) = parsed
            .worker_range
            .unwrap_or((0, parsed.config.workers as u64));
        let spec = ShardSpec::workers(parsed.config, lo, hi);
        let shard_keys: u64 = (lo..hi).map(|w| parsed.config.keys_for_worker(w)).sum();
        warn_oversized_checkpoint(&parsed.opts, shard_keys);
        let label = parsed.out.display().to_string();
        let mut progress = progress_printer(label.clone());
        let status = with_kind!(parsed.kind, D => {
            D::empty_with_shape(&parsed.shape).and_then(|empty| {
                generate_shard(&parsed.out, empty, &spec, &parsed.opts, None, &mut progress)
            })
        })?;
        report_status(&label, status)
    }

    /// The config flags `generate` shares with `campaign plan`.
    pub(super) fn generation_config(flags: &Flags) -> CliResult<GenerationConfig> {
        let defaults = GenerationConfig::default();
        Ok(GenerationConfig {
            keys: flags.u64("--keys")?.unwrap_or(defaults.keys),
            workers: flags.at_least("--workers", 1)?.unwrap_or(defaults.workers),
            seed: flags.u64("--seed")?.unwrap_or(defaults.seed),
            key_len: flags.usize("--key-len")?.unwrap_or(defaults.key_len),
        })
    }

    /// The checkpoint flags `generate` shares with `resume`.
    fn resume_options(flags: &Flags) -> CliResult<GenerateOptions> {
        let mut opts = GenerateOptions::default();
        if let Some(n) = flags.u64("--checkpoint-keys")? {
            opts.checkpoint_keys = n;
        }
        opts.stop_after_keys = flags.u64("--stop-after-keys")?;
        Ok(opts)
    }

    fn resume(args: &[String]) -> CliResult<()> {
        let flags = RESUME_FLAGS.parse(args, USAGE)?;
        let [file] = flags.at_most(1)? else {
            return flags.usage_error("'dataset resume' needs a shard file");
        };
        let file = PathBuf::from(file);
        let opts = resume_options(&flags)?;
        let header = match peek_shard(&file) {
            Ok((h, _)) => h,
            Err(e) => return runtime(e),
        };
        warn_oversized_checkpoint(&opts, header.keys_total());
        let label = file.display().to_string();
        let mut progress = progress_printer(label.clone());
        let status =
            with_kind!(header.kind, D => resume_shard::<D>(&file, &opts, None, &mut progress))?;
        report_status(&label, status)
    }

    fn merge(args: &[String]) -> CliResult<()> {
        let flags = MERGE_FLAGS.parse(args, USAGE)?;
        let Some(out) = flags.value("--out").map(PathBuf::from) else {
            return flags.usage_error("'dataset merge' needs --out");
        };
        let inputs: Vec<PathBuf> = flags.positional.iter().map(PathBuf::from).collect();
        if inputs.len() < 2 {
            return flags.usage_error("'dataset merge' needs at least two input shards");
        }
        let mut options = MergeOptions::default();
        if let Some(n) = flags.at_least("--fan-in", 2)? {
            options.fan_in = n;
        }
        if let Some(n) = flags.at_least("--window-cells", 1)? {
            options.window_cells = n;
        }
        if flags.switch("--compress") {
            options.encoding = CellEncoding::DeltaVarint;
        }
        let header = match peek_shard(&inputs[0]) {
            Ok((h, _)) => h,
            Err(e) => return runtime(e),
        };
        let refs: Vec<&Path> = inputs.iter().map(PathBuf::as_path).collect();
        let merged = with_kind!(header.kind, D => merge_shards::<D>(&refs, &out, &options))?;
        eprintln!(
            "repro: dataset {}: merged {} shard(s), workers {}..{}, {} keys",
            out.display(),
            inputs.len(),
            merged.worker_lo,
            merged.worker_hi,
            merged.keys_done()
        );
        Ok(())
    }

    fn info(args: &[String]) -> CliResult<()> {
        let flags = INFO_FLAGS.parse(args, USAGE)?;
        let [file] = flags.at_most(1)? else {
            return flags.usage_error("'dataset info' needs a shard file");
        };
        let file = PathBuf::from(file);
        let json = flags.switch("--json");
        let (header, encoding) = match peek_shard(&file) {
            Ok(pair) => pair,
            Err(e) => return runtime(e),
        };
        // A full typed read doubles as an integrity check (CRC, cell count).
        let verified = with_kind!(header.kind, D => read_shard::<D>(&file).map(|s| s.header))?;
        print_info(&file, &verified, encoding, json);
        Ok(())
    }

    fn print_info(file: &Path, header: &ShardHeader, encoding: CellEncoding, json: bool) {
        if json {
            // The header's own fields stay at the top level (scripts key off
            // `kind` etc.); the preamble-derived encoding rides along.
            let mut value = serde::Serialize::to_value(header);
            if let serde::Value::Object(fields) = &mut value {
                fields.push((
                    "encoding".to_string(),
                    serde::Value::Str(encoding.name().to_string()),
                ));
            }
            outln!(
                "{}",
                serde_json::to_string_pretty(&value).expect("header serializes")
            );
            return;
        }
        outln!("file:        {}", file.display());
        outln!("kind:        {}", header.kind);
        outln!("shape:       {:?}", header.shape);
        if header.kind == LongTermDataset::kind() {
            if let Ok(counters) = LongTermDataset::counters_for_shape(&header.shape) {
                outln!("counters:    {}", describe_counters(&counters));
            }
        }
        outln!(
            "config:      keys={} workers={} seed={:#x} key_len={}",
            header.config.keys,
            header.config.workers,
            header.config.seed,
            header.config.key_len
        );
        outln!(
            "workers:     {}..{} of {}",
            header.worker_lo,
            header.worker_hi,
            header.config.workers
        );
        outln!(
            "progress:    {}/{} keys ({})",
            header.keys_done(),
            header.keys_total(),
            if header.is_complete() {
                "complete"
            } else {
                "resumable"
            }
        );
        outln!("cells:       {}", header.cells);
        outln!(
            "encoding:    {} (format v{})",
            encoding.name(),
            encoding.format_version()
        );
        outln!("integrity:   CRC-32 verified");
    }

    /// The PRGA counters of a long-term shard that have a digraph slice.
    fn describe_counters(counters: &[u8]) -> String {
        match counters.len() {
            256 => "all 256 (full digraph table)".to_string(),
            0 => "none (aligned table only)".to_string(),
            n => {
                let list: Vec<String> = counters.iter().map(u8::to_string).collect();
                format!("{} ({n} of 256 digraph slices)", list.join(","))
            }
        }
    }

    fn report_status(label: &str, status: GenerateStatus) -> CliResult<()> {
        match status {
            GenerateStatus::Complete => {
                eprintln!("repro: dataset {label}: complete");
            }
            GenerateStatus::Stopped => {
                eprintln!(
                    "repro: dataset {label}: stopped at the requested key count \
                     (checkpointed; continue with `repro dataset resume`)"
                );
            }
        }
        Ok(())
    }

    /// `--pairs a:b,c:d,...` as the flat descriptor `[a, b, c, d, ...]`.
    fn parse_pairs(s: &str) -> CliResult<Vec<u64>> {
        let mut shape = Vec::new();
        for part in s.split(',') {
            let Some((a, b)) = part.split_once(':') else {
                return fail(format!("--pairs expects a:b,c:d,... (got '{part}')"));
            };
            let int = |s: &str| parse_u64(s.trim()).or_else(fail);
            shape.extend([int(a)?, int(b)?]);
        }
        Ok(shape)
    }

    /// `--worker-range LO..HI`
    fn parse_range(s: &str) -> CliResult<(u64, u64)> {
        let Some((lo, hi)) = s.split_once("..") else {
            return fail(format!("--worker-range expects LO..HI (got '{s}')"));
        };
        let int = |s: &str| parse_u64(s.trim()).or_else(fail);
        Ok((int(lo)?, int(hi)?))
    }
}

/// The `repro campaign` subcommand family: fleet-scale dataset generation.
///
/// A *campaign* splits one generation configuration's worker range into
/// seed-disjoint leases (`plan`), runs them as child processes (`run` /
/// `resume`), and merges the finished lease shards into a table
/// byte-identical to what a single uninterrupted `repro dataset generate`
/// would have produced. Lease state lives in the campaign directory's
/// `campaign.json` manifest (`rc4_store::campaign::CampaignManifest`),
/// atomically rewritten on every transition, so a killed coordinator resumes
/// with `repro campaign run` and loses at most the work since each child's
/// last checkpoint.
///
/// The lease loop is `rc4_store::campaign::run_leases`; this module only
/// launches its children: one `repro campaign worker --lease ID` process per
/// grant, from the current executable. A child that crashes, or whose shard
/// shows no new checkpoint for `--heartbeat-timeout-ms`, has its lease
/// expired and re-granted; because lease content is deterministic (worker
/// `w` always derives its stream from `(seed, w)`), the replacement resumes
/// the lost child's shard from its last checkpoint and the final merge is
/// unaffected.
mod campaign_cli {
    use std::os::unix::process::parent_id;
    use std::path::{Path, PathBuf};
    use std::process::{Child, Command, Stdio};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Instant;

    use rc4_stats::DatasetError;
    use rc4_store::{
        run_leases, CampaignManifest, CampaignSpec, CellEncoding, GenerateOptions, GenerateStatus,
        Launcher, Lease, MergeOptions, RunOptions,
    };

    use bench::{fail, parse_u64, runtime, CliResult, FlagTable};

    use super::{check_shape, dataset_cli::generation_config};

    /// The manifest's fixed file name inside a campaign directory.
    const MANIFEST_NAME: &str = "campaign.json";

    const USAGE: &str =
        "usage: repro campaign plan --dir DIR --kind KIND --shape A[,B,...] --leases N \
         [--keys N] [--workers W] [--seed N] [--key-len L]\n       \
         repro campaign run --dir DIR --out FILE [--procs P] [--checkpoint-keys N] \
         [--heartbeat-timeout-ms N] [--max-attempts N] \
         [--fan-in N] [--compress] [--fail-first-after-keys N]\n       \
         repro campaign resume ... (alias of run: completed leases are skipped)\n       \
         repro campaign worker --dir DIR --lease ID [--checkpoint-keys N] [--fail-after-keys N]\n       \
         repro campaign status --dir DIR [--json]\n\
         \n\
         plan splits the config's worker range into N contiguous seed-disjoint\n\
         leases and writes DIR/campaign.json; --shape is the dataset's raw shape\n\
         parameters (single: positions | pairs: a,b,... flattened pairs |\n\
         longterm: drop,block[,m0,m1,m2,m3] counter mask | per-tsc: cond,positions —\n\
         see `repro dataset` and docs/shard-format.md).\n\
         run keeps up to P `campaign worker` children alive (default 2), one per\n\
         lease grant; a child that dies, or whose shard shows no new checkpoint\n\
         for the heartbeat timeout, has its lease re-granted (at most\n\
         --max-attempts grants per lease). On completion it merges every lease\n\
         shard into FILE — byte-identical to a single-process generate (raw\n\
         encoding; --compress writes a v2 delta+varint merged table).\n\
         worker generates or resumes one lease's shard and exits 0 once it is\n\
         complete, or 1 at its next checkpoint once its parent process is gone;\n\
         --fail-after-keys makes it exit 3 after checkpointing N keys\n\
         (deterministic crash injection for tests, applied by run's\n\
         --fail-first-after-keys to the first child only).";

    const PLAN_FLAGS: FlagTable = FlagTable {
        switches: &[],
        valued: &[
            "--dir",
            "--kind",
            "--shape",
            "--leases",
            "--keys",
            "--workers",
            "--seed",
            "--key-len",
        ],
    };

    const WORKER_FLAGS: FlagTable = FlagTable {
        switches: &[],
        valued: &["--dir", "--lease", "--checkpoint-keys", "--fail-after-keys"],
    };

    const RUN_FLAGS: FlagTable = FlagTable {
        switches: &["--compress"],
        valued: &[
            "--dir",
            "--out",
            "--procs",
            "--checkpoint-keys",
            "--heartbeat-timeout-ms",
            "--max-attempts",
            "--fan-in",
            "--fail-first-after-keys",
        ],
    };

    const STATUS_FLAGS: FlagTable = FlagTable {
        switches: &["--json"],
        valued: &["--dir"],
    };

    pub fn run(args: &[String]) -> CliResult<()> {
        match args.first().map(String::as_str) {
            Some("--help") | Some("-h") => Err((USAGE.to_string(), 0)),
            None => fail(format!("'repro campaign' needs a subcommand\n{USAGE}")),
            Some("plan") => plan(&args[1..]),
            Some("run") | Some("resume") => coordinate(&args[1..]),
            Some("worker") => worker(&args[1..]),
            Some("status") => status(&args[1..]),
            Some(other) => fail(format!("unknown campaign subcommand '{other}'\n{USAGE}")),
        }
    }

    fn load(dir: &Path) -> CliResult<CampaignManifest> {
        CampaignManifest::load(dir.join(MANIFEST_NAME)).or_else(runtime)
    }

    // ---------------------------------------------------------------- plan

    fn plan(args: &[String]) -> CliResult<()> {
        let flags = PLAN_FLAGS.parse(args, USAGE)?;
        flags.at_most(0)?;
        let (Some(dir), Some(kind), Some(shape), Some(leases)) = (
            flags.value("--dir").map(PathBuf::from),
            flags.value("--kind").map(str::to_string),
            flags.value("--shape"),
            flags.u64("--leases")?,
        ) else {
            return flags.usage_error("'campaign plan' needs --dir, --kind, --shape and --leases");
        };
        let shape = shape
            .split(',')
            .map(|p| parse_u64(p.trim()))
            .collect::<Result<Vec<u64>, _>>()
            .or_else(|msg| fail(format!("--shape: {msg}")))?;
        let config = generation_config(&flags)?;
        // A bad shape fails the plan, not the first worker.
        check_shape(&kind, &shape)?;
        std::fs::create_dir_all(&dir).map_err(|e| (format!("{}: {e}", dir.display()), 1))?;
        let spec = CampaignSpec {
            kind,
            shape,
            config,
        };
        let manifest = match CampaignManifest::plan(dir.join(MANIFEST_NAME), spec, leases) {
            Ok(m) => m,
            Err(DatasetError::InvalidConfig(msg)) => return fail(msg),
            Err(e) => return runtime(e),
        };
        eprintln!(
            "repro: campaign {}: planned {} lease(s) over {} worker(s), {} keys total",
            manifest.path().display(),
            manifest.leases.len(),
            manifest.spec.config.workers,
            manifest.spec.config.keys
        );
        Ok(())
    }

    // -------------------------------------------------------------- worker

    fn worker(args: &[String]) -> CliResult<()> {
        let flags = WORKER_FLAGS.parse(args, USAGE)?;
        flags.at_most(0)?;
        let (Some(dir), Some(id)) = (flags.value("--dir"), flags.u64("--lease")?) else {
            return flags.usage_error("'campaign worker' needs --dir and --lease");
        };
        let manifest = load(Path::new(dir))?;
        let mut opts = GenerateOptions::default();
        if let Some(n) = flags.u64("--checkpoint-keys")? {
            opts.checkpoint_keys = n;
        }
        // Crash injection: checkpoint N keys, then exit abnormally like a
        // killed process, leaving the shard resumable.
        opts.stop_after_keys = flags.u64("--fail-after-keys")?;
        // A coordinator killed outright cannot stop its children, so each
        // child watches its parent: once it has been re-parented, it stops
        // after the checkpoint it just flushed and exits, leaving the shard
        // for a `campaign resume` instead of working on as an orphan.
        let parent = parent_id();
        let orphaned = AtomicBool::new(false);
        let status = with_kind!(manifest.spec.kind, D => {
            manifest.generate_lease::<D>(id, &opts, Some(&orphaned), &mut |_, _| {
                if parent_id() != parent {
                    orphaned.store(true, Ordering::Relaxed);
                }
            })
        });
        match status {
            Ok(GenerateStatus::Complete) => Ok(()),
            Ok(GenerateStatus::Stopped) => Err((
                format!("campaign worker: injected failure on lease {id}"),
                3,
            )),
            Err(_) if orphaned.load(Ordering::Relaxed) => Err((
                format!("campaign worker: coordinator gone; lease {id} stopped at its checkpoint"),
                1,
            )),
            Err(e) => Err(e),
        }
    }

    // --------------------------------------------------------- coordinator

    /// Launches each lease grant as a `repro campaign worker` process.
    struct Workers {
        exe: PathBuf,
        dir: PathBuf,
        checkpoint_keys: Option<u64>,
        /// Crash injection for the first child only.
        fail_after_keys: Option<u64>,
    }

    impl Launcher for Workers {
        type Child = Child;

        fn launch(&mut self, lease: &Lease) -> Result<Child, DatasetError> {
            let mut cmd = Command::new(&self.exe);
            cmd.args(["campaign", "worker", "--dir"])
                .arg(&self.dir)
                .args(["--lease", &lease.id.to_string()])
                .stdin(Stdio::null())
                .stdout(Stdio::null());
            if let Some(n) = self.checkpoint_keys {
                cmd.args(["--checkpoint-keys", &n.to_string()]);
            }
            if let Some(n) = self.fail_after_keys.take() {
                cmd.args(["--fail-after-keys", &n.to_string()]);
            }
            cmd.spawn()
                .map_err(|e| DatasetError::Io(format!("cannot spawn campaign worker: {e}")))
        }

        fn try_wait(&mut self, child: &mut Child) -> Option<bool> {
            child
                .try_wait()
                .map_or(Some(false), |s| s.map(|s| s.success()))
        }

        fn kill(&mut self, child: &mut Child) {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    fn coordinate(args: &[String]) -> CliResult<()> {
        let flags = RUN_FLAGS.parse(args, USAGE)?;
        flags.at_most(0)?;
        let (Some(dir), Some(out)) = (flags.value("--dir"), flags.value("--out")) else {
            return flags.usage_error("'campaign run' needs --dir and --out");
        };
        let (dir, out) = (PathBuf::from(dir), PathBuf::from(out));
        let opts = RunOptions {
            procs: flags.at_least("--procs", 1)?.unwrap_or(2),
            heartbeat_timeout_ms: flags.u64("--heartbeat-timeout-ms")?.unwrap_or(60_000),
            max_attempts: flags.at_least("--max-attempts", 1)?.unwrap_or(5) as u64,
        };
        let mut merge = MergeOptions::default();
        if let Some(n) = flags.at_least("--fan-in", 2)? {
            merge.fan_in = n;
        }
        if flags.switch("--compress") {
            merge.encoding = CellEncoding::DeltaVarint;
        }
        let mut manifest = load(&dir)?;
        if !manifest.all_complete() {
            eprintln!(
                "repro: campaign {}: {} lease(s) ({} complete), up to {} worker process(es)",
                dir.display(),
                manifest.leases.len(),
                manifest.state_counts()[3],
                opts.procs
            );
            let mut workers = Workers {
                exe: std::env::current_exe()
                    .map_err(|e| (format!("cannot locate the repro binary: {e}"), 1))?,
                dir: dir.clone(),
                checkpoint_keys: flags.u64("--checkpoint-keys")?,
                fail_after_keys: flags.u64("--fail-first-after-keys")?,
            };
            let mut log = |line: String| eprintln!("repro: campaign: {line}");
            run_leases(
                &mut manifest,
                &mut workers,
                &mut Instant::now(),
                &opts,
                &mut log,
            )
            .map_err(|e| (e.to_string(), 1))?;
        }
        with_kind!(manifest.spec.kind, D => manifest.merge::<D>(&out, &merge))?;
        eprintln!(
            "repro: campaign {}: merged {} lease shard(s) into {} ({} encoding)",
            dir.display(),
            manifest.leases.len(),
            out.display(),
            merge.encoding.name()
        );
        Ok(())
    }

    // -------------------------------------------------------------- status

    fn status(args: &[String]) -> CliResult<()> {
        let flags = STATUS_FLAGS.parse(args, USAGE)?;
        flags.at_most(0)?;
        let Some(dir) = flags.value("--dir").map(PathBuf::from) else {
            return flags.usage_error("'campaign status' needs --dir");
        };
        let json = flags.switch("--json");
        let path = dir.join(MANIFEST_NAME);
        let manifest = match CampaignManifest::load(&path) {
            Ok(m) => m,
            Err(e) => return runtime(e),
        };
        if json {
            // The manifest file is already the canonical JSON document;
            // loading it above validated it.
            let text = std::fs::read_to_string(&path)
                .map_err(|e| (format!("{}: {e}", path.display()), 1))?;
            out!("{text}");
            return Ok(());
        }
        let spec = &manifest.spec;
        outln!("campaign:  {}", path.display());
        outln!("kind:      {}  shape {:?}", spec.kind, spec.shape);
        outln!(
            "config:    keys={} workers={} seed={:#x} key_len={}",
            spec.config.keys,
            spec.config.workers,
            spec.config.seed,
            spec.config.key_len
        );
        let counts = manifest.state_counts();
        outln!(
            "leases:    {} (pending {}, granted {}, running {}, complete {}, expired {})",
            manifest.leases.len(),
            counts[0],
            counts[1],
            counts[2],
            counts[3],
            counts[4]
        );
        outln!(
            "progress:  {}/{} keys{}",
            manifest.keys_done(),
            spec.config.keys,
            if manifest.all_complete() {
                " (ready to merge)"
            } else {
                ""
            }
        );
        for lease in &manifest.leases {
            outln!("  {}", render_lease(&manifest, lease));
        }
        Ok(())
    }

    fn render_lease(manifest: &CampaignManifest, lease: &Lease) -> String {
        format!(
            "lease {:>3}  workers {:>4}..{:<4}  {:8}  attempts {}  {}/{} keys  {}",
            lease.id,
            lease.worker_lo,
            lease.worker_hi,
            lease.state.name(),
            lease.attempts,
            if lease.state.name() == "complete" {
                manifest.lease_keys_total(lease)
            } else {
                lease.keys_done
            },
            manifest.lease_keys_total(lease),
            lease.shard
        )
    }
}

/// The `repro bench` subcommand: a fixed-seed, quick-scale performance smoke
/// run plus the CI regression gate.
///
/// This is the repository's one kernel benchmark harness: each row times
/// one hot loop of the generation or recovery path under a fixed seed, and
/// the rows are the committed `BENCH_*.json` trajectory. `--compare FILE`
/// checks every
/// measured bench that also appears in `FILE` and fails (exit 1) when one is
/// more than `--tolerance` percent slower; the text output is a markdown
/// table suitable for a CI job summary.
mod bench_cli {
    use std::time::Instant;

    use crypto_prims::crc32::crc32;
    use plaintext_recovery::{
        charset::Charset,
        likelihood::PairLikelihoods,
        viterbi::{list_viterbi, ViterbiConfig},
    };
    use rand::{rngs::StdRng, SeedableRng};
    use rc4_accel::{AutoBatch, KeystreamBatch};
    use rc4_attacks::experiments::fig8::{run as fig8_run, Fig8Config, TkipTrafficModel};
    use rc4_attacks::{sampling::sample_counts_normal, ExperimentContext};
    use rc4_exec::Executor;
    use rc4_serve::{Client, JobSpec, JobStatus, Server, ServerConfig};
    use rc4_stats::{generate_storable_with_exec, single::SingleByteDataset, GenerationConfig};
    use rc4_store::codec::{DeltaVarintDecoder, DeltaVarintEncoder};
    use tls_rc4::{
        attack::CookieStatistics,
        http::RequestTemplate,
        record::MAC_LEN,
        traffic::{TrafficConfig, TrafficGenerator},
    };

    use bench::{fail, runtime, CliResult, FlagTable};

    /// Default regression tolerance in percent: generous enough for
    /// run-to-run noise on shared CI runners, tight enough to catch a real
    /// hot-path regression (the batch engine is worth ~300%).
    const DEFAULT_TOLERANCE_PCT: f64 = 25.0;

    /// Wall-clock budget per measurement; the whole smoke mode stays under
    /// ~10 s so it can gate every CI run. `REPRO_BENCH_FAST=1` shrinks the
    /// budget further for the CLI contract tests, where only the schema and
    /// gate logic matter, not measurement quality.
    const TARGET_MS_PER_BENCH: u64 = 300;

    fn target_ms_per_bench() -> u64 {
        if std::env::var_os("REPRO_BENCH_FAST").is_some() {
            40
        } else {
            TARGET_MS_PER_BENCH
        }
    }

    const USAGE: &str = "usage: repro bench [--json] [--save-json FILE] [--compare BENCH_FILE|latest] [--tolerance PCT]\n\
         \n\
         Runs the quick perf smoke suite (fixed seeds) and prints one entry per\n\
         bench: ns per iteration plus throughput where meaningful. The batch\n\
         engine follows the RC4_ACCEL_FORCE environment variable (auto, avx512,\n\
         avx2, portable; unset = auto); the resolved engine is reported in the\n\
         summary and the JSON. With\n\
         --compare, entries also present in BENCH_FILE are checked and the run\n\
         fails (exit 1) if any is more than PCT percent slower (default 25).\n\
         `--compare latest` resolves the highest-numbered BENCH_pr<N>.json in\n\
         the current directory (falling back to BENCH_baseline.json in a fresh\n\
         checkout), so CI never hardcodes a trajectory filename.\n\
         --save-json additionally writes the JSON report of the SAME\n\
         measurement pass to FILE (so a CI job gets the human summary, the\n\
         machine artifact and the gate from one run).";

    const FLAGS: FlagTable = FlagTable {
        switches: &["--json"],
        valued: &["--save-json", "--compare", "--tolerance"],
    };

    /// Resolves `--compare latest`: the `BENCH_pr<N>.json` with the highest
    /// `N` in the current directory, falling back to `BENCH_baseline.json`
    /// (with a note) when no PR file exists yet. Numeric comparison on
    /// purpose — lexicographic order would rank `BENCH_pr9.json` above
    /// `BENCH_pr10.json`.
    fn resolve_latest_bench_file() -> CliResult<String> {
        let mut best: Option<(u64, String)> = None;
        let entries = std::fs::read_dir(".")
            .map_err(|e| (format!("cannot scan the current directory: {e}"), 2))?;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(number) = name
                .strip_prefix("BENCH_pr")
                .and_then(|rest| rest.strip_suffix(".json"))
                .and_then(|digits| digits.parse::<u64>().ok())
            else {
                continue;
            };
            let newer = match &best {
                None => true,
                Some((n, _)) => number > *n,
            };
            if newer {
                best = Some((number, name.to_string()));
            }
        }
        if let Some((_, name)) = best {
            return Ok(name);
        }
        // A fresh checkout carries only the baseline — gate against it rather
        // than erroring out before the first BENCH_pr<N>.json ever lands.
        if std::path::Path::new("BENCH_baseline.json").is_file() {
            eprintln!(
                "repro: --compare latest: no BENCH_pr<N>.json found, falling back to BENCH_baseline.json"
            );
            return Ok("BENCH_baseline.json".to_string());
        }
        Err((
            "--compare latest: no BENCH_pr<N>.json or BENCH_baseline.json found in the current directory"
                .to_string(),
            2,
        ))
    }

    struct Measurement {
        name: &'static str,
        ns_per_iter: f64,
        bytes_per_iter: Option<u64>,
    }

    /// Times `f`: one warm-up call, then enough iterations to fill the time
    /// budget, reporting the MINIMUM — the least noise-contaminated sample,
    /// which is what a regression gate should compare.
    fn time_min<F: FnMut()>(mut f: F) -> f64 {
        f();
        let start = Instant::now();
        f();
        let first_ns = start.elapsed().as_nanos().max(1) as u64;
        let iters = (target_ms_per_bench() * 1_000_000 / first_ns).clamp(3, 400);
        let mut best = first_ns as f64;
        for _ in 0..iters {
            let start = Instant::now();
            f();
            best = best.min(start.elapsed().as_nanos() as f64);
        }
        best
    }

    /// Flat lane-major buffer of `n` distinct 16-byte keys (fixed pattern, so
    /// every run measures the same work).
    fn smoke_keys(n: usize) -> Vec<u8> {
        let mut keys = vec![0u8; n * 16];
        for (k, key) in keys.chunks_exact_mut(16).enumerate() {
            for (b, slot) in key.iter_mut().enumerate() {
                *slot = (0x37 + 11 * k + 3 * b) as u8;
            }
        }
        keys
    }

    /// Schedules `keys` through `engine` in lane-sized batches, generating
    /// `per_key` bytes per key into `out` — the dataset workers' hot-loop
    /// shape.
    fn batch_generate(engine: &mut AutoBatch, keys: &[u8], out: &mut [u8], per_key: usize) {
        let lanes = engine.lanes();
        let total = keys.len() / 16;
        let mut done = 0usize;
        while done < total {
            let n = (total - done).min(lanes);
            engine
                .schedule(&keys[done * 16..(done + n) * 16], 16)
                .expect("16-byte keys are valid");
            engine.fill(&mut out[done * per_key..(done + n) * per_key], per_key);
            done += n;
        }
    }

    /// Times one served quick fig6 job — submit, watch to the end frame,
    /// fetch the result — against an in-process server bound to an
    /// ephemeral loopback port with temporary state and cache directories.
    /// `time_min`'s untimed first job generates and stores the dataset, so
    /// every timed job is a cache hit: what is left is the serving round
    /// trips plus the job's real work.
    fn time_served_fig6() -> f64 {
        let state_dir =
            std::env::temp_dir().join(format!("repro-bench-serve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&state_dir);
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            state_dir: state_dir.clone(),
            budget: 1,
            default_workers: 1,
            cache_dir: Some(state_dir.join("cache")),
        })
        .expect("in-process server binds");
        let addr = server.local_addr().to_string();
        let server_thread = std::thread::spawn(move || server.run());
        let mut client = Client::connect(&addr).expect("bench client connects");
        let spec = JobSpec {
            name: "fig6".to_string(),
            scale: "quick".to_string(),
            seed: 0,
            priority: 0,
            workers: 1,
        };
        let ns = time_min(|| {
            let id = client.submit(spec.clone()).expect("submit succeeds");
            let (status, _) = client.watch(id, 0, |_, _| {}).expect("watch ends");
            assert_eq!(status, JobStatus::Done, "served fig6 job finishes");
            std::hint::black_box(client.result(id).expect("done job has a result"));
        });
        client.shutdown(5_000).expect("shutdown drains");
        server_thread
            .join()
            .expect("server thread joins")
            .expect("server exits cleanly");
        let _ = std::fs::remove_dir_all(&state_dir);
        ns
    }

    fn measure_all() -> Vec<Measurement> {
        let mut results = Vec::new();

        // Scalar PRGA bulk fill: one key, 64 KiB of keystream.
        let mut prga = rc4::Prga::new(b"benchmark key 16").expect("valid key");
        let mut buf = vec![0u8; 65536];
        results.push(Measurement {
            name: "rc4_keystream/65536",
            ns_per_iter: time_min(|| prga.fill(std::hint::black_box(&mut buf))),
            bytes_per_iter: Some(65536),
        });

        // Batched engine, PRGA-bound regime: 16 fresh keys x 4 KiB each.
        let mut engine = AutoBatch::new();
        let keys = smoke_keys(16);
        let mut out = vec![0u8; 16 * 4096];
        results.push(Measurement {
            name: "rc4_batch_keystream/16x4096",
            ns_per_iter: time_min(|| {
                batch_generate(
                    &mut engine,
                    std::hint::black_box(&keys),
                    std::hint::black_box(&mut out),
                    4096,
                )
            }),
            bytes_per_iter: Some(16 * 4096),
        });

        // Batched engine, KSA-bound regime: 256 keys x 68 B (the per-TSC
        // dataset shape, the dominant generation workload).
        let keys = smoke_keys(256);
        let mut out = vec![0u8; 256 * 68];
        results.push(Measurement {
            name: "rc4_batch_rekey/256x68",
            ns_per_iter: time_min(|| {
                batch_generate(
                    &mut engine,
                    std::hint::black_box(&keys),
                    std::hint::black_box(&mut out),
                    68,
                )
            }),
            bytes_per_iter: Some(256 * 68),
        });

        // The same rekey shape pinned to each engine tier the host can
        // instantiate — the dispatch-order proof (avx512 > avx2 > portable)
        // and the rows the engine-force contract tests assert on. Names are
        // per-tier so `--compare` only gates tiers both hosts can measure.
        for name in rc4_accel::available_engines() {
            let tier = rc4_accel::Engine::parse(name).expect("listed engines parse");
            let mut forced = AutoBatch::with_engine(tier).expect("listed engines construct");
            let bench_name: &'static str = match name {
                "avx512" => "rc4_batch_rekey/256x68/avx512",
                "avx2" => "rc4_batch_rekey/256x68/avx2",
                _ => "rc4_batch_rekey/256x68/portable",
            };
            results.push(Measurement {
                name: bench_name,
                ns_per_iter: time_min(|| {
                    batch_generate(
                        &mut forced,
                        std::hint::black_box(&keys),
                        std::hint::black_box(&mut out),
                        68,
                    )
                }),
                bytes_per_iter: Some(256 * 68),
            });
        }

        // End-to-end dataset generation through the key-space walker.
        let config = GenerationConfig::with_keys(1 << 15).seed(0xBE_EF);
        results.push(Measurement {
            name: "dataset_generate/single_32768x64",
            ns_per_iter: time_min(|| {
                let mut ds = SingleByteDataset::new(64);
                generate_storable_with_exec(
                    std::hint::black_box(&mut ds),
                    &config,
                    &Executor::serial(),
                )
                .expect("valid config");
            }),
            bytes_per_iter: Some((1u64 << 15) * 64),
        });

        // Fig. 8 quick sweep: two trials of one synthetic-bias capture count.
        let fig8_config = Fig8Config {
            capture_counts: vec![1 << 11],
            trials: 2,
            max_candidates: 1 << 10,
            model: TkipTrafficModel::Synthetic { relative_bias: 0.8 },
            ..Fig8Config::quick()
        };
        results.push(Measurement {
            name: "fig8_tkip_recovery/quick_sweep",
            ns_per_iter: time_min(|| {
                fig8_run(
                    std::hint::black_box(&fig8_config),
                    &ExperimentContext::new(),
                )
                .expect("fig8 quick config runs");
            }),
            bytes_per_iter: None,
        });

        // Recovery path, sampler side: one sampled-mode count table, the
        // per-table cost of every fig7/fig10/streaming trial. ABSAB-shaped
        // (one hot cell, 65535 equal cells) at n = 2^30, the fig10 count.
        let alpha = (1.0 + 2f64.powi(-8)) / 65536.0;
        let mut absab = vec![(1.0 - alpha) / 65535.0; 65536];
        absab[0x4142] = alpha;
        let mut rng = StdRng::seed_from_u64(0x5A3);
        results.push(Measurement {
            name: "sampling/normal_65536",
            ns_per_iter: time_min(|| {
                std::hint::black_box(sample_counts_normal(
                    std::hint::black_box(&absab),
                    1 << 30,
                    &mut rng,
                ));
            }),
            bytes_per_iter: None,
        });

        // Recovery path, likelihood side: the paper's optimized Eq.-15 pair
        // scoring (8 FM cells against all 65536 candidate pairs) — the inner
        // loop of every fig7/fig10/TLS-cookie analysis. Gating this keeps
        // the analysis side as protected as the generation side.
        let counts: Vec<u64> = (0..65536u64).map(|i| (i * 2654435761) % 977).collect();
        let cells: Vec<(u8, u8, f64)> = rc4_biases::fm::fm_biases_at(257)
            .into_iter()
            .map(|b| (b.first, b.second, b.probability))
            .collect();
        let total: u64 = counts.iter().sum();
        results.push(Measurement {
            name: "recovery_likelihood/fm_sparse_65536",
            ns_per_iter: time_min(|| {
                PairLikelihoods::from_counts_sparse(
                    std::hint::black_box(&counts),
                    &cells,
                    1.0 / 65536.0,
                    total,
                )
                .expect("well-formed inputs");
            }),
            bytes_per_iter: None,
        });

        // Dense Eq.-13 pair scoring (the ablation baseline for the sparse
        // path) over a sparse count table: 512 observed cells against all
        // 65536 candidate pairs, running through the blocked xor-permute
        // scoring kernel in rc4-accel.
        let mut dense_counts = vec![0u64; 65536];
        for k in 0..512usize {
            dense_counts[(k * 8191) % 65536] = 1 + (k as u64 % 7);
        }
        let uniform_probs = vec![1.0 / 65536.0; 65536];
        results.push(Measurement {
            name: "recovery_likelihood/dense_512c_65536",
            ns_per_iter: time_min(|| {
                PairLikelihoods::from_counts_dense(
                    std::hint::black_box(&dense_counts),
                    &uniform_probs,
                )
                .expect("well-formed inputs");
            }),
            bytes_per_iter: None,
        });

        // Recovery path, candidate side: a list-Viterbi decode of a 6-byte
        // span over the base64 cookie alphabet, 256 candidates per step —
        // the fig10 / tls-cookie beam shape at quick scale.
        let transitions: Vec<PairLikelihoods> = (0..7u64)
            .map(|t| {
                let mut log = vec![0.0f64; 65536];
                for (i, slot) in log.iter_mut().enumerate() {
                    let mut x = (t << 32) | i as u64;
                    x ^= x >> 33;
                    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
                    *slot = ((x >> 40) % 4096) as f64 / 512.0;
                }
                PairLikelihoods::from_log_values(log).expect("65536 values")
            })
            .collect();
        let viterbi_config = ViterbiConfig {
            first_known: b'=',
            last_known: b';',
            candidates: 256,
            charset: Charset::base64(),
        };
        results.push(Measurement {
            name: "recovery_viterbi/base64_6x256",
            ns_per_iter: time_min(|| {
                list_viterbi(std::hint::black_box(&transitions), &viterbi_config)
                    .expect("well-formed decode");
            }),
            bytes_per_iter: None,
        });

        // Streaming path: one ingest-and-re-score step of the
        // `--until-confident` loop — absorb a 65536-cell count batch into the
        // running table, re-score it through the sparse FM likelihood and
        // extract the stopping margin. This is the per-batch overhead the
        // streaming experiments add over the fixed-grid drivers.
        let batch: Vec<u64> = (0..65536u64).map(|i| (i * 2246822519) % 613).collect();
        let mut counts = vec![0u64; 65536];
        let mut total = 0u64;
        results.push(Measurement {
            name: "streaming_ingest/absorb_rescore_65536",
            ns_per_iter: time_min(|| {
                let mut added = 0;
                for (cell, &add) in counts.iter_mut().zip(std::hint::black_box(&batch)) {
                    *cell += add;
                    added += add;
                }
                total += added;
                let scored =
                    PairLikelihoods::from_counts_sparse(&counts, &cells, 1.0 / 65536.0, total)
                        .expect("well-formed inputs");
                std::hint::black_box(scored.margin());
            }),
            bytes_per_iter: Some(65536 * 8),
        });

        // TLS cookie attack, statistics side: 1500 captured requests of the
        // quick tls-cookie template folded into fresh ABSAB/FM tables at
        // max gap 32 (the quick preset) — the per-capture cost of every
        // tls-cookie and tls-cookie-stream run.
        let cookie = b"dGhpc2lzc2VjcmV0";
        let mut template = RequestTemplate::new("site.com", "auth", cookie.len());
        template.align_cookie(0, 0, MAC_LEN);
        let captures = TrafficGenerator::new(
            template.clone(),
            cookie.to_vec(),
            TrafficConfig {
                seed: 0x71C5,
                ..TrafficConfig::default()
            },
        )
        .and_then(|mut traffic| traffic.capture(1500))
        .expect("valid traffic config");
        results.push(Measurement {
            name: "tls/cookie_stats_add_1500",
            ns_per_iter: time_min(|| {
                let mut stats = CookieStatistics::new(&template, 32).expect("non-empty cookie");
                for capture in std::hint::black_box(&captures) {
                    stats.add(capture).expect("aligned captures");
                }
                std::hint::black_box(stats.requests());
            }),
            bytes_per_iter: None,
        });

        // Shard codec: delta+varint (v2) encode/decode of a 65536-cell count
        // window — the compressed shard format's hot loops. bytes_per_iter
        // is the *decoded* cell volume, so the throughput column is directly
        // comparable with the raw-cell I/O the codec replaces.
        let cells: Vec<u64> = (0..65536u64)
            .map(|i| 500 + (i.wrapping_mul(2654435761) % 997))
            .collect();
        let mut encoded: Vec<u8> = Vec::with_capacity(cells.len() * 2);
        results.push(Measurement {
            name: "store_codec/delta_varint_encode_65536",
            ns_per_iter: time_min(|| {
                encoded.clear();
                let mut encoder = DeltaVarintEncoder::new();
                for &cell in std::hint::black_box(&cells) {
                    encoder.push(cell, &mut encoded);
                }
            }),
            bytes_per_iter: Some(65536 * 8),
        });
        eprintln!(
            "repro: bench: delta+varint packs 65536 cells into {} bytes \
             ({:.2}x smaller than raw)",
            encoded.len(),
            (65536.0 * 8.0) / encoded.len().max(1) as f64
        );
        results.push(Measurement {
            name: "store_codec/delta_varint_decode_65536",
            ns_per_iter: time_min(|| {
                let mut decoder = DeltaVarintDecoder::new();
                let mut offset = 0usize;
                let mut sum = 0u64;
                let encoded = std::hint::black_box(&encoded);
                while offset < encoded.len() {
                    let (cell, used) = decoder.next(&encoded[offset..]).expect("valid stream");
                    sum = sum.wrapping_add(cell);
                    offset += used;
                }
                std::hint::black_box(sum);
            }),
            bytes_per_iter: Some(65536 * 8),
        });

        // Shard I/O checksum: CRC-32 over 1 MiB, the integrity check every
        // shard write and read runs over its whole cell payload.
        let crc_input: Vec<u8> = (0..1u32 << 20)
            .map(|i| (i.wrapping_mul(2654435761) >> 24) as u8)
            .collect();
        results.push(Measurement {
            name: "crc32/1048576",
            ns_per_iter: time_min(|| {
                std::hint::black_box(crc32(std::hint::black_box(&crc_input)));
            }),
            bytes_per_iter: Some(1 << 20),
        });

        // End to end through `reprod`. Last on purpose: binding a server
        // turns the metrics registry on for the rest of the process.
        results.push(Measurement {
            name: "e2e/serve_fig6_quick",
            ns_per_iter: time_served_fig6(),
            bytes_per_iter: None,
        });

        results
    }

    /// One committed-vs-measured comparison row.
    struct CompareRow {
        name: String,
        committed_ns: f64,
        measured_ns: f64,
        delta_pct: f64,
        regressed: bool,
    }

    fn load_committed(path: &str) -> CliResult<Vec<(String, f64)>> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| (format!("cannot read bench file {path}: {e}"), 2))?;
        let value: serde::Value = serde_json::from_str(&text)
            .map_err(|e| (format!("bench file {path} is not valid JSON: {e}"), 2))?;
        let Ok(serde::Value::Array(benches)) = value.field("benches") else {
            return Err((format!("bench file {path} has no `benches` array"), 2));
        };
        let mut committed = Vec::with_capacity(benches.len());
        for entry in benches {
            let Ok(serde::Value::Str(name)) = entry.field("bench") else {
                continue;
            };
            let ns = match entry.field("ns_per_iter") {
                Ok(serde::Value::Float(ns)) => *ns,
                Ok(serde::Value::UInt(ns)) => *ns as f64,
                _ => continue,
            };
            committed.push((name.clone(), ns));
        }
        Ok(committed)
    }

    fn compare(
        measurements: &[Measurement],
        committed: &[(String, f64)],
        tolerance_pct: f64,
    ) -> Vec<CompareRow> {
        measurements
            .iter()
            .filter_map(|m| {
                let (_, committed_ns) = committed.iter().find(|(name, _)| name == m.name)?;
                let delta_pct = (m.ns_per_iter / committed_ns - 1.0) * 100.0;
                Some(CompareRow {
                    name: m.name.to_string(),
                    committed_ns: *committed_ns,
                    measured_ns: m.ns_per_iter,
                    delta_pct,
                    regressed: delta_pct > tolerance_pct,
                })
            })
            .collect()
    }

    fn gib_per_sec(m: &Measurement) -> Option<f64> {
        m.bytes_per_iter
            .map(|b| b as f64 / m.ns_per_iter * 1e9 / (1u64 << 30) as f64)
    }

    fn render_markdown(
        measurements: &[Measurement],
        rows: &[CompareRow],
        tolerance_pct: f64,
        engine: &str,
    ) -> String {
        let mut out = format!(
            "### repro bench (perf smoke)\n\nengine: {engine}\n\n\
             | bench | ns/iter | throughput |\n|---|---:|---:|\n",
        );
        for m in measurements {
            let thrpt = gib_per_sec(m)
                .map(|g| format!("{g:.3} GiB/s"))
                .unwrap_or_else(|| "—".to_string());
            out.push_str(&format!(
                "| {} | {:.0} | {} |\n",
                m.name, m.ns_per_iter, thrpt
            ));
        }
        if !rows.is_empty() {
            out.push_str(&format!(
                "\n#### vs committed trajectory (tolerance {tolerance_pct:.0}%)\n\n\
                 | bench | committed ns | measured ns | Δ | status |\n|---|---:|---:|---:|---|\n"
            ));
            for row in rows {
                out.push_str(&format!(
                    "| {} | {:.0} | {:.0} | {:+.1}% | {} |\n",
                    row.name,
                    row.committed_ns,
                    row.measured_ns,
                    row.delta_pct,
                    if row.regressed { "REGRESSED" } else { "ok" }
                ));
            }
        }
        out
    }

    fn to_json(measurements: &[Measurement], rows: &[CompareRow], engine: &str) -> serde::Value {
        let benches: Vec<serde::Value> = measurements
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("bench".to_string(), serde::Value::Str(m.name.to_string())),
                    (
                        "ns_per_iter".to_string(),
                        serde::Value::Float(m.ns_per_iter),
                    ),
                ];
                if let Some(bytes) = m.bytes_per_iter {
                    fields.push((
                        "bytes_per_sec".to_string(),
                        serde::Value::Float(bytes as f64 / m.ns_per_iter * 1e9),
                    ));
                }
                serde::Value::Object(fields)
            })
            .collect();
        // The resolved engine rides at the top level; `load_committed` only
        // reads the `benches` array, so older gates stay compatible.
        let mut root = vec![
            ("engine".to_string(), serde::Value::Str(engine.to_string())),
            ("benches".to_string(), serde::Value::Array(benches)),
        ];
        if !rows.is_empty() {
            let compare: Vec<serde::Value> = rows
                .iter()
                .map(|row| {
                    serde::Value::Object(vec![
                        ("bench".to_string(), serde::Value::Str(row.name.clone())),
                        (
                            "committed_ns".to_string(),
                            serde::Value::Float(row.committed_ns),
                        ),
                        (
                            "measured_ns".to_string(),
                            serde::Value::Float(row.measured_ns),
                        ),
                        ("delta_pct".to_string(), serde::Value::Float(row.delta_pct)),
                        ("regressed".to_string(), serde::Value::Bool(row.regressed)),
                    ])
                })
                .collect();
            root.push(("compare".to_string(), serde::Value::Array(compare)));
        }
        serde::Value::Object(root)
    }

    pub fn run(args: &[String]) -> CliResult<()> {
        let flags = FLAGS.parse(args, USAGE)?;
        flags.at_most(0)?;
        let json = flags.switch("--json");
        let save_json = flags.value("--save-json");
        let mut compare_path = flags.value("--compare").map(str::to_string);
        // `delta_pct > NaN` is always false, so NaN (or a negative value)
        // would switch the gate off instead of tightening it.
        let tolerance_pct = match flags.parse::<f64>("--tolerance", "a number")? {
            Some(t) if !(t.is_finite() && t >= 0.0) => {
                return flags.usage_error(format!(
                    "--tolerance must be a finite, non-negative percentage, got {t}"
                ))
            }
            t => t.unwrap_or(DEFAULT_TOLERANCE_PCT),
        };

        // Validate an RC4_ACCEL_FORCE override up front, so a typo or an
        // engine this CPU lacks fails with a clean usage error listing the
        // choices instead of a panic mid-run.
        if let Some(tier) = rc4_accel::Engine::from_env().or_else(fail)? {
            AutoBatch::with_engine(tier)
                .or_else(|e| fail(format!("{}: {e}", rc4_accel::FORCE_ENV)))?;
        }

        if compare_path.as_deref() == Some("latest") {
            let resolved = resolve_latest_bench_file()?;
            eprintln!("repro: --compare latest resolved to {resolved}");
            compare_path = Some(resolved);
        }
        let committed = match &compare_path {
            Some(path) => load_committed(path)?,
            None => Vec::new(),
        };
        let engine_label = AutoBatch::new().engine_name();
        eprintln!(
            "repro: bench smoke run ({engine_label} engine){}",
            compare_path
                .as_deref()
                .map(|p| format!(", gating against {p}"))
                .unwrap_or_default()
        );
        let measurements = measure_all();
        let rows = compare(&measurements, &committed, tolerance_pct);

        let json_report =
            serde_json::to_string_pretty(&to_json(&measurements, &rows, engine_label))
                .expect("bench report serializes");
        if let Some(path) = save_json {
            std::fs::write(path, format!("{json_report}\n"))
                .or_else(|e| runtime(format!("cannot write {path}: {e}")))?;
        }
        if json {
            outln!("{json_report}");
        } else {
            outln!(
                "{}",
                render_markdown(&measurements, &rows, tolerance_pct, engine_label)
            );
        }

        let regressions: Vec<&CompareRow> = rows.iter().filter(|r| r.regressed).collect();
        if !regressions.is_empty() {
            return Err((
                format!(
                    "perf regression gate failed: {} bench(es) more than {tolerance_pct:.0}% \
                     slower than the committed trajectory ({})",
                    regressions.len(),
                    regressions
                        .iter()
                        .map(|r| format!("{} {:+.1}%", r.name, r.delta_pct))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
                1,
            ));
        }
        if compare_path.is_some() {
            eprintln!(
                "repro: perf gate passed ({} bench(es) within {tolerance_pct:.0}%)",
                rows.len()
            );
        }
        Ok(())
    }
}

/// The `repro trace` subcommand family: offline aggregation of span traces
/// written by `repro run --trace FILE`.
mod trace_cli {
    use bench::{CliResult, FlagTable};

    const USAGE: &str = "usage: repro trace summarize FILE [--json]\n\
         \n\
         aggregates a span-trace JSONL file (written by `repro run --trace FILE`)\n\
         into per-span-name count / total / mean / p95 durations";

    const FLAGS: FlagTable = FlagTable {
        switches: &["--json"],
        valued: &[],
    };

    pub fn run(args: &[String]) -> CliResult<()> {
        let flags = FLAGS.parse(args, USAGE)?;
        let [cmd, file] = flags.positional.as_slice() else {
            return flags.usage_error("'repro trace' needs a subcommand");
        };
        if cmd != "summarize" {
            return flags.usage_error(format!("unknown trace subcommand '{cmd}'"));
        }
        let text = std::fs::read_to_string(file.as_str())
            .map_err(|e| (format!("cannot read {file}: {e}"), 1))?;
        let summary = rc4_obs::summary::summarize_jsonl(&text).map_err(|e| (e, 1))?;
        if flags.switch("--json") {
            outln!(
                "{}",
                serde_json::to_string_pretty(&summary.to_value()).expect("summary serializes")
            );
        } else {
            outln!("{}", summary.render_table());
        }
        Ok(())
    }
}

/// The serving-mode subcommand family: run the resident `reprod` job server
/// (`repro serve`) and talk to it (`submit`, `jobs`, `watch`, `result`,
/// `cancel`, `status`, `shutdown`). All client commands find the server
/// through `--addr`, falling back to the `addr` file the server writes into
/// its state directory.
mod serve_cli {
    use std::path::PathBuf;

    use bench::{fail, parse_u64, runtime, CliResult, FlagTable, Flags};
    use rc4_attacks::experiments::Scale;
    use rc4_serve::{Client, JobSpec, JobStatus, Server, ServerConfig};

    use super::parse_scale;

    const USAGE: &str = "usage: repro serve [--addr HOST:PORT] [--state-dir DIR] [--budget N] \
         [--default-workers W] [--cache-dir DIR] [--no-cache]\n       \
         repro submit NAME [--scale S] [--seed N] [--priority P] [--workers W] [CONN]\n       \
         repro jobs [--json] [CONN]\n       \
         repro watch ID [--from N] [CONN]\n       \
         repro result ID [--telemetry] [CONN]\n       \
         repro cancel ID [CONN]\n       \
         repro status [--json|--metrics] [CONN]\n       \
         repro shutdown [--deadline-ms N] [CONN]\n\
         \n\
         CONN: --addr HOST:PORT | --state-dir DIR (reads DIR/addr; default .reprod)\n\
         status is human-readable by default; --json prints the raw status frame,\n\
         --metrics prints the server's metrics registry snapshot instead.\n\
         result --telemetry adds the job's scheduling timings on stderr; the\n\
         stdout result document stays byte-identical either way.";

    /// One table for the whole family; each command reads the flags it uses.
    const FLAGS: FlagTable = FlagTable {
        switches: &["--json", "--no-cache", "--metrics", "--telemetry"],
        valued: &[
            "--addr",
            "--state-dir",
            "--scale",
            "--seed",
            "--priority",
            "--workers",
            "--from",
            "--deadline-ms",
            "--budget",
            "--default-workers",
            "--cache-dir",
        ],
    };

    fn state_dir(flags: &Flags) -> PathBuf {
        PathBuf::from(flags.value("--state-dir").unwrap_or(".reprod"))
    }

    /// Connects to the server at `--addr`, or at the address its state
    /// directory's `addr` file records.
    fn connect(flags: &Flags) -> CliResult<Client> {
        let addr = match flags.value("--addr") {
            Some(addr) => addr.to_string(),
            None => {
                let path = state_dir(flags).join("addr");
                match std::fs::read_to_string(&path) {
                    Ok(text) => text.trim().to_string(),
                    Err(e) => {
                        return fail(format!(
                            "cannot read server address from {} ({e}); is a server running? \
                             start one with `repro serve` or point at it with --addr",
                            path.display()
                        ))
                    }
                }
            }
        };
        Client::connect(&addr).or_else(runtime)
    }

    fn job_id(flags: &Flags, cmd: &str) -> CliResult<u64> {
        match flags.positional.as_slice() {
            [one] => parse_u64(one).or_else(|msg| fail(format!("job ID: {msg}"))),
            _ => flags.usage_error(format!("'repro {cmd}' needs exactly one job ID")),
        }
    }

    pub fn run(cmd: &str, args: &[String]) -> CliResult<()> {
        let flags = FLAGS.parse(args, USAGE)?;
        match cmd {
            "serve" => serve(&flags),
            "submit" => submit(&flags),
            "jobs" => jobs(&flags),
            "watch" => watch(&flags),
            "result" => result(&flags),
            "cancel" => cancel(&flags),
            "status" => status(&flags),
            "shutdown" => shutdown(&flags),
            _ => unreachable!("dispatch guards the command list"),
        }
    }

    fn serve(flags: &Flags) -> CliResult<()> {
        if !flags.positional.is_empty() {
            return flags.usage_error("'repro serve' takes no positionals");
        }
        let state_dir = state_dir(flags);
        let cache_dir = if flags.switch("--no-cache") {
            None
        } else {
            Some(
                flags
                    .value("--cache-dir")
                    .map_or_else(|| state_dir.join("cache"), PathBuf::from),
            )
        };
        let budget = match flags.at_least("--budget", 1)? {
            Some(n) => n,
            None => std::thread::available_parallelism().map_or(4, usize::from),
        };
        let config = ServerConfig {
            addr: flags.value("--addr").unwrap_or("127.0.0.1:0").to_string(),
            state_dir: state_dir.clone(),
            budget,
            default_workers: flags.at_least("--default-workers", 1)?.unwrap_or(1),
            cache_dir,
        };
        let server = Server::bind(config).or_else(runtime)?;
        eprintln!(
            "reprod: listening on {} (state {}, budget {budget})",
            server.local_addr(),
            state_dir.display(),
        );
        server.run().or_else(runtime)
    }

    fn submit(flags: &Flags) -> CliResult<()> {
        let [name] = flags.positional.as_slice() else {
            return flags.usage_error("'repro submit' needs exactly one experiment name");
        };
        let scale = flags
            .value("--scale")
            .map_or(Ok(Scale::Quick), parse_scale)?;
        let seed = flags.u64("--seed")?.unwrap_or(0);
        let spec = JobSpec {
            name: name.clone(),
            scale: scale.name().to_string(),
            seed,
            priority: flags.parse("--priority", "an integer")?.unwrap_or(0),
            workers: flags.u64("--workers")?.unwrap_or(0),
        };
        let id = connect(flags)?.submit(spec).or_else(runtime)?;
        eprintln!(
            "repro: submitted job {id} ({name}, scale {}, seed {seed})",
            scale.name()
        );
        // Bare ID on stdout so scripts can `id=$(repro submit ...)`.
        outln!("{id}");
        Ok(())
    }

    fn jobs(flags: &Flags) -> CliResult<()> {
        let records = connect(flags)?.jobs().or_else(runtime)?;
        if flags.switch("--json") {
            outln!(
                "{}",
                serde_json::to_string_pretty(&serde::Value::Array(records))
                    .expect("jobs serialize")
            );
            return Ok(());
        }
        for record in &records {
            let field = |name: &str| match record.field(name) {
                Ok(serde::Value::Str(s)) => s.clone(),
                Ok(serde::Value::UInt(n)) => n.to_string(),
                Ok(serde::Value::Int(n)) => n.to_string(),
                _ => "-".to_string(),
            };
            outln!(
                "{:>4}  {:10}  {:18}  scale {:8}  seed {:6}  workers {}",
                field("id"),
                field("status"),
                field("name"),
                field("scale"),
                field("seed"),
                field("workers"),
            );
        }
        Ok(())
    }

    fn watch(flags: &Flags) -> CliResult<()> {
        let id = job_id(flags, "watch")?;
        let from = flags.u64("--from")?.unwrap_or(0);
        let (status, dropped) = connect(flags)?
            .watch(id, from, |seq, line| outln!("[{seq}] {line}"))
            .or_else(runtime)?;
        if dropped > 0 {
            eprintln!("repro: server failed to persist {dropped} event(s) to its on-disk log");
        }
        outln!("job {id} {}", status.name());
        match status {
            JobStatus::Done => Ok(()),
            other => runtime(format!("job {id} ended {}", other.name())),
        }
    }

    fn result(flags: &Flags) -> CliResult<()> {
        let id = job_id(flags, "result")?;
        let mut client = connect(flags)?;
        if flags.switch("--telemetry") {
            let (document, telemetry) = client.result_with_telemetry(id).or_else(runtime)?;
            out!("{document}");
            // Telemetry goes to stderr so `repro result ID --telemetry > out`
            // still captures exactly the byte-identical result document.
            match telemetry {
                Some(t) => eprintln!(
                    "repro: job {id} telemetry: {}",
                    serde_json::to_string(&t).expect("telemetry serializes")
                ),
                None => eprintln!(
                    "repro: job {id} has no recorded telemetry (finished by a previous server run)"
                ),
            }
            return Ok(());
        }
        let document = client.result(id).or_else(runtime)?;
        // The document already carries the one-shot run's trailing newline;
        // print it verbatim to preserve byte identity.
        out!("{document}");
        Ok(())
    }

    fn cancel(flags: &Flags) -> CliResult<()> {
        let id = job_id(flags, "cancel")?;
        let status = connect(flags)?.cancel(id).or_else(runtime)?;
        outln!("job {id} {}", status.name());
        Ok(())
    }

    fn status(flags: &Flags) -> CliResult<()> {
        let mut client = connect(flags)?;
        if flags.switch("--metrics") {
            let metrics = client.metrics().or_else(runtime)?;
            outln!(
                "{}",
                serde_json::to_string_pretty(&metrics).expect("metrics serialize")
            );
            return Ok(());
        }
        let status = client.status().or_else(runtime)?;
        if flags.switch("--json") {
            outln!(
                "{}",
                serde_json::to_string_pretty(&status).expect("status serializes")
            );
            return Ok(());
        }
        outln!("{}", render_status(&status));
        Ok(())
    }

    /// Human rendering of the raw status frame (`--json` prints it verbatim).
    fn render_status(status: &serde::Value) -> String {
        let flag =
            |v: &serde::Value, name: &str| matches!(v.field(name), Ok(serde::Value::Bool(true)));
        let uint = |v: &serde::Value, name: &str| match v.field(name) {
            Ok(serde::Value::UInt(n)) => *n,
            _ => 0,
        };
        let mut out = format!(
            "state    {}\nqueued   {}",
            if flag(status, "draining") {
                "draining"
            } else {
                "accepting"
            },
            uint(status, "queued"),
        );
        if let Ok(serde::Value::Object(counts)) = status.field("jobs") {
            let rendered: Vec<String> = counts
                .iter()
                .map(|(name, v)| {
                    let n = match v {
                        serde::Value::UInt(n) => *n,
                        _ => 0,
                    };
                    format!("{n} {name}")
                })
                .collect();
            out.push_str(&format!("\njobs     {}", rendered.join(", ")));
        }
        if let Ok(budget) = status.field("budget") {
            out.push_str(&format!(
                "\nbudget   {}/{} workers in use, {} job(s) waiting, {} lease(s) granted",
                uint(budget, "in_use"),
                uint(budget, "total"),
                uint(budget, "waiting"),
                uint(budget, "granted"),
            ));
        }
        if let Ok(flights) = status.field("flights") {
            out.push_str(&format!(
                "\nflights  {} in flight, {} begun, {} coalesced wait(s)",
                uint(flights, "in_flight"),
                uint(flights, "begun"),
                uint(flights, "waited"),
            ));
        }
        out
    }

    fn shutdown(flags: &Flags) -> CliResult<()> {
        let deadline_ms = flags.u64("--deadline-ms")?.unwrap_or(10_000);
        let summary = connect(flags)?.shutdown(deadline_ms).or_else(runtime)?;
        outln!(
            "{}",
            serde_json::to_string_pretty(&summary).expect("summary serializes")
        );
        Ok(())
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        // Exit 0 is the --help path: usage belongs on stdout, unprefixed.
        Err((msg, 0)) => {
            outln!("{msg}");
            ExitCode::SUCCESS
        }
        Err((msg, code)) => {
            eprintln!("repro: {msg}");
            ExitCode::from(code)
        }
    }
}
