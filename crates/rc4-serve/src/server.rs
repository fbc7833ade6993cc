//! The resident `reprod` server.
//!
//! One process, four kinds of threads:
//!
//! * the **accept loop** (the caller of [`Server::run`]) hands each TCP
//!   connection to a handler thread;
//! * **handler threads** parse newline-delimited request frames and answer
//!   them; `watch` handlers long-poll the job's event log; the `shutdown`
//!   handler performs the whole graceful drain before replying;
//! * the **scheduler thread** pops the admission queue in priority order,
//!   reserves each job's worker budget from the shared [`rc4_exec::Budget`]
//!   (blocking while the pool is full, so admission order is strict), and
//!   spawns a job thread per grant;
//! * **job threads** build the job's [`ExperimentContext`] — seed, leased
//!   worker budget, per-job cancellation, event sink, shared dataset cache +
//!   single-flight table — run the experiment, persist the result document,
//!   and record the terminal state in the run ledger.
//!
//! Every job transition is persisted to the ledger *before* it becomes
//! visible to clients, so the on-disk account is never behind the wire one.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use rc4_attacks::{
    context::{CancelHandle, EventSink, ExperimentContext, ProgressEvent},
    experiments::Scale,
    registry::Registry,
};
use rc4_exec::Budget;
use rc4_store::DatasetCache;
use serde::Value;

use crate::ledger::{JobRecord, JobStatus, RunLedger};
use crate::protocol::{error_response, ok_response, write_frame, JobSpec, Request};
use crate::queue::JobQueue;
use crate::ServeError;

/// The event file of job `id` under `state_dir`: one `{"seq": n, "line": s}`
/// JSON object per line, appended as the job emits progress. Spilling to disk
/// keeps memory flat however long a job runs and lets `watch` replay a
/// finished job's events even after a server restart.
pub fn events_path(state_dir: &Path, id: u64) -> PathBuf {
    state_dir.join("events").join(format!("job-{id}.jsonl"))
}

/// Reads the persisted events with sequence number `>= from` of one event
/// file. A missing file reads as empty (a job that never emitted anything);
/// malformed lines (torn final write after a crash) are skipped.
pub fn read_events_from(path: &Path, from: u64) -> Vec<(u64, String)> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines()
        .filter_map(|l| {
            let v: Value = serde_json::from_str(l).ok()?;
            let Ok(Value::UInt(seq)) = v.field("seq") else {
                return None;
            };
            let Ok(Value::Str(line)) = v.field("line") else {
                return None;
            };
            (*seq >= from).then(|| (*seq, line.clone()))
        })
        .collect()
}

/// Static configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// State directory: run ledger, result documents, and the `addr` file.
    pub state_dir: PathBuf,
    /// Total worker slots shared by all concurrently running jobs.
    pub budget: usize,
    /// Worker budget of a job that does not request one (`workers: 0`).
    pub default_workers: usize,
    /// Dataset cache directory shared by all jobs (single-flight protected).
    /// `None` disables caching.
    pub cache_dir: Option<PathBuf>,
}

/// The append-only, disk-backed event log of one job plus its terminal
/// latch; `watch` handlers block on it. Events are persisted to the job's
/// [`events_path`] file as they arrive (memory use stays flat for any run
/// length) and survive a server restart for post-hoc `watch` replay.
#[derive(Debug)]
pub struct JobEvents {
    state: Mutex<EventLog>,
    changed: Condvar,
}

#[derive(Debug)]
struct EventLog {
    path: PathBuf,
    /// Events successfully persisted (the next sequence number).
    count: u64,
    /// Events lost to write failures (full disk, revoked permissions).
    dropped: u64,
    terminal: Option<JobStatus>,
}

/// What a `watch` poll yields: fresh `(seq, line)` events, and — once all
/// stored events are delivered — the terminal status with the dropped count.
type EventBatch = (Vec<(u64, String)>, Option<(JobStatus, u64)>);

impl JobEvents {
    /// Creates the log, truncating any stale file under the same path.
    fn create(path: PathBuf) -> Self {
        // An empty file up front means "no events yet" and "no events ever"
        // read identically after a restart.
        let _ = std::fs::write(&path, "");
        JobEvents {
            state: Mutex::new(EventLog {
                path,
                count: 0,
                dropped: 0,
                terminal: None,
            }),
            changed: Condvar::new(),
        }
    }

    fn push(&self, line: String) {
        let mut state = self.state.lock().expect("events lock poisoned");
        if state.terminal.is_some() {
            return;
        }
        let frame = serde_json::to_string(&Value::Object(vec![
            ("seq".into(), Value::UInt(state.count)),
            ("line".into(), Value::Str(line)),
        ]))
        .expect("event record serializes");
        let appended = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(&state.path)
            .and_then(|mut f| write_frame(&mut f, &frame));
        match appended {
            Ok(()) => state.count += 1,
            Err(_) => state.dropped += 1,
        }
        drop(state);
        self.changed.notify_all();
    }

    fn finish(&self, status: JobStatus) {
        let mut state = self.state.lock().expect("events lock poisoned");
        if state.terminal.is_none() {
            state.terminal = Some(status);
        }
        drop(state);
        self.changed.notify_all();
    }

    /// Blocks until events past `from` exist or the job is terminal; returns
    /// the new events (with their sequence numbers, re-read from the event
    /// file) and, once everything stored has been delivered, the terminal
    /// status + dropped count.
    fn wait_from(&self, from: u64) -> EventBatch {
        let mut state = self.state.lock().expect("events lock poisoned");
        loop {
            if state.count > from {
                // Writers serialize on the same lock, so the file holds
                // exactly `count` complete records here.
                let fresh = read_events_from(&state.path, from);
                if !fresh.is_empty() {
                    return (fresh, None);
                }
            }
            if let Some(status) = state.terminal {
                return (Vec::new(), Some((status, state.dropped)));
            }
            state = self.changed.wait(state).expect("events lock poisoned");
        }
    }
}

/// Forwards a job's context events into its [`JobEvents`] log, rendered.
struct JobSink {
    events: Arc<JobEvents>,
}

impl EventSink for JobSink {
    fn on_event(&self, event: &ProgressEvent<'_>) {
        self.events.push(event.render());
    }
}

/// A live (this-incarnation) job: its cancellation handle, event log, and
/// per-job telemetry.
struct JobHandle {
    cancel: CancelHandle,
    events: Arc<JobEvents>,
    /// When the job was admitted; queue wait is measured against this.
    submitted_at: Instant,
    /// Scheduling/runtime telemetry recorded when the job finishes; exposed
    /// through `result` with `telemetry: true`. Never part of the result
    /// document itself (which stays byte-identical to the one-shot CLI).
    telemetry: Mutex<Option<Value>>,
}

struct Shared {
    config: ServerConfig,
    addr: SocketAddr,
    queue: JobQueue,
    budget: Arc<Budget>,
    cache: Option<Arc<DatasetCache>>,
    ledger: Mutex<RunLedger>,
    jobs: Mutex<HashMap<u64, Arc<JobHandle>>>,
    /// Counter + condvar pair: bumped on every ledger transition so drain
    /// can wait for "all jobs terminal" without polling.
    transitions: Mutex<u64>,
    transitioned: Condvar,
    stop: AtomicBool,
}

impl Shared {
    /// Applies `mutate` to job `id`'s ledger record, persists, and wakes
    /// transition waiters. Returns the updated record.
    fn transition(
        &self,
        id: u64,
        mutate: impl FnOnce(&mut JobRecord),
    ) -> Result<JobRecord, ServeError> {
        let updated = {
            let mut ledger = self.ledger.lock().expect("ledger lock poisoned");
            let mut record = ledger
                .get(id)
                .cloned()
                .ok_or_else(|| ServeError::Protocol(format!("no job {id}")))?;
            mutate(&mut record);
            ledger.update(record.clone())?;
            record
        };
        if updated.status.is_terminal() {
            if let Some(handle) = self.jobs.lock().expect("jobs lock poisoned").get(&id) {
                handle.events.finish(updated.status);
            }
        }
        let mut count = self.transitions.lock().expect("transition lock poisoned");
        *count += 1;
        drop(count);
        self.transitioned.notify_all();
        Ok(updated)
    }

    fn record(&self, id: u64) -> Option<JobRecord> {
        self.ledger
            .lock()
            .expect("ledger lock poisoned")
            .get(id)
            .cloned()
    }

    fn all_terminal(&self) -> bool {
        self.ledger
            .lock()
            .expect("ledger lock poisoned")
            .jobs()
            .iter()
            .all(|j| j.status.is_terminal())
    }

    fn status_counts(&self) -> Vec<(JobStatus, u64)> {
        let ledger = self.ledger.lock().expect("ledger lock poisoned");
        [
            JobStatus::Queued,
            JobStatus::Running,
            JobStatus::Done,
            JobStatus::Failed,
            JobStatus::Cancelled,
        ]
        .into_iter()
        .map(|s| {
            (
                s,
                ledger.jobs().iter().filter(|j| j.status == s).count() as u64,
            )
        })
        .collect()
    }
}

/// The resident job server. [`Server::bind`] then [`Server::run`].
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listen socket, prepares the state directory (ledger,
    /// results, `addr` file) and the shared cache, and cancels any
    /// non-terminal ledger records orphaned by a previous incarnation.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] for socket/directory failures,
    /// [`ServeError::Protocol`] for a corrupt ledger.
    pub fn bind(config: ServerConfig) -> Result<Self, ServeError> {
        std::fs::create_dir_all(&config.state_dir).map_err(|e| {
            ServeError::Io(format!(
                "cannot create state dir {}: {e}",
                config.state_dir.display()
            ))
        })?;
        std::fs::create_dir_all(config.state_dir.join("results"))
            .map_err(|e| ServeError::Io(format!("cannot create results dir: {e}")))?;
        std::fs::create_dir_all(config.state_dir.join("events"))
            .map_err(|e| ServeError::Io(format!("cannot create events dir: {e}")))?;
        // The server is a resident process whose whole point is shared
        // observation; metrics are on for its lifetime (tracing stays
        // opt-in via `--trace`). Registry updates are atomic counter writes,
        // so experiment results are unaffected.
        rc4_obs::metrics::enable();
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| ServeError::Io(format!("cannot bind {}: {e}", config.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ServeError::Io(format!("cannot read bound address: {e}")))?;
        // The addr file lets clients (and CI scripts) find an ephemeral port.
        std::fs::write(config.state_dir.join("addr"), format!("{addr}\n"))
            .map_err(|e| ServeError::Io(format!("cannot write addr file: {e}")))?;

        let mut ledger = RunLedger::open(config.state_dir.join("ledger.json"))?;
        // A previous incarnation that died mid-job leaves queued/running
        // records behind; report them as cancelled rather than pretending
        // they are still alive somewhere.
        let orphans: Vec<JobRecord> = ledger
            .jobs()
            .iter()
            .filter(|j| !j.status.is_terminal())
            .cloned()
            .collect();
        for mut record in orphans {
            record.status = JobStatus::Cancelled;
            record.error = Some("orphaned by server restart".to_string());
            ledger.update(record)?;
        }

        let cache = match &config.cache_dir {
            Some(dir) => Some(Arc::new(DatasetCache::open(dir).map_err(|e| {
                ServeError::Io(format!("cannot open cache dir {}: {e}", dir.display()))
            })?)),
            None => None,
        };
        let budget = Arc::new(Budget::new(config.budget));
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                addr,
                queue: JobQueue::new(),
                budget,
                cache,
                ledger: Mutex::new(ledger),
                jobs: Mutex::new(HashMap::new()),
                transitions: Mutex::new(0),
                transitioned: Condvar::new(),
                stop: AtomicBool::new(false),
                config,
            }),
        })
    }

    /// The bound listen address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Serves until a `shutdown` request completes its drain. Blocks the
    /// calling thread for the server's whole lifetime.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the accept loop fails irrecoverably.
    pub fn run(self) -> Result<(), ServeError> {
        let scheduler = {
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || scheduler_loop(&shared))
        };
        for stream in self.listener.incoming() {
            if self.shared.stop.load(Ordering::SeqCst) {
                break;
            }
            match stream {
                Ok(stream) => {
                    // A watch answers with several frames back to back; with
                    // Nagle on, each one after the first waits for the
                    // client's delayed ACK (see the protocol's "Transport"
                    // docs).
                    if let Err(e) = stream.set_nodelay(true) {
                        eprintln!("reprod: cannot set TCP_NODELAY: {e}");
                        continue;
                    }
                    let shared = Arc::clone(&self.shared);
                    std::thread::spawn(move || handle_connection(&shared, stream));
                }
                Err(e) => {
                    // A single failed accept (e.g. the peer vanished between
                    // SYN and accept) must not kill the server.
                    eprintln!("reprod: accept failed: {e}");
                }
            }
        }
        scheduler
            .join()
            .map_err(|_| ServeError::Io("scheduler thread panicked".to_string()))?;
        Ok(())
    }
}

/// The scheduler: strict admission order (priority, then submission), one
/// budget reservation per job, one thread per running job.
fn scheduler_loop(shared: &Arc<Shared>) {
    loop {
        // Don't pick a job until at least one slot is free: popping while the
        // pool is full would lock in today's best job and let a higher
        // priority submitted meanwhile be overtaken. The scheduler is the
        // budget's only acquirer, so probe-then-release cannot race.
        drop(shared.budget.acquire(1));
        let Some(id) = shared.queue.pop_next() else {
            return;
        };
        let Some(record) = shared.record(id) else {
            continue;
        };
        if record.status.is_terminal() {
            // Cancelled while queued (the cancel handler already recorded it).
            continue;
        }
        let budget_wait = Instant::now();
        let lease = shared.budget.acquire(record.workers as usize);
        let budget_wait_us = budget_wait.elapsed().as_micros() as u64;
        rc4_obs::metrics::observe_us("serve.budget_wait_us", budget_wait_us);
        if shared.queue.is_draining() {
            // Drain started while this job waited for capacity: never start
            // new work past the drain point.
            let _ = shared.transition(id, |r| {
                r.status = JobStatus::Cancelled;
                r.error = Some("cancelled by drain before start".to_string());
            });
            continue;
        }
        let shared = Arc::clone(shared);
        std::thread::spawn(move || {
            run_job(&shared, id, lease.workers(), budget_wait_us);
            drop(lease);
        });
    }
}

/// Executes one job under its leased worker budget and records the outcome.
fn run_job(shared: &Arc<Shared>, id: u64, workers: usize, budget_wait_us: u64) {
    let Some(record) = shared.record(id) else {
        return;
    };
    let handle = shared
        .jobs
        .lock()
        .expect("jobs lock poisoned")
        .get(&id)
        .cloned();
    let Some(handle) = handle else {
        return;
    };
    if handle.cancel.is_cancelled() {
        let _ = shared.transition(id, |r| r.status = JobStatus::Cancelled);
        return;
    }
    let queue_wait_us = handle.submitted_at.elapsed().as_micros() as u64;
    rc4_obs::metrics::observe_us("serve.queue_wait_us", queue_wait_us);
    let _ = shared.transition(id, |r| r.status = JobStatus::Running);

    let _span = rc4_obs::Span::enter_with(
        "serve.job",
        rc4_obs::kv! {
            "id" => id,
            "name" => &record.name,
        },
    );
    let run_start = Instant::now();
    let outcome = execute_experiment(shared, &record, workers, &handle);
    let run_us = run_start.elapsed().as_micros() as u64;
    rc4_obs::metrics::observe_us("serve.run_us", run_us);
    let status_counter = match &outcome {
        Ok(_) => "serve.jobs.done",
        Err(ServeError::Server(msg)) if msg == "cancelled" => "serve.jobs.cancelled",
        Err(_) => "serve.jobs.failed",
    };
    rc4_obs::metrics::counter_add(status_counter, 1);
    *handle.telemetry.lock().expect("telemetry lock poisoned") = Some(Value::Object(vec![
        ("queue_wait_us".into(), Value::UInt(queue_wait_us)),
        ("budget_wait_us".into(), Value::UInt(budget_wait_us)),
        ("run_us".into(), Value::UInt(run_us)),
        ("workers".into(), Value::UInt(workers as u64)),
    ]));
    let _ = match outcome {
        Ok(result_path) => shared.transition(id, |r| {
            r.status = JobStatus::Done;
            r.result_path = Some(result_path.clone());
        }),
        Err(ServeError::Server(msg)) if msg == "cancelled" => {
            shared.transition(id, |r| r.status = JobStatus::Cancelled)
        }
        Err(e) => shared.transition(id, |r| {
            r.status = JobStatus::Failed;
            r.error = Some(e.to_string());
        }),
    };
}

/// Runs the experiment of `record` and persists its result document; the
/// document holds exactly the bytes `repro run <name> --json` would print.
fn execute_experiment(
    shared: &Arc<Shared>,
    record: &JobRecord,
    workers: usize,
    handle: &JobHandle,
) -> Result<String, ServeError> {
    let registry = Registry::with_defaults();
    let mut experiment = registry
        .create(&record.name)
        .map_err(|e| ServeError::Server(e.to_string()))?;
    let scale = Scale::parse(&record.scale)
        .ok_or_else(|| ServeError::Server(format!("unknown scale `{}`", record.scale)))?;
    experiment.apply_scale(scale);

    let mut ctx = ExperimentContext::new()
        .with_seed(record.seed)
        .with_workers(workers)
        .with_cancel(handle.cancel.clone())
        .with_sink(Arc::new(JobSink {
            events: Arc::clone(&handle.events),
        }));
    if let Some(cache) = &shared.cache {
        ctx = ctx.with_cache(Arc::clone(cache));
    }

    let report = experiment.run_observed(&ctx).map_err(|e| {
        if e == rc4_attacks::ExperimentError::Cancelled {
            ServeError::Server("cancelled".to_string())
        } else {
            ServeError::Server(e.to_string())
        }
    })?;
    let document = rc4_attacks::report::json_document(&[report]);
    let path = shared
        .config
        .state_dir
        .join("results")
        .join(format!("job-{}.json", record.id));
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, &document)
        .map_err(|e| ServeError::Io(format!("cannot write {}: {e}", tmp.display())))?;
    std::fs::rename(&tmp, &path)
        .map_err(|e| ServeError::Io(format!("cannot rename {}: {e}", tmp.display())))?;
    Ok(path.display().to_string())
}

/// Largest request frame the server reads, newline included. Real frames
/// are a few hundred bytes; the cap bounds the memory a peer that never
/// sends a newline can make a connection hold.
const MAX_FRAME_BYTES: u64 = 1 << 20;

/// One connection: serve request frames until EOF (or the shutdown frame).
fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let Ok(peer_reader) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(peer_reader);
    let mut writer = stream;
    let mut frame = Vec::new();
    loop {
        frame.clear();
        match (&mut reader)
            .take(MAX_FRAME_BYTES)
            .read_until(b'\n', &mut frame)
        {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        if frame.len() as u64 == MAX_FRAME_BYTES && frame.last() != Some(&b'\n') {
            rc4_obs::metrics::counter_add("serve.frames.oversized", 1);
            let message = format!("request frame exceeds {MAX_FRAME_BYTES} bytes");
            send(&mut writer, &error_response(&message));
            return;
        }
        let Ok(line) = std::str::from_utf8(&frame) else {
            return;
        };
        if line.trim().is_empty() {
            continue;
        }
        let shutdown = matches!(Request::parse(line.trim()), Ok(Request::Shutdown { .. }));
        let ok = dispatch(shared, line.trim(), &mut writer);
        if !ok {
            return;
        }
        if shutdown {
            // Drain finished and the response is out: wake the accept loop.
            shared.stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(shared.addr);
            return;
        }
    }
}

/// Parses and answers one frame; `false` ends the connection.
fn dispatch(shared: &Arc<Shared>, line: &str, writer: &mut TcpStream) -> bool {
    let request = match Request::parse(line) {
        Ok(request) => request,
        Err(e) => return send(writer, &error_response(&e.to_string())),
    };
    match request {
        Request::List => {
            let registry = Registry::with_defaults();
            let entries: Vec<Value> = registry
                .entries()
                .iter()
                .map(|e| {
                    Value::Object(vec![
                        ("name".into(), Value::Str(e.name().into())),
                        ("summary".into(), Value::Str(e.summary().into())),
                        (
                            "aliases".into(),
                            Value::Array(
                                e.aliases()
                                    .iter()
                                    .map(|a| Value::Str((*a).into()))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect();
            send(
                writer,
                &ok_response(vec![("experiments".into(), Value::Array(entries))]),
            )
        }
        Request::Submit(spec) => match submit(shared, &spec) {
            Ok(record) => send(
                writer,
                &ok_response(vec![
                    ("id".into(), Value::UInt(record.id)),
                    ("name".into(), Value::Str(record.name)),
                    ("workers".into(), Value::UInt(record.workers)),
                ]),
            ),
            Err(e) => send(writer, &error_response(&e.to_string())),
        },
        Request::Jobs => {
            let records: Vec<Value> = shared
                .ledger
                .lock()
                .expect("ledger lock poisoned")
                .jobs()
                .iter()
                .map(JobRecord::to_wire)
                .collect();
            send(
                writer,
                &ok_response(vec![("jobs".into(), Value::Array(records))]),
            )
        }
        Request::Watch { id, from } => watch(shared, id, from, writer),
        Request::Result { id, telemetry } => match job_result(shared, id) {
            Ok((record, document)) => {
                let mut fields = vec![
                    ("id".into(), Value::UInt(id)),
                    ("status".into(), Value::Str(record.status.name().into())),
                    ("result".into(), Value::Str(document)),
                ];
                if telemetry {
                    // Advisory scheduling/runtime numbers, deliberately a
                    // separate field: the `result` document above stays
                    // byte-identical to the one-shot CLI with or without it.
                    // Jobs from a previous incarnation have no live handle,
                    // so their telemetry reads as null.
                    let recorded = shared
                        .jobs
                        .lock()
                        .expect("jobs lock poisoned")
                        .get(&id)
                        .and_then(|h| h.telemetry.lock().expect("telemetry lock poisoned").clone());
                    fields.push(("telemetry".into(), recorded.unwrap_or(Value::Null)));
                }
                send(writer, &ok_response(fields))
            }
            Err(e) => send(writer, &error_response(&e.to_string())),
        },
        Request::Metrics => {
            let snapshot = rc4_obs::metrics::snapshot();
            send(
                writer,
                &ok_response(vec![("metrics".into(), snapshot.to_value())]),
            )
        }
        Request::Status => {
            let budget = shared.budget.stats();
            let flights = shared
                .cache
                .as_ref()
                .map(|cache| cache.flight_stats())
                .unwrap_or_default();
            let jobs = Value::Object(
                shared
                    .status_counts()
                    .into_iter()
                    .map(|(s, n)| (s.name().to_string(), Value::UInt(n)))
                    .collect(),
            );
            send(
                writer,
                &ok_response(vec![
                    ("draining".into(), Value::Bool(shared.queue.is_draining())),
                    ("queued".into(), Value::UInt(shared.queue.len() as u64)),
                    ("jobs".into(), jobs),
                    (
                        "budget".into(),
                        Value::Object(vec![
                            ("total".into(), Value::UInt(budget.total as u64)),
                            ("in_use".into(), Value::UInt(budget.in_use as u64)),
                            ("waiting".into(), Value::UInt(budget.waiting as u64)),
                            ("granted".into(), Value::UInt(budget.granted as u64)),
                        ]),
                    ),
                    (
                        "flights".into(),
                        Value::Object(vec![
                            ("in_flight".into(), Value::UInt(flights.in_flight as u64)),
                            ("begun".into(), Value::UInt(flights.begun as u64)),
                            ("waited".into(), Value::UInt(flights.waited as u64)),
                        ]),
                    ),
                ]),
            )
        }
        Request::Cancel { id } => match cancel(shared, id) {
            Ok(status) => send(
                writer,
                &ok_response(vec![
                    ("id".into(), Value::UInt(id)),
                    ("status".into(), Value::Str(status.name().into())),
                ]),
            ),
            Err(e) => send(writer, &error_response(&e.to_string())),
        },
        Request::Shutdown { deadline_ms } => {
            let summary = drain(shared, Duration::from_millis(deadline_ms));
            let counts = shared.status_counts();
            let mut fields = vec![("drained".into(), Value::Bool(true))];
            fields.push(("cancelled_running".into(), Value::UInt(summary)));
            fields.extend(
                counts
                    .into_iter()
                    .map(|(s, n)| (s.name().to_string(), Value::UInt(n))),
            );
            fields.push((
                "ledger".into(),
                Value::Str(
                    shared
                        .ledger
                        .lock()
                        .expect("ledger lock poisoned")
                        .path()
                        .display()
                        .to_string(),
                ),
            ));
            send(writer, &ok_response(fields))
        }
    }
}

/// Admission: validate against the registry and scales, assign an ID,
/// persist the queued record, enqueue.
fn submit(shared: &Arc<Shared>, spec: &JobSpec) -> Result<JobRecord, ServeError> {
    if shared.queue.is_draining() {
        return Err(ServeError::Server(
            "server is draining; not admitting jobs".to_string(),
        ));
    }
    let registry = Registry::with_defaults();
    let entry = registry.find(&spec.name).ok_or_else(|| {
        ServeError::Server(format!(
            "unknown experiment '{}'; registered: {}",
            spec.name,
            registry.names().join(", ")
        ))
    })?;
    if Scale::parse(&spec.scale).is_none() {
        return Err(ServeError::Server(format!(
            "unknown scale '{}' (quick | laptop | extended)",
            spec.scale
        )));
    }
    let workers = if spec.workers == 0 {
        shared.config.default_workers as u64
    } else {
        spec.workers.min(shared.budget.total() as u64)
    };
    let record = {
        let mut ledger = shared.ledger.lock().expect("ledger lock poisoned");
        let record = JobRecord {
            id: ledger.next_id(),
            name: entry.name().to_string(),
            scale: spec.scale.clone(),
            seed: spec.seed,
            priority: spec.priority,
            workers,
            status: JobStatus::Queued,
            result_path: None,
            error: None,
        };
        ledger.append(record.clone())?;
        record
    };
    rc4_obs::metrics::counter_add("serve.jobs.submitted", 1);
    shared.jobs.lock().expect("jobs lock poisoned").insert(
        record.id,
        Arc::new(JobHandle {
            cancel: CancelHandle::new(),
            events: Arc::new(JobEvents::create(events_path(
                &shared.config.state_dir,
                record.id,
            ))),
            submitted_at: Instant::now(),
            telemetry: Mutex::new(None),
        }),
    );
    if !shared.queue.push(record.id, record.priority) {
        // Drain raced the admission check; record the refusal honestly.
        let _ = shared.transition(record.id, |r| {
            r.status = JobStatus::Cancelled;
            r.error = Some("cancelled by drain at admission".to_string());
        });
        return Err(ServeError::Server(
            "server is draining; not admitting jobs".to_string(),
        ));
    }
    Ok(record)
}

/// Cancels a queued or running job; terminal jobs are left as they are.
fn cancel(shared: &Arc<Shared>, id: u64) -> Result<JobStatus, ServeError> {
    rc4_obs::metrics::counter_add("serve.cancel.requests", 1);
    let record = shared
        .record(id)
        .ok_or_else(|| ServeError::Server(format!("no job {id}")))?;
    if record.status.is_terminal() {
        return Ok(record.status);
    }
    let handle = shared
        .jobs
        .lock()
        .expect("jobs lock poisoned")
        .get(&id)
        .cloned();
    if let Some(handle) = &handle {
        // Raise the flag first: a running job stops at its next checkpoint,
        // and a queued one that slips past the dequeue below exits at its
        // first.
        handle.cancel.cancel();
    }
    if shared.queue.remove(id) {
        let updated = shared.transition(id, |r| r.status = JobStatus::Cancelled)?;
        return Ok(updated.status);
    }
    Ok(shared.record(id).map_or(record.status, |r| r.status))
}

/// Streams a job's progress events from `from` until it is terminal.
fn watch(shared: &Arc<Shared>, id: u64, from: u64, writer: &mut TcpStream) -> bool {
    let Some(record) = shared.record(id) else {
        return send(writer, &error_response(&format!("no job {id}")));
    };
    let handle = shared
        .jobs
        .lock()
        .expect("jobs lock poisoned")
        .get(&id)
        .cloned();
    if !send(
        writer,
        &ok_response(vec![("watching".into(), Value::UInt(id))]),
    ) {
        return false;
    }
    let Some(handle) = handle else {
        // Ledger-only job from a previous incarnation: replay its persisted
        // event file (if any survives), then report the known terminal state.
        for (seq, line) in read_events_from(&events_path(&shared.config.state_dir, id), from) {
            if !send(writer, &progress_frame(seq, line)) {
                return false;
            }
        }
        return send_end(writer, record.status, 0);
    };
    let mut next = from;
    loop {
        let (fresh, terminal) = handle.events.wait_from(next);
        for (seq, line) in fresh {
            if !send(writer, &progress_frame(seq, line)) {
                return false;
            }
            next = seq + 1;
        }
        if let Some((status, dropped)) = terminal {
            return send_end(writer, status, dropped);
        }
    }
}

fn progress_frame(seq: u64, line: String) -> String {
    serde_json::to_string(&Value::Object(vec![
        ("event".into(), Value::Str("progress".into())),
        ("seq".into(), Value::UInt(seq)),
        ("line".into(), Value::Str(line)),
    ]))
    .expect("event frame serializes")
}

fn send_end(writer: &mut TcpStream, status: JobStatus, dropped: u64) -> bool {
    let frame = serde_json::to_string(&Value::Object(vec![
        ("event".into(), Value::Str("end".into())),
        ("status".into(), Value::Str(status.name().into())),
        ("dropped".into(), Value::UInt(dropped)),
    ]))
    .expect("end frame serializes");
    send(writer, &frame)
}

/// Fetches a finished job's record and result document.
fn job_result(shared: &Arc<Shared>, id: u64) -> Result<(JobRecord, String), ServeError> {
    let record = shared
        .record(id)
        .ok_or_else(|| ServeError::Server(format!("no job {id}")))?;
    match record.status {
        JobStatus::Done => {
            let path = record.result_path.clone().ok_or_else(|| {
                ServeError::Server(format!("job {id} is done but has no result path"))
            })?;
            let document = std::fs::read_to_string(&path)
                .map_err(|e| ServeError::Io(format!("cannot read result {path}: {e}")))?;
            Ok((record, document))
        }
        JobStatus::Failed => Err(ServeError::Server(format!(
            "job {id} failed: {}",
            record.error.as_deref().unwrap_or("unknown error")
        ))),
        JobStatus::Cancelled => Err(ServeError::Server(format!("job {id} was cancelled"))),
        JobStatus::Queued | JobStatus::Running => Err(ServeError::Server(format!(
            "job {id} is {}; watch it or try again later",
            record.status.name()
        ))),
    }
}

/// Graceful drain: refuse admissions, cancel queued jobs, give running jobs
/// `deadline` to finish, cancel stragglers, wait for every record to reach a
/// terminal state. Returns how many running jobs had to be cancelled.
fn drain(shared: &Arc<Shared>, deadline: Duration) -> u64 {
    rc4_obs::metrics::counter_add("serve.drains", 1);
    for id in shared.queue.drain() {
        let _ = shared.transition(id, |r| {
            r.status = JobStatus::Cancelled;
            r.error = Some("cancelled by drain".to_string());
        });
    }
    let start = Instant::now();
    while !shared.all_terminal() && start.elapsed() < deadline {
        let remaining = deadline.saturating_sub(start.elapsed());
        let guard = shared.transitions.lock().expect("transition lock poisoned");
        let _ = shared
            .transitioned
            .wait_timeout(guard, remaining.min(Duration::from_millis(100)))
            .expect("transition lock poisoned");
    }
    // Past the deadline: cancel whatever is still alive, then wait for the
    // (prompt, per-batch-polled) cooperative cancellation to land.
    let mut cancelled = 0u64;
    if !shared.all_terminal() {
        let live: Vec<u64> = shared
            .ledger
            .lock()
            .expect("ledger lock poisoned")
            .jobs()
            .iter()
            .filter(|j| !j.status.is_terminal())
            .map(|j| j.id)
            .collect();
        for id in live {
            if let Some(handle) = shared.jobs.lock().expect("jobs lock poisoned").get(&id) {
                handle.cancel.cancel();
                cancelled += 1;
            }
        }
        while !shared.all_terminal() {
            let guard = shared.transitions.lock().expect("transition lock poisoned");
            let _ = shared
                .transitioned
                .wait_timeout(guard, Duration::from_millis(100))
                .expect("transition lock poisoned");
        }
    }
    cancelled
}

/// Writes one frame line; `false` when the peer is gone.
fn send(writer: &mut TcpStream, frame: &str) -> bool {
    write_frame(writer, frame).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_log_appends_one_complete_record_per_line() {
        let dir = std::env::temp_dir().join(format!("rc4-serve-events-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("job-0.jsonl");
        let events = JobEvents::create(path.clone());
        let count = 25u64;
        for i in 0..count {
            events.push(format!("event {i} with \"quotes\" and a \\n escape"));
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.ends_with('\n'), "last record is newline-terminated");
        let seqs: Vec<u64> = text
            .lines()
            .map(|line| {
                let record: Value = serde_json::from_str(line).expect("every line parses");
                match record.field("seq") {
                    Ok(Value::UInt(seq)) => *seq,
                    other => panic!("record without seq: {other:?}"),
                }
            })
            .collect();
        assert_eq!(seqs, (0..count).collect::<Vec<_>>());
        assert_eq!(read_events_from(&path, 0).len() as u64, count);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
