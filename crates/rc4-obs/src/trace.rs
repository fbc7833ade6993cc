//! Span-based structured tracing, flushed as JSONL.
//!
//! # Wire format (`rc4-obs-trace`, version 1)
//!
//! One JSON object per line. The first line is a meta header:
//!
//! ```json
//! {"type":"meta","schema":"rc4-obs-trace","version":1}
//! ```
//!
//! Every completed span is one line, written when its guard drops:
//!
//! ```json
//! {"type":"span","name":"exec.map","id":5,"parent":2,"thread":1,
//!  "depth":1,"start_us":120,"dur_us":480,"kv":{"items":"64"}}
//! ```
//!
//! * `id` — process-unique span ID (1-based); `parent` is the enclosing
//!   span's ID on the same thread, `0` for a root span.
//! * `thread` — a small per-process thread ordinal (assigned on a thread's
//!   first span), *not* an OS thread ID.
//! * `start_us` / `dur_us` — microseconds since the trace epoch / duration.
//! * `kv` — optional string-valued attributes from [`crate::kv!`].
//!
//! **Versioning policy:** additive fields may appear within version 1;
//! consumers must ignore unknown fields and unknown `type` values. Any
//! change to the meaning of an existing field bumps `version`.
//!
//! # Buffering
//!
//! Spans are serialized into a bounded per-thread buffer and appended to
//! the global writer (under its mutex) whenever the buffer fills
//! ([`FLUSH_EVENTS`]), whenever a thread's span stack empties, and when the
//! thread exits — so scoped worker threads never lose events. Call
//! [`flush`] before process exit to push the calling thread's tail and
//! flush the underlying writer.

use std::cell::RefCell;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use serde::Value;

/// Schema identifier carried by the meta header line.
pub const TRACE_SCHEMA: &str = "rc4-obs-trace";
/// Current schema version.
pub const TRACE_VERSION: u64 = 1;
/// Buffered span lines per thread before an append to the shared writer.
pub const FLUSH_EVENTS: usize = 256;

static ENABLED: AtomicBool = AtomicBool::new(false);
static SHARED: OnceLock<TraceShared> = OnceLock::new();

struct TraceShared {
    writer: Mutex<Box<dyn Write + Send>>,
    epoch: Instant,
    next_span_id: AtomicU64,
    next_thread_id: AtomicU64,
}

/// Whether a trace writer is installed; the single branch every disabled
/// [`Span::enter`] pays.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs `path` as the trace output (truncating it) and enables tracing.
///
/// # Errors
///
/// The file-creation error, or `AlreadyExists` when a writer was installed
/// earlier — tracing is enabled once per process.
pub fn init_file(path: &Path) -> io::Result<()> {
    let file = File::create(path)?;
    if init_writer(Box::new(BufWriter::new(file))) {
        Ok(())
    } else {
        Err(io::Error::new(
            io::ErrorKind::AlreadyExists,
            "trace writer already installed",
        ))
    }
}

/// Installs an arbitrary writer (tests use an in-memory sink) and enables
/// tracing; writes the meta header line. Returns `false` when a writer was
/// installed earlier (tracing is enabled once per process).
pub fn init_writer(writer: Box<dyn Write + Send>) -> bool {
    let shared = TraceShared {
        writer: Mutex::new(writer),
        epoch: Instant::now(),
        next_span_id: AtomicU64::new(0),
        next_thread_id: AtomicU64::new(0),
    };
    if SHARED.set(shared).is_err() {
        return false;
    }
    let shared = SHARED.get().expect("just installed");
    {
        let mut writer = shared.writer.lock().expect("trace writer lock poisoned");
        let _ = writeln!(
            writer,
            "{{\"type\":\"meta\",\"schema\":\"{TRACE_SCHEMA}\",\"version\":{TRACE_VERSION}}}"
        );
    }
    ENABLED.store(true, Ordering::SeqCst);
    true
}

/// Flushes the calling thread's buffered spans and the underlying writer.
/// Safe to call at any time; a no-op while tracing is disabled.
pub fn flush() {
    if !is_enabled() {
        return;
    }
    BUF.with(|buf| flush_lines(&mut buf.borrow_mut()));
    if let Some(shared) = SHARED.get() {
        let _ = shared
            .writer
            .lock()
            .expect("trace writer lock poisoned")
            .flush();
    }
}

struct ThreadBuf {
    /// Per-process thread ordinal, assigned on first span.
    thread: Option<u64>,
    /// IDs of the open spans on this thread, innermost last.
    stack: Vec<u64>,
    /// Completed span lines (newline-terminated) awaiting an append.
    lines: String,
    pending: usize,
}

thread_local! {
    static BUF: RefCell<ThreadBuf> = const {
        RefCell::new(ThreadBuf {
            thread: None,
            stack: Vec::new(),
            lines: String::new(),
            pending: 0,
        })
    };
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        flush_lines(self);
    }
}

fn flush_lines(buf: &mut ThreadBuf) {
    if buf.pending == 0 {
        return;
    }
    if let Some(shared) = SHARED.get() {
        let mut writer = shared.writer.lock().expect("trace writer lock poisoned");
        let _ = writer.write_all(buf.lines.as_bytes());
    }
    buf.lines.clear();
    buf.pending = 0;
}

/// An open span: created by [`Span::enter`], recorded when dropped. The
/// disabled form holds `None` and does nothing on drop.
#[must_use = "a span measures the scope it is bound to; dropping it immediately records nothing useful"]
pub struct Span(Option<ActiveSpan>);

struct ActiveSpan {
    name: &'static str,
    id: u64,
    parent: u64,
    thread: u64,
    depth: u64,
    start_us: u64,
    kv: Vec<(&'static str, String)>,
}

impl Span {
    /// Opens a span named `name`; the guard records it when dropped.
    #[inline]
    pub fn enter(name: &'static str) -> Span {
        if !is_enabled() {
            return Span(None);
        }
        Span(Some(ActiveSpan::begin(name, Vec::new())))
    }

    /// Opens a span with lazy key/value attributes (see [`crate::kv!`]);
    /// `kv` is only evaluated when tracing is enabled.
    #[inline]
    pub fn enter_with(
        name: &'static str,
        kv: impl FnOnce() -> Vec<(&'static str, String)>,
    ) -> Span {
        if !is_enabled() {
            return Span(None);
        }
        Span(Some(ActiveSpan::begin(name, kv())))
    }

    /// Adds a key/value attribute known only after the span opened (an
    /// outcome, say); `value` is only converted while tracing is enabled.
    #[inline]
    pub fn record(&mut self, key: &'static str, value: impl ToString) {
        if let Some(active) = &mut self.0 {
            active.kv.push((key, value.to_string()));
        }
    }
}

impl ActiveSpan {
    fn begin(name: &'static str, kv: Vec<(&'static str, String)>) -> ActiveSpan {
        let shared = SHARED.get().expect("tracing enabled without a writer");
        let id = shared.next_span_id.fetch_add(1, Ordering::Relaxed) + 1;
        let (parent, thread, depth) = BUF.with(|buf| {
            let mut buf = buf.borrow_mut();
            let parent = buf.stack.last().copied().unwrap_or(0);
            let thread = *buf
                .thread
                .get_or_insert_with(|| shared.next_thread_id.fetch_add(1, Ordering::Relaxed) + 1);
            let depth = buf.stack.len() as u64;
            buf.stack.push(id);
            (parent, thread, depth)
        });
        ActiveSpan {
            name,
            id,
            parent,
            thread,
            depth,
            start_us: shared.epoch.elapsed().as_micros() as u64,
            kv,
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.0.take() else {
            return;
        };
        let shared = SHARED.get().expect("tracing enabled without a writer");
        let end_us = shared.epoch.elapsed().as_micros() as u64;
        let mut fields = vec![
            ("type".to_string(), Value::Str("span".into())),
            ("name".to_string(), Value::Str(active.name.into())),
            ("id".to_string(), Value::UInt(active.id)),
            ("parent".to_string(), Value::UInt(active.parent)),
            ("thread".to_string(), Value::UInt(active.thread)),
            ("depth".to_string(), Value::UInt(active.depth)),
            ("start_us".to_string(), Value::UInt(active.start_us)),
            (
                "dur_us".to_string(),
                Value::UInt(end_us.saturating_sub(active.start_us)),
            ),
        ];
        if !active.kv.is_empty() {
            fields.push((
                "kv".to_string(),
                Value::Object(
                    active
                        .kv
                        .iter()
                        .map(|(k, v)| ((*k).to_string(), Value::Str(v.clone())))
                        .collect(),
                ),
            ));
        }
        let line = serde_json::to_string(&Value::Object(fields)).expect("span line serializes");
        BUF.with(|buf| {
            let mut buf = buf.borrow_mut();
            // Guards drop strictly LIFO within a thread, so the top of the
            // stack is this span (spans must not be sent across threads).
            debug_assert_eq!(buf.stack.last().copied(), Some(active.id));
            buf.stack.pop();
            buf.lines.push_str(&line);
            buf.lines.push('\n');
            buf.pending += 1;
            if buf.pending >= FLUSH_EVENTS || buf.stack.is_empty() {
                flush_lines(&mut buf);
            }
        });
    }
}
