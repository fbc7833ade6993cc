//! The enabled path, end to end in one process: metrics register and
//! snapshot correctly, spans nest across threads and round-trip through the
//! JSONL writer into `summary::summarize_jsonl`.

use std::io::Write;
use std::sync::{Arc, Mutex};

use rc4_obs::{kv, metrics, summary, trace, Span};
use serde::Value;

/// A `Box<dyn Write + Send>` sink the test can read back.
#[derive(Clone, Default)]
struct SharedSink(Arc<Mutex<Vec<u8>>>);

impl Write for SharedSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn enabled_metrics_and_trace_round_trip() {
    // --- Metrics.
    metrics::enable();
    assert!(metrics::is_enabled());
    metrics::counter_add("exec.tasks", 5);
    metrics::counter_add("exec.tasks", 2);
    metrics::observe_us("exec.map_us", 100);
    metrics::observe_us("exec.map_us", 3_000);
    let snap = metrics::snapshot();
    assert_eq!(snap.counter("exec.tasks"), Some(7));
    let (name, hist) = &snap.histograms[0];
    assert_eq!(name, "exec.map_us");
    assert_eq!(hist.count, 2);
    assert_eq!(hist.sum_us, 3_100);
    assert_eq!(hist.max_us, 3_000);
    assert_eq!(hist.buckets.iter().map(|(_, c)| c).sum::<u64>(), 2);

    // --- Tracing into an in-memory sink.
    let sink = SharedSink::default();
    assert!(trace::init_writer(Box::new(sink.clone())));
    assert!(
        !trace::init_writer(Box::new(sink.clone())),
        "second install must be refused"
    );
    {
        let _outer = Span::enter_with("experiment.run", kv! { "name" => "fig8" });
        {
            let mut inner = Span::enter("store.load_or_generate");
            inner.record("tier", "memory");
        }
        // A span on another thread is a root there, with its own ordinal.
        std::thread::spawn(|| {
            let _worker = Span::enter("exec.worker");
        })
        .join()
        .unwrap();
    }
    trace::flush();

    let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
    let lines: Vec<Value> = text
        .lines()
        .map(|l| serde_json::from_str(l).expect("every trace line is JSON"))
        .collect();
    assert_eq!(lines.len(), 4, "meta + three spans: {text}");
    assert_eq!(lines[0].field("type").unwrap(), &Value::Str("meta".into()));
    assert_eq!(
        lines[0].field("schema").unwrap(),
        &Value::Str(trace::TRACE_SCHEMA.into())
    );

    let span = |name: &str| {
        lines[1..]
            .iter()
            .find(|l| matches!(l.field("name"), Ok(Value::Str(s)) if s == name))
            .unwrap_or_else(|| panic!("span `{name}` missing from {text}"))
    };
    let outer = span("experiment.run");
    let inner = span("store.load_or_generate");
    let worker = span("exec.worker");
    let uint = |v: &Value, f: &str| match v.field(f) {
        Ok(Value::UInt(n)) => *n,
        other => panic!("field {f} not a uint: {other:?}"),
    };
    // Nesting: the inner span's parent is the outer span's ID, one level
    // deeper; the cross-thread span is a root on its own thread ordinal.
    assert_eq!(uint(inner, "parent"), uint(outer, "id"));
    assert_eq!(uint(outer, "depth"), 0);
    assert_eq!(uint(inner, "depth"), 1);
    assert_eq!(uint(worker, "parent"), 0);
    assert_ne!(uint(worker, "thread"), uint(outer, "thread"));
    // The outer span closed last, so it covers the inner one.
    assert!(uint(outer, "dur_us") >= uint(inner, "dur_us"));
    assert_eq!(
        outer.field("kv").unwrap().field("name").unwrap(),
        &Value::Str("fig8".into())
    );
    assert_eq!(
        inner.field("kv").unwrap().field("tier").unwrap(),
        &Value::Str("memory".into())
    );

    // --- The written JSONL feeds straight into the summarizer.
    let summary = summary::summarize_jsonl(&text).expect("trace summarizes");
    assert_eq!(summary.version, Some(trace::TRACE_VERSION));
    assert_eq!(summary.span_lines, 3);
    assert!(summary.spans.iter().any(|s| s.name == "experiment.run"));
}
