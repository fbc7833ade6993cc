//! Hostile-input properties of the server's parsers: a request frame, a
//! response frame and the run ledger file. Whatever bytes arrive, each parser
//! returns a value or a typed [`ServeError`] and never panics; every valid
//! value survives its own wire form unchanged.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use rc4_serve::protocol::{error_response, ok_response, parse_response};
use rc4_serve::{JobRecord, JobSpec, JobStatus, Request, RunLedger, ServeError};
use serde::Value;

/// Keys the protocol and the ledger read, plus one neither knows.
const KEYS: &[&str] = &[
    "cmd",
    "name",
    "scale",
    "seed",
    "priority",
    "workers",
    "id",
    "from",
    "telemetry",
    "deadline_ms",
    "ok",
    "error",
    "version",
    "jobs",
    "status",
    "result_path",
    "unknown",
];

/// Values of every JSON kind: the command and status names, integers at and
/// beyond the `u64`/`i64` limits, and awkward strings.
const VALUES: &[&str] = &[
    "\"list\"",
    "\"submit\"",
    "\"jobs\"",
    "\"watch\"",
    "\"result\"",
    "\"status\"",
    "\"metrics\"",
    "\"cancel\"",
    "\"shutdown\"",
    "\"queued\"",
    "\"done\"",
    "\"nope\"",
    "0",
    "1",
    "-1",
    "1.5",
    "1e400",
    "-9223372036854775809",
    "18446744073709551615",
    "18446744073709551616",
    "true",
    "false",
    "null",
    "[]",
    "{}",
    "[{}]",
    "\"\\u0000\"",
    "\"\\ud800\"",
    "\"\u{00e9}\"",
];

/// A JSON object of picked `(key, value)` members: well-formed, so it
/// reaches the typed field checks behind the JSON parser.
fn object(picks: &[(usize, usize)]) -> String {
    let members: Vec<String> = picks
        .iter()
        .map(|&(k, v)| format!("\"{}\":{}", KEYS[k % KEYS.len()], VALUES[v % VALUES.len()]))
        .collect();
    format!("{{{}}}", members.join(","))
}

/// A string of arbitrary characters, control and non-ASCII ones included.
fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

static CASE: AtomicUsize = AtomicUsize::new(0);

/// A fresh ledger path per case (proptest runs many cases).
fn ledger_path() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rc4-serve-hostile-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("ledger.json")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn request_parse_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        if let Err(e) = Request::parse(&text(&bytes)) {
            prop_assert!(matches!(e, ServeError::Protocol(_)), "{e:?}");
        }
    }

    #[test]
    fn request_parse_never_panics_on_json_objects(
        picks in prop::collection::vec((any::<usize>(), any::<usize>()), 0..8),
    ) {
        if let Err(e) = Request::parse(&object(&picks)) {
            prop_assert!(matches!(e, ServeError::Protocol(_)), "{e:?}");
        }
    }

    #[test]
    fn parse_response_never_panics_on_arbitrary_input(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        picks in prop::collection::vec((any::<usize>(), any::<usize>()), 0..8),
    ) {
        for line in [text(&bytes), object(&picks)] {
            if let Err(e) = parse_response(&line) {
                prop_assert!(
                    matches!(e, ServeError::Protocol(_) | ServeError::Server(_)),
                    "{e:?}"
                );
            }
        }
    }

    #[test]
    fn valid_requests_round_trip(
        name in prop::collection::vec(any::<u8>(), 0..24),
        scale in prop::collection::vec(any::<u8>(), 0..12),
        spec_nums in (any::<u64>(), any::<i64>(), any::<u64>()),
        job_nums in (any::<u64>(), any::<u64>(), any::<bool>()),
    ) {
        let ((seed, priority, workers), (id, from, telemetry)) = (spec_nums, job_nums);
        let spec = JobSpec { name: text(&name), scale: text(&scale), seed, priority, workers };
        let requests = [
            Request::List,
            Request::Submit(spec),
            Request::Jobs,
            Request::Watch { id, from },
            Request::Result { id, telemetry },
            Request::Status,
            Request::Metrics,
            Request::Cancel { id },
            Request::Shutdown { deadline_ms: from },
        ];
        for request in requests {
            let line = request.to_line();
            prop_assert!(!line.contains('\n'), "a frame is one line: {line:?}");
            prop_assert_eq!(Request::parse(&line).unwrap(), request);
        }
    }

    #[test]
    fn valid_responses_round_trip(
        message in prop::collection::vec(any::<u8>(), 0..64),
        n in any::<u64>(),
    ) {
        let message = text(&message);
        let ok = ok_response(vec![
            ("id".to_string(), Value::UInt(n)),
            ("note".to_string(), Value::Str(message.clone())),
        ]);
        let value = parse_response(&ok).unwrap();
        prop_assert_eq!(value.field("id").unwrap(), &Value::UInt(n));
        prop_assert_eq!(value.field("note").unwrap(), &Value::Str(message.clone()));
        match parse_response(&error_response(&message)) {
            Err(ServeError::Server(m)) => prop_assert_eq!(m, message),
            other => prop_assert!(false, "error frame parsed as {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ledger_open_never_panics_on_arbitrary_files(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
        version in 0..2 * VALUES.len(),
        jobs in prop::collection::vec(prop::collection::vec((any::<usize>(), any::<usize>()), 0..10), 1..3),
    ) {
        // Half the files carry the right version, so their records get parsed.
        let version = VALUES.get(version).copied().unwrap_or("1");
        let jobs: Vec<String> = jobs.iter().map(|job| object(job)).collect();
        let shaped = format!("{{\"version\":{version},\"jobs\":[{}]}}", jobs.join(","));
        for contents in [bytes, shaped.into_bytes()] {
            let path = ledger_path();
            std::fs::write(&path, &contents).unwrap();
            if let Err(e) = RunLedger::open(&path) {
                prop_assert!(matches!(e, ServeError::Io(_) | ServeError::Protocol(_)), "{e:?}");
            }
            let _ = std::fs::remove_dir_all(path.parent().unwrap());
        }
    }

    #[test]
    fn ledger_records_round_trip(
        name in prop::collection::vec(any::<u8>(), 0..24),
        error in prop::collection::vec(any::<u8>(), 0..24),
        nums in (any::<u64>(), any::<u64>(), any::<i64>(), any::<u64>()),
        status in 0usize..5,
    ) {
        let (id, seed, priority, workers) = nums;
        let status = [
            JobStatus::Queued,
            JobStatus::Running,
            JobStatus::Done,
            JobStatus::Failed,
            JobStatus::Cancelled,
        ][status];
        let record = JobRecord {
            id,
            name: text(&name),
            scale: "quick".to_string(),
            seed,
            priority,
            workers,
            status,
            result_path: (status == JobStatus::Done).then(|| format!("results/{id}.json")),
            error: (status == JobStatus::Failed).then(|| text(&error)),
        };
        let path = ledger_path();
        let mut ledger = RunLedger::open(&path).unwrap();
        ledger.append(record.clone()).unwrap();
        let reopened = RunLedger::open(&path).unwrap();
        prop_assert_eq!(reopened.jobs(), &[record][..]);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}
