//! Integration test: the resident `reprod` job server end to end.
//!
//! One in-process server, real TCP clients. Covers the tentpole guarantees:
//!
//! * two concurrent clients submitting the *same* empirical-dataset
//!   experiment share one generation (single-flight) and receive
//!   byte-identical results, themselves byte-identical to the one-shot
//!   `repro run --json` document for the same seed/scale;
//! * worker budgets never leak into results (one job runs with 2 workers,
//!   one with 1);
//! * graceful drain while a third job is still running leaves the ledger
//!   fully terminal, the straggler either done or cancelled;
//! * a restarted server serves completed results from the previous
//!   incarnation out of its persisted ledger.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rc4_attacks::{context::NullSink, experiments::Scale, ExperimentContext, Registry};
use rc4_serve::{Client, JobSpec, JobStatus, Server, ServerConfig};

/// What the one-shot CLI would print for `repro run table2 --scale quick
/// --seed 5 --json`: the pretty-printed single-report array plus the
/// trailing newline of `println!`.
fn one_shot_document(name: &str, seed: u64) -> String {
    let registry = Registry::with_defaults();
    let mut experiment = registry.create(name).expect("experiment exists");
    experiment.apply_scale(Scale::Quick);
    let ctx = ExperimentContext::new()
        .with_seed(seed)
        .with_sink(Arc::new(NullSink));
    let report = experiment.run(&ctx).expect("one-shot run succeeds");
    format!(
        "{}\n",
        serde_json::to_string_pretty(&vec![report]).expect("report serializes")
    )
}

fn temp_state_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rc4-serve-integration-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Submits, watches to completion, and fetches the result document,
/// returning the document plus the job's dataset-cache event lines.
fn run_job_to_done(addr: &str, spec: JobSpec) -> (String, Vec<String>) {
    let mut client = Client::connect(addr).expect("client connects");
    let id = client.submit(spec).expect("submit succeeds");
    let mut cache_lines = Vec::new();
    let (status, dropped) = client
        .watch(id, 0, |_seq, line| {
            if line.contains("dataset cache") {
                cache_lines.push(line.to_string());
            }
        })
        .expect("watch reaches a terminal state");
    assert_eq!(status, JobStatus::Done, "job {id} should finish");
    assert_eq!(dropped, 0, "quick jobs fit the event buffer");
    let document = client.result(id).expect("done job has a result");
    (document, cache_lines)
}

#[test]
fn serve_end_to_end_single_flight_byte_identity_and_drain() {
    let state_dir = temp_state_dir("e2e");
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        state_dir: state_dir.clone(),
        budget: 4,
        default_workers: 1,
        cache_dir: Some(state_dir.join("cache")),
    })
    .expect("server binds");
    let addr = server.local_addr().to_string();
    let server_thread = std::thread::spawn(move || server.run());

    // The addr file lets CLI clients find the ephemeral port.
    let advertised = std::fs::read_to_string(state_dir.join("addr")).expect("addr file exists");
    assert_eq!(advertised.trim(), addr);

    // --- Two concurrent clients, same empirical dataset, different worker
    // budgets. `table2` measures biases from real RC4 keystreams, so both
    // jobs need the identical pair dataset (same seed => same cache key).
    let spec = |workers: u64| JobSpec {
        name: "table2".to_string(),
        scale: "quick".to_string(),
        seed: 5,
        priority: 0,
        workers,
    };
    let (doc_a, (doc_b, lines_b)) = std::thread::scope(|scope| {
        let a = scope.spawn(|| run_job_to_done(&addr, spec(2)));
        let b = scope.spawn(|| run_job_to_done(&addr, spec(1)));
        (a.join().expect("client A").0, b.join().expect("client B"))
    });

    assert_eq!(doc_a, doc_b, "same-spec jobs must be byte-identical");
    let expected = one_shot_document("table2", 5);
    assert_eq!(
        doc_a, expected,
        "server results must be byte-identical to the one-shot CLI document"
    );

    // Exactly one generation across both jobs: one miss+stored pair total,
    // every other cache interaction a hit. (Which job generated depends on
    // scheduling; the union is what single-flight pins down.)
    let mut client = Client::connect(&addr).expect("client connects");
    let status = client.status().expect("status responds");
    let flights = status.field("flights").expect("status carries flights");
    match flights.field("begun").expect("flights.begun") {
        serde::Value::UInt(n) => assert!(*n >= 2, "both jobs entered the flight table"),
        other => panic!("flights.begun should be an integer, got {other:?}"),
    }
    let all_lines: Vec<String> = lines_b; // job A's lines checked via totals below
    let stored_total = all_lines.iter().filter(|l| l.contains("stored")).count();
    let miss_total = all_lines.iter().filter(|l| l.contains("miss")).count();
    let hit_total = all_lines.iter().filter(|l| l.contains("hit")).count();
    // Job B either generated (miss+stored, A hit) or hit A's entry; in both
    // cases it never generated *and* hit the same key.
    assert!(
        (miss_total == 1 && stored_total == 1 && hit_total == 0)
            || (miss_total == 0 && stored_total == 0 && hit_total == 1),
        "job B must either generate once or hit the shared entry, got {all_lines:?}"
    );

    // --- One executor-driven job (fig8 quick maps its trials through
    // rc4-exec) so the metrics snapshot below spans all three instrumented
    // layers, then the `metrics` frame itself.
    let (fig8_doc, _) = run_job_to_done(
        &addr,
        JobSpec {
            name: "fig8".to_string(),
            scale: "quick".to_string(),
            seed: 5,
            priority: 0,
            workers: 1,
        },
    );
    assert!(!fig8_doc.is_empty(), "fig8 job produced no result");

    let metrics = client.metrics().expect("metrics frame responds");
    let counter = |name: &str| -> u64 {
        match metrics
            .field("counters")
            .ok()
            .and_then(|c| c.field(name).ok())
        {
            Some(serde::Value::UInt(n)) => *n,
            other => panic!("counter `{name}` missing or non-integer: {other:?}"),
        }
    };
    // Serving layer: all three jobs so far were admitted and finished.
    assert!(counter("serve.jobs.submitted") >= 3);
    assert!(counter("serve.jobs.done") >= 3);
    // Store layer: both table2 jobs entered the flight table, so exactly
    // one led and the other coalesced onto it.
    assert!(counter("store.singleflight.begun") >= 2);
    assert!(
        counter("store.singleflight.coalesced") >= 1,
        "concurrent same-key jobs must coalesce onto one generation"
    );
    assert!(counter("store.cache.stored") >= 1);
    // Executor layer, populated by the fig8 job.
    assert!(counter("exec.map.calls") >= 1);
    let histograms = metrics.field("histograms").expect("metrics histograms");
    for name in ["serve.queue_wait_us", "serve.run_us", "exec.map_us"] {
        assert!(
            histograms.field(name).is_ok(),
            "histogram `{name}` missing from the metrics frame"
        );
    }

    // --- Result-with-telemetry: same document bytes, plus the scheduling
    // timings recorded for a job this incarnation ran.
    let (doc_tel, telemetry) = client
        .result_with_telemetry(1)
        .expect("telemetry-augmented result responds");
    assert_eq!(
        doc_tel, expected,
        "--telemetry must not change result bytes"
    );
    let telemetry = telemetry.expect("live-incarnation jobs carry telemetry");
    for field in ["queue_wait_us", "budget_wait_us", "run_us", "workers"] {
        assert!(
            matches!(telemetry.field(field), Ok(serde::Value::UInt(_))),
            "telemetry lacks `{field}`: {telemetry:?}"
        );
    }

    // --- Drain during a third running job. fig7-stream runs for tens of
    // seconds at quick scale and polls cancellation per ingest batch, so the
    // short drain deadline forces the cancelled path.
    let third = client
        .submit(JobSpec {
            name: "fig7-stream".to_string(),
            scale: "quick".to_string(),
            seed: 1,
            priority: 0,
            workers: 1,
        })
        .expect("third submit succeeds");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let running = client.jobs().expect("jobs responds").iter().any(|job| {
            matches!(job.field("id"), Ok(serde::Value::UInt(id)) if *id == third)
                && matches!(job.field("status"), Ok(serde::Value::Str(s)) if s == "running")
        });
        if running {
            break;
        }
        assert!(Instant::now() < deadline, "third job never started running");
        std::thread::sleep(Duration::from_millis(20));
    }
    let summary = client.shutdown(100).expect("shutdown drains");
    assert!(
        matches!(summary.field("drained"), Ok(serde::Value::Bool(true))),
        "shutdown must report a completed drain"
    );
    server_thread
        .join()
        .expect("server thread joins")
        .expect("server exits cleanly");

    // Admission refused after the drain started: the listener is gone.
    assert!(
        Client::connect(&addr).is_err() || {
            let mut c = Client::connect(&addr).unwrap();
            c.submit(spec(1)).is_err()
        },
        "a drained server must not admit new jobs"
    );

    // The persisted ledger is valid JSON with every record terminal and the
    // third job done-or-cancelled.
    let ledger_text =
        std::fs::read_to_string(state_dir.join("ledger.json")).expect("ledger persisted");
    let ledger: serde::Value = serde_json::from_str(&ledger_text).expect("ledger parses");
    let serde::Value::Array(jobs) = ledger.field("jobs").expect("ledger has jobs").clone() else {
        panic!("ledger jobs should be an array");
    };
    assert_eq!(jobs.len(), 4, "four jobs were admitted");
    for job in &jobs {
        let Ok(serde::Value::Str(status)) = job.field("status") else {
            panic!("every record carries a status");
        };
        assert!(
            ["done", "failed", "cancelled"].contains(&status.as_str()),
            "post-drain ledger must be fully terminal, got {status}"
        );
    }
    let third_status = jobs
        .iter()
        .find(|j| matches!(j.field("id"), Ok(serde::Value::UInt(id)) if *id == third))
        .and_then(|j| match j.field("status") {
            Ok(serde::Value::Str(s)) => Some(s.clone()),
            _ => None,
        })
        .expect("third job is in the ledger");
    assert!(
        third_status == "cancelled" || third_status == "done",
        "drained running job must be done or cancelled, got {third_status}"
    );

    // --- Restart on the same state directory: completed results survive.
    let restarted = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        state_dir: state_dir.clone(),
        budget: 2,
        default_workers: 1,
        cache_dir: Some(state_dir.join("cache")),
    })
    .expect("server restarts on the same state dir");
    let addr2 = restarted.local_addr().to_string();
    let restarted_thread = std::thread::spawn(move || restarted.run());

    let mut client2 = Client::connect(&addr2).expect("client connects to restarted server");
    let records = client2.jobs().expect("restarted server lists jobs");
    assert_eq!(records.len(), 4, "the ledger history survives restarts");
    let doc_after_restart = client2
        .result(1)
        .expect("completed result served across incarnations");
    assert_eq!(
        doc_after_restart, expected,
        "restart must not change stored result bytes"
    );
    // Telemetry is in-memory per incarnation: the restarted server serves
    // the bytes but reports no timings for jobs it never ran.
    let (doc_tel2, telemetry2) = client2
        .result_with_telemetry(1)
        .expect("telemetry-augmented result responds across incarnations");
    assert_eq!(doc_tel2, expected);
    assert!(
        telemetry2.is_none(),
        "prior-incarnation jobs must report no telemetry, got {telemetry2:?}"
    );
    // Watching a previous-incarnation job replays its persisted event log
    // from disk and then reports the terminal state instead of hanging.
    let mut replayed = Vec::new();
    let (status, _) = client2
        .watch(1, 0, |_seq, line| replayed.push(line.to_string()))
        .expect("watch terminates");
    assert_eq!(status, JobStatus::Done);
    assert!(
        replayed.iter().any(|l| l.contains("dataset cache")),
        "restart watch must replay the on-disk event log, got {replayed:?}"
    );

    client2.shutdown(1_000).expect("restarted server drains");
    restarted_thread
        .join()
        .expect("restarted thread joins")
        .expect("restarted server exits cleanly");
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// Priority ordering: with a budget of 1, a high-priority job submitted
/// later overtakes queued lower-priority work, and cancelling a queued job
/// never runs it.
#[test]
fn serve_priority_order_and_queued_cancel() {
    let state_dir = temp_state_dir("priority");
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        state_dir: state_dir.clone(),
        budget: 1,
        default_workers: 1,
        cache_dir: Some(state_dir.join("cache")),
    })
    .expect("server binds");
    let addr = server.local_addr().to_string();
    let server_thread = std::thread::spawn(move || server.run());

    let mut client = Client::connect(&addr).expect("client connects");
    let submit = |client: &mut Client, seed: u64, priority: i64| {
        client
            .submit(JobSpec {
                name: "table2".to_string(),
                scale: "quick".to_string(),
                seed,
                priority,
                workers: 1,
            })
            .expect("submit succeeds")
    };
    // Occupies the single slot while the rest queue behind it.
    let first = submit(&mut client, 1, 0);
    let low = submit(&mut client, 2, -5);
    let high = submit(&mut client, 3, 5);
    let doomed = submit(&mut client, 4, -5);

    assert_eq!(
        client.cancel(doomed).expect("cancel responds"),
        JobStatus::Cancelled,
        "a queued job cancels immediately"
    );

    // High priority overtakes: the moment `high` completes, `low` cannot
    // have finished yet — with one slot it can only start after `high`.
    let (status, _) = client.watch(high, 0, |_, _| {}).expect("watch terminates");
    assert_eq!(status, JobStatus::Done, "high-priority job should finish");
    let low_done_already = client.jobs().expect("jobs responds").iter().any(|job| {
        matches!(job.field("id"), Ok(serde::Value::UInt(id)) if *id == low)
            && matches!(job.field("status"), Ok(serde::Value::Str(s)) if s == "done")
    });
    assert!(
        !low_done_already,
        "priority 5 must be scheduled before priority -5"
    );
    for id in [first, low] {
        let (status, _) = client.watch(id, 0, |_, _| {}).expect("watch terminates");
        assert_eq!(status, JobStatus::Done, "job {id} should finish");
    }
    // The high-priority job must have produced the same bytes as a one-shot
    // run — scheduling order and queue pressure never leak into results.
    let high_doc = client.result(high).expect("high-priority result");
    assert_eq!(high_doc, one_shot_document("table2", 3));
    assert!(
        client.result(doomed).is_err(),
        "a cancelled job has no result"
    );

    client.shutdown(5_000).expect("shutdown drains");
    server_thread
        .join()
        .expect("server thread joins")
        .expect("server exits cleanly");
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// Round trips cost their real work, not a delayed-ACK timeout. With a frame
/// split into two writes (JSON, then newline) or Nagle left on, each stalled
/// trip waits 40 ms or more for the peer's delayed ACK, so 50 trips would
/// take at least 2 s. A `watch` of a finished job answers with several
/// frames back to back, which stalls under Nagle even with one write per
/// frame.
#[test]
fn round_trips_do_not_stall_on_delayed_acks() {
    let state_dir = temp_state_dir("nodelay");
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        state_dir: state_dir.clone(),
        budget: 1,
        default_workers: 1,
        cache_dir: None,
    })
    .expect("server binds");
    let addr = server.local_addr().to_string();
    let server_thread = std::thread::spawn(move || server.run());

    let mut client = Client::connect(&addr).expect("client connects");
    let id = client
        .submit(JobSpec {
            name: "fig6".to_string(),
            scale: "quick".to_string(),
            seed: 0,
            priority: 0,
            workers: 1,
        })
        .expect("submit succeeds");
    let (status, _) = client.watch(id, 0, |_, _| {}).expect("watch terminates");
    assert_eq!(status, JobStatus::Done, "quick fig6 should finish");
    for _ in 0..3 {
        client.status().expect("warm-up status responds");
    }

    let start = Instant::now();
    for _ in 0..50 {
        client.status().expect("status responds");
    }
    let status_elapsed = start.elapsed();
    assert!(
        status_elapsed < Duration::from_secs(1),
        "50 status round trips took {status_elapsed:?}"
    );

    let start = Instant::now();
    for _ in 0..50 {
        let (status, _) = client.watch(id, 0, |_, _| {}).expect("watch terminates");
        assert_eq!(status, JobStatus::Done);
    }
    let watch_elapsed = start.elapsed();
    assert!(
        watch_elapsed < Duration::from_secs(1),
        "50 watches of a finished job took {watch_elapsed:?}"
    );

    client.shutdown(5_000).expect("shutdown drains");
    server_thread
        .join()
        .expect("server thread joins")
        .expect("server exits cleanly");
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// A peer that sends a frame larger than the server's 1 MiB cap without a
/// newline gets an error frame and a closed connection, the rejection is
/// counted, and other clients are still served.
#[test]
fn oversized_frame_is_rejected_and_the_server_keeps_serving() {
    use std::io::{BufRead, BufReader, Write};

    let state_dir = temp_state_dir("oversized");
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        state_dir: state_dir.clone(),
        budget: 1,
        default_workers: 1,
        cache_dir: None,
    })
    .expect("server binds");
    let addr = server.local_addr().to_string();
    let server_thread = std::thread::spawn(move || server.run());

    let stream = std::net::TcpStream::connect(&addr).expect("raw peer connects");
    let mut sender = stream.try_clone().expect("socket clones");
    // Write from a second thread so the reply can be read while the server
    // stops reading; the write itself fails once the server hangs up.
    let writer = std::thread::spawn(move || {
        let _ = sender.write_all(&vec![b'x'; 2 << 20]);
    });
    let mut reply = String::new();
    BufReader::new(&stream)
        .read_line(&mut reply)
        .expect("error frame arrives");
    assert!(reply.contains(r#""ok":false"#), "{reply}");
    assert!(reply.contains("exceeds 1048576 bytes"), "{reply}");
    writer.join().expect("writer thread joins");

    let mut client = Client::connect(&addr).expect("second client connects");
    assert!(!client.list().expect("list responds").is_empty());
    let metrics = client.metrics().expect("metrics respond");
    let oversized = metrics
        .field("counters")
        .and_then(|c| c.field("serve.frames.oversized"))
        .expect("rejection is counted");
    assert!(
        matches!(oversized, serde::Value::UInt(n) if *n >= 1),
        "{oversized:?}"
    );

    client.shutdown(5_000).expect("shutdown drains");
    server_thread
        .join()
        .expect("server thread joins")
        .expect("server exits cleanly");
    let _ = std::fs::remove_dir_all(&state_dir);
}
