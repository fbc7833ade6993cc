//! The `reprod` wire protocol: newline-delimited JSON frames over TCP.
//!
//! Every request is one line holding a JSON object with a `"cmd"` string
//! field; every response is one line holding a JSON object with an `"ok"`
//! boolean. A `watch` request is the one streaming exception: the server
//! answers with any number of `{"event": "progress", ...}` lines followed by
//! exactly one `{"event": "end", ...}` line.
//!
//! The vendored serde subset drives the framing: requests and responses are
//! built and picked apart as [`serde::Value`] trees, so optional fields can
//! be omitted by clients (a missing field falls back to its documented
//! default instead of erroring).
//!
//! # Transport
//!
//! Every frame, in both directions, goes out through [`write_frame`]: the
//! line and its `'\n'` in **one** `write_all`, then a flush. Both ends also
//! set `TCP_NODELAY` on their socket ([`Client::connect`](crate::Client::connect),
//! and the server on every accepted connection). Neither is optional. Writing the JSON and the
//! newline separately (`writeln!` on a bare `TcpStream` does exactly that)
//! leaves the newline behind Nagle's algorithm until the peer ACKs, while
//! the peer delays that ACK (40 ms or more) because it is still waiting for
//! the newline: every round trip then stalls for a delayed-ACK timeout
//! instead of costing its real work. One write per frame is not enough on
//! its own: a `watch` answers with several frames back to back (ack,
//! progress, end), and with Nagle on each later frame again waits for the
//! client's delayed ACK.
//!
//! # Frame reference
//!
//! One section per frame type. Every JSON example below is produced **by
//! the serde types in this module inside a doc-test** — the assertions run
//! under `cargo test`, so the documented bytes cannot drift from what
//! [`Request::to_line`] actually puts on the wire.
//!
//! ## `list`
//!
//! Lists the registered experiments. No arguments.
//!
//! ```
//! use rc4_serve::protocol::Request;
//! let frame = Request::List;
//! assert_eq!(frame.to_line(), r#"{"cmd":"list"}"#);
//! assert_eq!(Request::parse(&frame.to_line()).unwrap(), frame);
//! ```
//!
//! The response's `experiments` field is an array of `{name, summary}`
//! objects.
//!
//! ## `submit`
//!
//! Admits a job; the response carries its assigned `id`. Only `name` is
//! required — `scale` defaults to `"laptop"`, `seed` to 0, `priority` to 0
//! (higher runs first, ties in submission order) and `workers` to 0 (the
//! server's default budget).
//!
//! ```
//! use rc4_serve::protocol::{JobSpec, Request};
//! let frame = Request::Submit(JobSpec {
//!     name: "fig8".into(),
//!     scale: "quick".into(),
//!     seed: 5,
//!     priority: 1,
//!     workers: 2,
//! });
//! assert_eq!(
//!     frame.to_line(),
//!     r#"{"cmd":"submit","name":"fig8","scale":"quick","seed":5,"priority":1,"workers":2}"#
//! );
//! // Minimal client frame: omitted fields take their documented defaults.
//! let minimal = Request::parse(r#"{"cmd":"submit","name":"fig8"}"#).unwrap();
//! assert_eq!(
//!     minimal,
//!     Request::Submit(JobSpec {
//!         name: "fig8".into(),
//!         scale: "laptop".into(),
//!         seed: 0,
//!         priority: 0,
//!         workers: 0,
//!     })
//! );
//! ```
//!
//! ## `jobs`
//!
//! Summarizes every job the server knows about, including ledger entries
//! reloaded from a previous incarnation.
//!
//! ```
//! use rc4_serve::protocol::Request;
//! assert_eq!(Request::Jobs.to_line(), r#"{"cmd":"jobs"}"#);
//! ```
//!
//! ## `watch`
//!
//! Streams a job's progress events from sequence number `from` (default 0,
//! i.e. replay from the start) until the job reaches a terminal state. The
//! response is the streaming exception described above: `progress` event
//! lines, then exactly one `end` line.
//!
//! ```
//! use rc4_serve::protocol::Request;
//! let frame = Request::Watch { id: 7, from: 12 };
//! assert_eq!(frame.to_line(), r#"{"cmd":"watch","id":7,"from":12}"#);
//! assert_eq!(Request::parse(r#"{"cmd":"watch","id":7}"#).unwrap(),
//!            Request::Watch { id: 7, from: 0 });
//! ```
//!
//! ## `result`
//!
//! Fetches the final result document of a completed job — the stored bytes,
//! verbatim, which is what makes served results byte-identical to one-shot
//! runs. With `telemetry: true` the response additionally carries the job's
//! scheduling/runtime telemetry as a *separate* field; the result document
//! itself is unaffected. Pre-telemetry clients omit the field.
//!
//! ```
//! use rc4_serve::protocol::Request;
//! let frame = Request::Result { id: 7, telemetry: true };
//! assert_eq!(frame.to_line(), r#"{"cmd":"result","id":7,"telemetry":true}"#);
//! assert_eq!(Request::parse(r#"{"cmd":"result","id":7}"#).unwrap(),
//!            Request::Result { id: 7, telemetry: false });
//! ```
//!
//! ## `status`
//!
//! Server introspection: accepting/draining state, queue depth, budget and
//! single-flight statistics.
//!
//! ```
//! use rc4_serve::protocol::Request;
//! assert_eq!(Request::Status.to_line(), r#"{"cmd":"status"}"#);
//! ```
//!
//! ## `metrics`
//!
//! A snapshot of the server's live metrics registry — counters and
//! histograms across the executor, store and serving layers (the
//! `{"counters": ..., "histograms": ...}` document shown by
//! `repro status --metrics`).
//!
//! ```
//! use rc4_serve::protocol::Request;
//! assert_eq!(Request::Metrics.to_line(), r#"{"cmd":"metrics"}"#);
//! ```
//!
//! ## `cancel`
//!
//! Cooperatively cancels a queued or running job.
//!
//! ```
//! use rc4_serve::protocol::Request;
//! assert_eq!(Request::Cancel { id: 3 }.to_line(), r#"{"cmd":"cancel","id":3}"#);
//! ```
//!
//! ## `shutdown`
//!
//! Graceful drain: admission stops, queued jobs are cancelled, running jobs
//! get `deadline_ms` (default 10000) to finish before being cooperatively
//! cancelled; the ledger is persisted and the process exits.
//!
//! ```
//! use rc4_serve::protocol::Request;
//! let frame = Request::Shutdown { deadline_ms: 500 };
//! assert_eq!(frame.to_line(), r#"{"cmd":"shutdown","deadline_ms":500}"#);
//! assert_eq!(Request::parse(r#"{"cmd":"shutdown"}"#).unwrap(),
//!            Request::Shutdown { deadline_ms: 10_000 });
//! ```
//!
//! ## Responses
//!
//! Every non-streaming response is one line with a boolean `ok`; failures
//! carry an `error` string. [`parse_response`] folds `ok: false` frames
//! into [`ServeError::Server`]:
//!
//! ```
//! use rc4_serve::protocol::{error_response, ok_response, parse_response};
//! use rc4_serve::ServeError;
//! use serde::Value;
//!
//! let ok = ok_response(vec![("id".into(), Value::UInt(9))]);
//! assert_eq!(ok, r#"{"ok":true,"id":9}"#);
//! assert_eq!(parse_response(&ok).unwrap().field("id").unwrap(), &Value::UInt(9));
//!
//! let err = error_response("queue is draining");
//! assert_eq!(err, r#"{"ok":false,"error":"queue is draining"}"#);
//! assert_eq!(parse_response(&err), Err(ServeError::Server("queue is draining".into())));
//! ```

use std::io::Write;

use serde::Value;

use crate::ServeError;

/// Writes one frame: `frame` and its terminating `'\n'` in a single
/// `write_all`, then a flush. The one place frames are written, on sockets
/// and on the per-job event files alike (see "Transport" above for why a
/// socket frame must be one write).
///
/// # Errors
///
/// Whatever the underlying writer reports.
pub fn write_frame(w: &mut impl Write, frame: &str) -> std::io::Result<()> {
    let mut line = String::with_capacity(frame.len() + 1);
    line.push_str(frame);
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

/// A client request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// List the registered experiments.
    List,
    /// Submit a job; responds with its assigned ID.
    Submit(JobSpec),
    /// Summarize every job the server knows about (including ledger entries
    /// reloaded from a previous incarnation).
    Jobs,
    /// Stream progress events of a job from sequence number `from` until it
    /// reaches a terminal state.
    Watch {
        /// Job ID.
        id: u64,
        /// First event sequence number to deliver (0 replays from the start).
        from: u64,
    },
    /// Fetch the final result document of a completed job.
    Result {
        /// Job ID.
        id: u64,
        /// Attach the job's scheduling/runtime telemetry as a separate
        /// `telemetry` field (the `result` document itself is unaffected).
        telemetry: bool,
    },
    /// Server introspection: queue, budget and single-flight statistics.
    Status,
    /// A snapshot of the server's metrics registry (counters and
    /// histograms across the executor, store, and serving layers).
    Metrics,
    /// Cancel a queued or running job.
    Cancel {
        /// Job ID.
        id: u64,
    },
    /// Graceful drain: stop admitting, finish or cancel running jobs within
    /// the deadline, persist the ledger, exit.
    Shutdown {
        /// Grace period in milliseconds before running jobs are cancelled.
        deadline_ms: u64,
    },
}

/// What to run and how, as carried by a `submit` frame.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Registry name (or alias) of the experiment.
    pub name: String,
    /// Scale preset name (`quick` | `laptop` | `extended`).
    pub scale: String,
    /// Global seed mix (the `--seed` of a one-shot run).
    pub seed: u64,
    /// Scheduling priority; higher runs first, ties submit-order.
    pub priority: i64,
    /// Worker budget requested for this job (0 = the server default).
    pub workers: u64,
}

/// Reads an optional `u64` field with a default.
fn opt_u64(v: &Value, name: &str, default: u64) -> Result<u64, ServeError> {
    match v.field(name) {
        Ok(Value::UInt(n)) => Ok(*n),
        Ok(Value::Int(n)) if *n >= 0 => Ok(*n as u64),
        Ok(Value::Null) | Err(_) => Ok(default),
        Ok(other) => Err(ServeError::Protocol(format!(
            "field `{name}` must be a non-negative integer, found {}",
            other.kind()
        ))),
    }
}

/// Reads an optional `i64` field with a default.
fn opt_i64(v: &Value, name: &str, default: i64) -> Result<i64, ServeError> {
    match v.field(name) {
        Ok(Value::Int(n)) => Ok(*n),
        Ok(Value::UInt(n)) => i64::try_from(*n)
            .map_err(|_| ServeError::Protocol(format!("field `{name}` out of range"))),
        Ok(Value::Null) | Err(_) => Ok(default),
        Ok(other) => Err(ServeError::Protocol(format!(
            "field `{name}` must be an integer, found {}",
            other.kind()
        ))),
    }
}

/// Reads an optional boolean field with a default.
fn opt_bool(v: &Value, name: &str, default: bool) -> Result<bool, ServeError> {
    match v.field(name) {
        Ok(Value::Bool(b)) => Ok(*b),
        Ok(Value::Null) | Err(_) => Ok(default),
        Ok(other) => Err(ServeError::Protocol(format!(
            "field `{name}` must be a boolean, found {}",
            other.kind()
        ))),
    }
}

/// Reads an optional string field with a default.
fn opt_str(v: &Value, name: &str, default: &str) -> Result<String, ServeError> {
    match v.field(name) {
        Ok(Value::Str(s)) => Ok(s.clone()),
        Ok(Value::Null) | Err(_) => Ok(default.to_string()),
        Ok(other) => Err(ServeError::Protocol(format!(
            "field `{name}` must be a string, found {}",
            other.kind()
        ))),
    }
}

/// Reads a required string field.
fn req_str(v: &Value, name: &str) -> Result<String, ServeError> {
    match v.field(name) {
        Ok(Value::Str(s)) => Ok(s.clone()),
        Ok(other) => Err(ServeError::Protocol(format!(
            "field `{name}` must be a string, found {}",
            other.kind()
        ))),
        Err(e) => Err(ServeError::Protocol(e.0)),
    }
}

/// Reads a required `u64` field.
fn req_u64(v: &Value, name: &str) -> Result<u64, ServeError> {
    match v.field(name) {
        Ok(Value::UInt(n)) => Ok(*n),
        Ok(Value::Int(n)) if *n >= 0 => Ok(*n as u64),
        Ok(other) => Err(ServeError::Protocol(format!(
            "field `{name}` must be a non-negative integer, found {}",
            other.kind()
        ))),
        Err(e) => Err(ServeError::Protocol(e.0)),
    }
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Protocol`] for malformed JSON, a missing/unknown
    /// `cmd`, or ill-typed fields.
    pub fn parse(line: &str) -> Result<Self, ServeError> {
        let value: Value = serde_json::from_str(line)
            .map_err(|e| ServeError::Protocol(format!("malformed request JSON: {e}")))?;
        let cmd = req_str(&value, "cmd")?;
        match cmd.as_str() {
            "list" => Ok(Request::List),
            "submit" => Ok(Request::Submit(JobSpec {
                name: req_str(&value, "name")?,
                scale: opt_str(&value, "scale", "laptop")?,
                seed: opt_u64(&value, "seed", 0)?,
                priority: opt_i64(&value, "priority", 0)?,
                workers: opt_u64(&value, "workers", 0)?,
            })),
            "jobs" => Ok(Request::Jobs),
            "watch" => Ok(Request::Watch {
                id: req_u64(&value, "id")?,
                from: opt_u64(&value, "from", 0)?,
            }),
            "result" => Ok(Request::Result {
                id: req_u64(&value, "id")?,
                telemetry: opt_bool(&value, "telemetry", false)?,
            }),
            "status" => Ok(Request::Status),
            "metrics" => Ok(Request::Metrics),
            "cancel" => Ok(Request::Cancel {
                id: req_u64(&value, "id")?,
            }),
            "shutdown" => Ok(Request::Shutdown {
                deadline_ms: opt_u64(&value, "deadline_ms", 10_000)?,
            }),
            other => Err(ServeError::Protocol(format!("unknown cmd `{other}`"))),
        }
    }

    /// Serializes the request to its one-line wire form.
    pub fn to_line(&self) -> String {
        let fields = match self {
            Request::List => vec![cmd("list")],
            Request::Submit(spec) => vec![
                cmd("submit"),
                ("name".into(), Value::Str(spec.name.clone())),
                ("scale".into(), Value::Str(spec.scale.clone())),
                ("seed".into(), Value::UInt(spec.seed)),
                ("priority".into(), Value::Int(spec.priority)),
                ("workers".into(), Value::UInt(spec.workers)),
            ],
            Request::Jobs => vec![cmd("jobs")],
            Request::Watch { id, from } => vec![
                cmd("watch"),
                ("id".into(), Value::UInt(*id)),
                ("from".into(), Value::UInt(*from)),
            ],
            Request::Result { id, telemetry } => vec![
                cmd("result"),
                ("id".into(), Value::UInt(*id)),
                ("telemetry".into(), Value::Bool(*telemetry)),
            ],
            Request::Status => vec![cmd("status")],
            Request::Metrics => vec![cmd("metrics")],
            Request::Cancel { id } => vec![cmd("cancel"), ("id".into(), Value::UInt(*id))],
            Request::Shutdown { deadline_ms } => vec![
                cmd("shutdown"),
                ("deadline_ms".into(), Value::UInt(*deadline_ms)),
            ],
        };
        serde_json::to_string(&Value::Object(fields)).expect("request serializes")
    }
}

fn cmd(name: &str) -> (String, Value) {
    ("cmd".into(), Value::Str(name.into()))
}

/// Builds a success response from extra fields.
pub fn ok_response(mut fields: Vec<(String, Value)>) -> String {
    let mut all = vec![("ok".to_string(), Value::Bool(true))];
    all.append(&mut fields);
    serde_json::to_string(&Value::Object(all)).expect("response serializes")
}

/// Builds an error response.
pub fn error_response(message: &str) -> String {
    serde_json::to_string(&Value::Object(vec![
        ("ok".to_string(), Value::Bool(false)),
        ("error".to_string(), Value::Str(message.to_string())),
    ]))
    .expect("response serializes")
}

/// Parses a response line into its `Value` tree, folding `ok: false` frames
/// into [`ServeError::Server`].
///
/// # Errors
///
/// [`ServeError::Protocol`] for malformed frames, [`ServeError::Server`] when
/// the server reported a failure.
pub fn parse_response(line: &str) -> Result<Value, ServeError> {
    let value: Value = serde_json::from_str(line)
        .map_err(|e| ServeError::Protocol(format!("malformed response JSON: {e}")))?;
    match value.field("ok") {
        Ok(Value::Bool(true)) => Ok(value),
        Ok(Value::Bool(false)) => {
            let message = match value.field("error") {
                Ok(Value::Str(s)) => s.clone(),
                _ => "unspecified server error".to_string(),
            };
            Err(ServeError::Server(message))
        }
        _ => Err(ServeError::Protocol(
            "response lacks a boolean `ok` field".to_string(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_through_wire_form() {
        let requests = vec![
            Request::List,
            Request::Submit(JobSpec {
                name: "fig8".into(),
                scale: "quick".into(),
                seed: 42,
                priority: -3,
                workers: 2,
            }),
            Request::Jobs,
            Request::Watch { id: 7, from: 12 },
            Request::Result {
                id: 7,
                telemetry: false,
            },
            Request::Result {
                id: 8,
                telemetry: true,
            },
            Request::Status,
            Request::Metrics,
            Request::Cancel { id: 3 },
            Request::Shutdown { deadline_ms: 500 },
        ];
        for request in requests {
            let line = request.to_line();
            assert!(!line.contains('\n'), "frames must be single lines");
            assert_eq!(Request::parse(&line).unwrap(), request);
        }
    }

    #[test]
    fn submit_defaults_optional_fields() {
        let parsed = Request::parse(r#"{"cmd":"submit","name":"fig8"}"#).unwrap();
        assert_eq!(
            parsed,
            Request::Submit(JobSpec {
                name: "fig8".into(),
                scale: "laptop".into(),
                seed: 0,
                priority: 0,
                workers: 0,
            })
        );
    }

    #[test]
    fn result_defaults_telemetry_off() {
        // Pre-telemetry clients omit the field; they must keep working.
        let parsed = Request::parse(r#"{"cmd":"result","id":7}"#).unwrap();
        assert_eq!(
            parsed,
            Request::Result {
                id: 7,
                telemetry: false,
            }
        );
        assert!(Request::parse(r#"{"cmd":"result","id":7,"telemetry":3}"#).is_err());
    }

    #[test]
    fn malformed_requests_are_protocol_errors() {
        assert!(matches!(
            Request::parse("not json"),
            Err(ServeError::Protocol(_))
        ));
        assert!(matches!(
            Request::parse(r#"{"cmd":"fly"}"#),
            Err(ServeError::Protocol(_))
        ));
        assert!(matches!(
            Request::parse(r#"{"cmd":"submit"}"#),
            Err(ServeError::Protocol(_)),
        ));
        assert!(matches!(
            Request::parse(r#"{"cmd":"submit","name":"fig8","seed":"high"}"#),
            Err(ServeError::Protocol(_)),
        ));
    }

    #[test]
    fn write_frame_is_one_write_of_line_and_newline() {
        /// Records the size of every `write` call it receives.
        #[derive(Default)]
        struct Writes(Vec<Vec<u8>>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = Writes::default();
        write_frame(&mut w, r#"{"cmd":"status"}"#).unwrap();
        assert_eq!(w.0, vec![b"{\"cmd\":\"status\"}\n".to_vec()]);
    }

    #[test]
    fn response_helpers_round_trip() {
        let ok = ok_response(vec![("id".into(), Value::UInt(9))]);
        let value = parse_response(&ok).unwrap();
        assert_eq!(value.field("id").unwrap(), &Value::UInt(9));

        let err = error_response("queue is draining");
        assert_eq!(
            parse_response(&err),
            Err(ServeError::Server("queue is draining".into()))
        );
        assert!(matches!(
            parse_response(r#"{"id": 9}"#),
            Err(ServeError::Protocol(_))
        ));
    }
}
