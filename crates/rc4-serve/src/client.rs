//! Blocking client for the `reprod` protocol.
//!
//! One TCP connection, one request frame per call, typed results. The only
//! stateful call is [`Client::watch`], which keeps reading progress frames
//! until the job's terminal `end` frame arrives.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;

use serde::Value;

use crate::ledger::JobStatus;
use crate::protocol::{parse_response, write_frame, JobSpec, Request};
use crate::ServeError;

/// A connected `reprod` client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// One registry entry as reported by the server's `list`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentInfo {
    /// Canonical experiment name.
    pub name: String,
    /// One-line description.
    pub summary: String,
    /// Accepted aliases.
    pub aliases: Vec<String>,
}

impl Client {
    /// Connects to a server at `addr` (`host:port`).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the connection fails.
    pub fn connect(addr: &str) -> Result<Self, ServeError> {
        let writer = TcpStream::connect(addr)
            .map_err(|e| ServeError::Io(format!("cannot connect to {addr}: {e}")))?;
        // With Nagle on, round trips stall on delayed ACKs; see the
        // "Transport" section of the protocol docs.
        writer
            .set_nodelay(true)
            .map_err(|e| ServeError::Io(format!("cannot set TCP_NODELAY: {e}")))?;
        let reader = writer
            .try_clone()
            .map_err(|e| ServeError::Io(format!("cannot clone stream: {e}")))?;
        Ok(Client {
            reader: BufReader::new(reader),
            writer,
        })
    }

    fn round_trip(&mut self, request: &Request) -> Result<Value, ServeError> {
        write_frame(&mut self.writer, &request.to_line())
            .map_err(|e| ServeError::Io(format!("cannot send request: {e}")))?;
        self.read_frame()
    }

    fn read_frame(&mut self) -> Result<Value, ServeError> {
        let line = self.read_line()?;
        parse_response(line.trim())
    }

    /// Reads one raw JSON frame without the `ok` envelope check — watch
    /// streams interleave `{"event": ...}` frames after the initial ack.
    fn read_event_frame(&mut self) -> Result<Value, ServeError> {
        let line = self.read_line()?;
        serde_json::from_str(line.trim())
            .map_err(|e| ServeError::Protocol(format!("malformed frame: {e}")))
    }

    fn read_line(&mut self) -> Result<String, ServeError> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| ServeError::Io(format!("cannot read response: {e}")))?;
        if n == 0 {
            return Err(ServeError::Io("server closed the connection".to_string()));
        }
        Ok(line)
    }

    /// Lists the server's registered experiments.
    ///
    /// # Errors
    ///
    /// Transport errors as [`ServeError::Io`], server refusals as
    /// [`ServeError::Server`].
    pub fn list(&mut self) -> Result<Vec<ExperimentInfo>, ServeError> {
        let response = self.round_trip(&Request::List)?;
        let Ok(Value::Array(items)) = response.field("experiments") else {
            return Err(ServeError::Protocol(
                "list response lacks `experiments`".to_string(),
            ));
        };
        items
            .iter()
            .map(|item| {
                let name = str_field(item, "name")?;
                let summary = str_field(item, "summary")?;
                let aliases = match item.field("aliases") {
                    Ok(Value::Array(a)) => a
                        .iter()
                        .filter_map(|v| match v {
                            Value::Str(s) => Some(s.clone()),
                            _ => None,
                        })
                        .collect(),
                    _ => Vec::new(),
                };
                Ok(ExperimentInfo {
                    name,
                    summary,
                    aliases,
                })
            })
            .collect()
    }

    /// Submits a job; returns its server-assigned ID.
    ///
    /// # Errors
    ///
    /// [`ServeError::Server`] when admission is refused (unknown experiment,
    /// draining server), [`ServeError::Io`] on transport failure.
    pub fn submit(&mut self, spec: JobSpec) -> Result<u64, ServeError> {
        let response = self.round_trip(&Request::Submit(spec))?;
        u64_field(&response, "id")
    }

    /// Fetches every ledger record, oldest first, as wire values.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] / [`ServeError::Protocol`] on transport or frame
    /// problems.
    pub fn jobs(&mut self) -> Result<Vec<Value>, ServeError> {
        let response = self.round_trip(&Request::Jobs)?;
        match response.field("jobs") {
            Ok(Value::Array(items)) => Ok(items.clone()),
            _ => Err(ServeError::Protocol(
                "jobs response lacks `jobs`".to_string(),
            )),
        }
    }

    /// Streams job `id`'s progress events from sequence `from`, invoking
    /// `on_event(seq, line)` per event, until the job is terminal. Returns
    /// the terminal status and how many events the server dropped beyond its
    /// per-job buffer.
    ///
    /// # Errors
    ///
    /// [`ServeError::Server`] for unknown jobs, [`ServeError::Io`] /
    /// [`ServeError::Protocol`] on transport or frame problems.
    pub fn watch(
        &mut self,
        id: u64,
        from: u64,
        mut on_event: impl FnMut(u64, &str),
    ) -> Result<(JobStatus, u64), ServeError> {
        let _ack = self.round_trip(&Request::Watch { id, from })?;
        loop {
            let frame = self.read_event_frame()?;
            match frame.field("event") {
                Ok(Value::Str(kind)) if kind == "progress" => {
                    let seq = u64_field(&frame, "seq")?;
                    let line = str_field(&frame, "line")?;
                    on_event(seq, &line);
                }
                Ok(Value::Str(kind)) if kind == "end" => {
                    let status_name = str_field(&frame, "status")?;
                    let status = JobStatus::parse(&status_name).ok_or_else(|| {
                        ServeError::Protocol(format!("unknown terminal status `{status_name}`"))
                    })?;
                    let dropped = u64_field(&frame, "dropped").unwrap_or(0);
                    return Ok((status, dropped));
                }
                _ => {
                    return Err(ServeError::Protocol(
                        "watch stream produced an unknown frame".to_string(),
                    ))
                }
            }
        }
    }

    /// Fetches a done job's result document — the byte-identical output of
    /// the equivalent one-shot `repro run --json`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Server`] when the job is not done (still queued or
    /// running, failed, cancelled, unknown).
    pub fn result(&mut self, id: u64) -> Result<String, ServeError> {
        let response = self.round_trip(&Request::Result {
            id,
            telemetry: false,
        })?;
        str_field(&response, "result")
    }

    /// [`Client::result`] plus the job's scheduling/runtime telemetry
    /// (queue/budget wait, run time, workers). The telemetry is `None` for
    /// jobs finished by a previous server incarnation; the result document
    /// itself is byte-identical to [`Client::result`]'s either way.
    ///
    /// # Errors
    ///
    /// Exactly [`Client::result`]'s errors.
    pub fn result_with_telemetry(
        &mut self,
        id: u64,
    ) -> Result<(String, Option<Value>), ServeError> {
        let response = self.round_trip(&Request::Result {
            id,
            telemetry: true,
        })?;
        let document = str_field(&response, "result")?;
        let telemetry = match response.field("telemetry") {
            Ok(Value::Null) | Err(_) => None,
            Ok(v) => Some(v.clone()),
        };
        Ok((document, telemetry))
    }

    /// Fetches a snapshot of the server's metrics registry (the `metrics`
    /// frame): counters and histograms across the executor, store,
    /// and serving layers.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] / [`ServeError::Protocol`] on transport or frame
    /// problems.
    pub fn metrics(&mut self) -> Result<Value, ServeError> {
        let response = self.round_trip(&Request::Metrics)?;
        match response.field("metrics") {
            Ok(v) => Ok(v.clone()),
            Err(_) => Err(ServeError::Protocol(
                "metrics response lacks `metrics`".to_string(),
            )),
        }
    }

    /// Fetches the server's status document (draining flag, job counts,
    /// budget and single-flight stats).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] / [`ServeError::Protocol`] on transport or frame
    /// problems.
    pub fn status(&mut self) -> Result<Value, ServeError> {
        self.round_trip(&Request::Status)
    }

    /// Cancels job `id`; returns its (possibly already terminal) status.
    ///
    /// # Errors
    ///
    /// [`ServeError::Server`] for unknown jobs.
    pub fn cancel(&mut self, id: u64) -> Result<JobStatus, ServeError> {
        let response = self.round_trip(&Request::Cancel { id })?;
        let name = str_field(&response, "status")?;
        JobStatus::parse(&name)
            .ok_or_else(|| ServeError::Protocol(format!("unknown status `{name}`")))
    }

    /// Requests graceful drain and shutdown; blocks until the server has
    /// drained and returns its summary response.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] / [`ServeError::Protocol`] on transport or frame
    /// problems.
    pub fn shutdown(&mut self, deadline_ms: u64) -> Result<Value, ServeError> {
        self.round_trip(&Request::Shutdown { deadline_ms })
    }
}

fn str_field(value: &Value, name: &str) -> Result<String, ServeError> {
    match value.field(name) {
        Ok(Value::Str(s)) => Ok(s.clone()),
        _ => Err(ServeError::Protocol(format!(
            "response lacks string field `{name}`"
        ))),
    }
}

fn u64_field(value: &Value, name: &str) -> Result<u64, ServeError> {
    match value.field(name) {
        Ok(Value::UInt(n)) => Ok(*n),
        _ => Err(ServeError::Protocol(format!(
            "response lacks integer field `{name}`"
        ))),
    }
}
