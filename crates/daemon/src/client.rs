//! The client driver: typed request/response wrappers over one socket
//! connection.

use crate::protocol::{
    invalidation_from_value, read_frame, read_raw_frame, request, response_error, response_ok,
    write_frame, SourceDigest, Splice,
};
use ivy_engine::{EngineStats, InvalidationStats};
use serde_json::Value;
use std::io;
use std::os::unix::net::UnixStream;
use std::path::Path;

/// One `analyze` answer.
#[derive(Debug, Clone)]
pub struct AnalyzeOutcome {
    /// Content hash of the analyzed program, as 16 hex digits.
    pub program_hash: String,
    /// The stable diagnostics serialization — byte-identical to
    /// `Report::diagnostics_json()` of a batch run over the same program.
    pub diagnostics_json: String,
    /// Number of diagnostics in the report.
    pub diagnostic_count: usize,
    /// The serving run's engine statistics.
    pub stats: EngineStats,
}

/// One `explain` answer: the derivation chain behind a points-to fact or
/// indirect-call resolution, replay-verified by the daemon before shipping.
#[derive(Debug, Clone)]
pub struct ExplainOutcome {
    /// The explained fact, e.g. `` `f::p` may point to `global x` ``.
    pub fact: String,
    /// The derivation chain, one human-readable line per link, seed first.
    pub rendered: Vec<String>,
    /// Number of links in the chain.
    pub chain_len: usize,
    /// Whether the daemon replayed every derivation step of its traced
    /// solve against the program's constraints before answering (always
    /// true on success — a failed replay is an error response).
    pub replay_verified: bool,
    /// Total derivation steps the traced solve recorded.
    pub provenance_facts: u64,
}

/// One `notify_edit` answer.
#[derive(Debug, Clone)]
pub struct EditOutcome {
    /// Content hash of the edited program, as 16 hex digits.
    pub program_hash: String,
    /// How the daemon parsed the edited source: `function` (only the
    /// edited function), `full`, or `unchanged`.
    pub reparse: String,
    /// What the edit invalidated and what survived.
    pub invalidation: InvalidationStats,
}

/// A connected daemon client. One request at a time per client; open more
/// clients for concurrency (the daemon serves each connection on its own
/// thread).
pub struct Client {
    stream: UnixStream,
    /// The source of the last successful [`Client::notify_edit`] and its
    /// digest: the base the next edit is spliced against.
    last_edit: Option<(String, SourceDigest)>,
}

fn malformed(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("malformed {what} response"),
    )
}

impl Client {
    /// Connects to a daemon socket.
    pub fn connect(socket: impl AsRef<Path>) -> io::Result<Client> {
        Ok(Client {
            stream: UnixStream::connect(socket)?,
            last_edit: None,
        })
    }

    /// One request/response round-trip. A transport failure is an
    /// `io::Error`; a daemon-reported failure (`ok: false`) comes back as
    /// `ErrorKind::Other` carrying the daemon's message.
    pub fn request(&mut self, message: &Value) -> io::Result<Value> {
        write_frame(&mut self.stream, message)?;
        let response = read_frame(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed mid-request")
        })?;
        if !response_ok(&response) {
            return Err(io::Error::other(response_error(&response)));
        }
        Ok(response)
    }

    fn source_request(&mut self, cmd: &str, source: &str) -> io::Result<Value> {
        let mut m = request(cmd);
        m.insert("source".into(), Value::from(source));
        self.request(&Value::Object(m))
    }

    /// Analyzes a program (KC source text) with the daemon's checker
    /// fleet. The request names the program by its [`SourceDigest`]; the
    /// source travels only if the daemon answers `need_source`, and the
    /// diagnostics arrive as a raw frame after the JSON header.
    pub fn analyze(&mut self, source: &str) -> io::Result<AnalyzeOutcome> {
        let digest = SourceDigest::of(source).to_string();
        let digest_request = |source: Option<&str>| {
            let mut m = request("analyze");
            m.insert("digest".into(), Value::from(digest.as_str()));
            if let Some(source) = source {
                m.insert("source".into(), Value::from(source));
            }
            Value::Object(m)
        };
        let mut header = self.request(&digest_request(None))?;
        if header.get("need_source").and_then(Value::as_bool) == Some(true) {
            header = self.request(&digest_request(Some(source)))?;
        }
        let diagnostics_bytes = header
            .get("diagnostics_bytes")
            .and_then(Value::as_u64)
            .ok_or_else(|| malformed("analyze"))?;
        let diagnostics_json = read_raw_frame(&mut self.stream)?;
        if diagnostics_json.len() as u64 != diagnostics_bytes {
            return Err(malformed("analyze"));
        }
        Ok(AnalyzeOutcome {
            program_hash: header
                .get("program_hash")
                .and_then(Value::as_str)
                .map(String::from)
                .ok_or_else(|| malformed("analyze"))?,
            diagnostics_json,
            diagnostic_count: header
                .get("diagnostic_count")
                .and_then(Value::as_u64)
                .ok_or_else(|| malformed("analyze"))? as usize,
            stats: header
                .get("stats")
                .and_then(EngineStats::from_value)
                .ok_or_else(|| malformed("analyze"))?,
        })
    }

    /// Notifies the daemon of an edit (the full edited source). The
    /// first edit of a client ships the whole source, and the daemon
    /// diffs it against the resident program; every later one ships only
    /// a splice against the previous edit's source, falling back to the
    /// whole source if the daemon no longer holds that base. Only the
    /// memoized results whose content key the edit changed are
    /// invalidated.
    pub fn notify_edit(&mut self, source: &str) -> io::Result<EditOutcome> {
        let digest = SourceDigest::of(source);
        let mut response = None;
        if let Some((base, base_digest)) = &self.last_edit {
            let splice = Splice::between(base, source);
            let mut m = request("notify_edit");
            m.insert("base".into(), Value::from(base_digest.to_string()));
            m.insert("digest".into(), Value::from(digest.to_string()));
            m.insert("at".into(), Value::from(splice.at));
            m.insert("remove".into(), Value::from(splice.remove));
            m.insert("insert".into(), Value::from(splice.insert));
            let answer = self.request(&Value::Object(m))?;
            if answer.get("need_source").and_then(Value::as_bool) != Some(true) {
                response = Some(answer);
            }
        }
        let response = match response {
            Some(response) => response,
            None => self.source_request("notify_edit", source)?,
        };
        self.last_edit = Some((source.to_string(), digest));
        Ok(EditOutcome {
            program_hash: response
                .get("program_hash")
                .and_then(Value::as_str)
                .map(String::from)
                .ok_or_else(|| malformed("notify_edit"))?,
            reparse: response
                .get("reparse")
                .and_then(Value::as_str)
                .map(String::from)
                .ok_or_else(|| malformed("notify_edit"))?,
            invalidation: response
                .get("invalidation")
                .and_then(invalidation_from_value)
                .ok_or_else(|| malformed("notify_edit"))?,
        })
    }

    /// Asks the daemon *why* the resident static answer holds a fact:
    /// `lvalue` is either an indirect callee expression in `func` (the
    /// chain explains the call resolution) or a pointer slot (the chain
    /// explains one pointee — `target` picks which; `None` takes the
    /// first). Needs a prior `analyze`; the daemon picks the fact from
    /// the resident answer and derives its chain with one traced solve
    /// of the resident program plus a replay, so each call costs a
    /// points-to solve.
    pub fn explain(
        &mut self,
        func: &str,
        lvalue: &str,
        target: Option<&str>,
    ) -> io::Result<ExplainOutcome> {
        let mut m = request("explain");
        m.insert("fn".into(), Value::from(func));
        m.insert("lvalue".into(), Value::from(lvalue));
        if let Some(t) = target {
            m.insert("target".into(), Value::from(t));
        }
        let response = self.request(&Value::Object(m))?;
        let rendered: Vec<String> = response
            .get("rendered")
            .and_then(Value::as_array)
            .ok_or_else(|| malformed("explain"))?
            .iter()
            .map(|v| {
                v.as_str()
                    .map(String::from)
                    .ok_or_else(|| malformed("explain"))
            })
            .collect::<io::Result<_>>()?;
        Ok(ExplainOutcome {
            fact: response
                .get("fact")
                .and_then(Value::as_str)
                .map(String::from)
                .ok_or_else(|| malformed("explain"))?,
            chain_len: rendered.len(),
            rendered,
            replay_verified: response
                .get("replay_verified")
                .and_then(Value::as_bool)
                .ok_or_else(|| malformed("explain"))?,
            provenance_facts: response
                .get("provenance_facts")
                .and_then(Value::as_u64)
                .ok_or_else(|| malformed("explain"))?,
        })
    }

    /// Server-side counters (uptime, request counts, cache and persist
    /// traffic).
    pub fn stats(&mut self) -> io::Result<Value> {
        self.request(&Value::Object(request("stats")))
    }

    /// The daemon's Prometheus-style text exposition (the same counters
    /// as [`Client::stats`], formatted for scraping).
    pub fn metrics(&mut self) -> io::Result<String> {
        let response = self.request(&Value::Object(request("metrics")))?;
        response
            .get("metrics_text")
            .and_then(Value::as_str)
            .map(String::from)
            .ok_or_else(|| malformed("metrics"))
    }

    /// Asks the daemon to shut down (it finishes open connections first).
    pub fn shutdown(&mut self) -> io::Result<()> {
        self.request(&Value::Object(request("shutdown")))
            .map(|_| ())
    }
}
