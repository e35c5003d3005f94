//! The traced analyze path: the work of one batch run or one daemon
//! request, replayed in-process through each layer's public functions
//! with a benchmark-owned span around every call.

use crate::trace::Tracer;
use ivy_analysis::pointsto::analyze_incremental;
use ivy_cmir::ast::Program;
use ivy_cmir::parser::parse_program;
use ivy_daemon::protocol::{invalidation_to_value, read_frame, request, write_frame};
use ivy_daemon::Client;
use ivy_engine::{AnalysisCtx, Engine, InvalidationStats, Report};
use serde_json::{Map, Value};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Span name of one checker's work.
fn check_span(checker: &str) -> &'static str {
    match checker {
        "deputy" => "deputy.check",
        "ccount" => "ccount.check",
        "blockstop" => "blockstop.check",
        _ => "other.check",
    }
}

/// A fleet engine plus one single-checker engine per fleet checker. The
/// single-checker engines share the fleet engine's diagnostic cache,
/// context store and constraint cache, so each runs exactly the
/// `check_program` and `check_function` calls the fleet run would make
/// for its checker, and the fleet run after them is served from cache.
pub struct Replay {
    engine: Engine,
    checkers: Vec<(&'static str, Engine)>,
}

impl Replay {
    /// Wraps a fleet engine.
    pub fn new(engine: Engine) -> Replay {
        let checkers = engine
            .checkers()
            .iter()
            .map(|c| {
                let single = Engine::new()
                    .with_checker(Arc::clone(c))
                    .with_cache(engine.cache())
                    .with_ctx_store(engine.ctx_store())
                    .with_pointsto_cache(engine.pointsto_cache())
                    .with_provenance(engine.provenance_enabled());
                (check_span(c.name()), single)
            })
            .collect();
        Replay { engine, checkers }
    }

    /// The fleet engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// `Engine::analyze` plus `diagnostics_json`, one span per layer.
    pub fn analyze(&self, t: &mut Tracer, program: &Program) -> (Arc<AnalysisCtx>, Report, String) {
        black_box(t.span("engine.hash", || AnalysisCtx::hash_program(program)));
        let (ctx, reused) = t.span("engine.ctx", || self.engine.context_for(program));
        let sensitivity = self.engine.required_sensitivity();
        let pts = t.span("analysis.pointsto", || ctx.pointsto(sensitivity));
        t.count("analysis.pointsto_constraints", pts.constraint_count as f64);
        t.count(
            "analysis.pointsto_batches_generated",
            pts.batches_generated as f64,
        );
        black_box(t.span("analysis.summaries", || ctx.summaries(sensitivity)));
        let (mut hits, mut lookups) = (0, 0);
        for (span, single) in &self.checkers {
            let stats = t.span(span, || single.analyze_with_ctx(&ctx, reused)).stats;
            hits += stats.cache_hits;
            lookups += stats.cache_hits + stats.cache_misses;
        }
        t.count(
            "engine.cache_hit_ratio",
            if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            },
        );
        let report = t.span("engine.schedule", || {
            self.engine.analyze_with_ctx(&ctx, reused)
        });
        let json = t.span("engine.serialize", || report.diagnostics_json());
        t.count("engine.diagnostics_bytes", json.len() as f64);
        (ctx, report, json)
    }

    /// The daemon's `notify_edit` against the resident context `base`.
    /// `Engine::apply_edit` registers the edited context, so the next
    /// `analyze` of the edited program starts from it.
    pub fn serve_edit(
        &self,
        t: &mut Tracer,
        base: &Arc<AnalysisCtx>,
        source: &str,
        hop_client: &mut Client,
    ) -> Result<(), String> {
        let edited = receive(t, "notify_edit", source)?;
        let (ctx, stats) = t.span("engine.apply_edit", || {
            self.engine.apply_edit(base, &edited)
        });
        t.count("engine.edit_invalidated", stats.invalidated as f64);
        t.count("engine.edit_retention", stats.retention_rate());
        frame(t, &edit_response(&ctx, &stats));
        hop(t, hop_client)
    }

    /// The daemon's `analyze`, up to the client holding the answer;
    /// returns the analyzed context, the parsed program and the answer.
    pub fn serve_analyze(
        &self,
        t: &mut Tracer,
        source: &str,
        hop_client: &mut Client,
    ) -> Result<(Arc<AnalysisCtx>, Program, String), String> {
        let program = receive(t, "analyze", source)?;
        let (ctx, report, json) = self.analyze(t, &program);
        let response = frame(t, &analyze_response(&ctx, &report, &json));
        hop(t, hop_client)?;
        let answer = response
            .get("diagnostics_json")
            .and_then(Value::as_str)
            .ok_or("malformed analyze response")?;
        Ok((ctx, program, answer.to_string()))
    }

    /// Milliseconds `analyze_incremental` takes against this engine's
    /// constraint cache, which already holds every batch of `program`:
    /// bind plus solve, without the frontend. Not part of any operation.
    pub fn resolve_ms(&self, program: &Program) -> f64 {
        let start = Instant::now();
        black_box(analyze_incremental(
            program,
            self.engine.required_sensitivity(),
            &self.engine.pointsto_cache(),
        ));
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// `parse_program` under its span.
pub fn parse(t: &mut Tracer, source: &str) -> Result<Program, String> {
    t.count("cmir.source_bytes", source.len() as f64);
    t.span("cmir.parse", || parse_program(source))
        .map_err(|e| format!("parse failed: {e}"))
}

/// A `{cmd, source}` request framed by the client, decoded and parsed by
/// the daemon.
fn receive(t: &mut Tracer, cmd: &str, source: &str) -> Result<Program, String> {
    let request = frame(t, &source_request(cmd, source));
    parse(
        t,
        request.get("source").and_then(Value::as_str).unwrap_or(""),
    )
}

/// One socket round trip of the tiny `stats` verb: the cost of a request's
/// hop through the socket and the daemon's connection thread.
fn hop(t: &mut Tracer, client: &mut Client) -> Result<(), String> {
    t.span("daemon.hop", || client.stats())
        .map(drop)
        .map_err(|e| format!("stats round trip failed: {e}"))
}

/// A `{cmd, source}` request, as the client sends it.
fn source_request(cmd: &str, source: &str) -> Value {
    let mut m = request(cmd);
    m.insert("source".into(), Value::from(source));
    Value::Object(m)
}

/// The daemon's `analyze` response.
fn analyze_response(ctx: &AnalysisCtx, report: &Report, diagnostics_json: &str) -> Value {
    let mut m = Map::new();
    m.insert("ok".into(), Value::from(true));
    m.insert(
        "program_hash".into(),
        Value::from(format!("{:016x}", ctx.program_hash)),
    );
    m.insert("diagnostics_json".into(), Value::from(diagnostics_json));
    m.insert(
        "diagnostic_count".into(),
        Value::from(report.diagnostics.len()),
    );
    m.insert("stats".into(), report.stats.to_value());
    Value::Object(m)
}

/// The daemon's `notify_edit` response.
fn edit_response(ctx: &AnalysisCtx, stats: &InvalidationStats) -> Value {
    let mut m = Map::new();
    m.insert("ok".into(), Value::from(true));
    m.insert(
        "program_hash".into(),
        Value::from(format!("{:016x}", ctx.program_hash)),
    );
    m.insert("invalidation".into(), invalidation_to_value(stats));
    Value::Object(m)
}

/// One message's framing cost at both ends of the socket: encoded with
/// `write_frame` into memory and decoded with `read_frame`.
fn frame(t: &mut Tracer, message: &Value) -> Value {
    let (decoded, bytes) = t.span("daemon.frame", || {
        let mut buf = Vec::new();
        write_frame(&mut buf, message).expect("in-memory frame encodes");
        let bytes = buf.len();
        let decoded = read_frame(&mut std::io::Cursor::new(buf))
            .expect("in-memory frame decodes")
            .expect("one frame");
        (decoded, bytes)
    });
    t.count("daemon.frame_bytes", bytes as f64);
    decoded
}
