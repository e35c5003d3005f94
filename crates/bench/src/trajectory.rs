//! The bench trajectory: an append-only JSONL history of headline bench
//! numbers, one record per bench run, committed as `BENCH_TRAJECTORY.jsonl`
//! at the repository root.
//!
//! Each line is one record:
//!
//! ```text
//! {"schema":2,"bench":"table8_engine_scaling","git_rev":"2df8929",
//!  "recorded_at":"2026-08-08T12:00:00Z",
//!  "available_parallelism":8,"ivy_threads":1,"config":{...},
//!  "headline":{"paper_cold_seconds":1.92,"paper_warm_speedup":48.1}}
//! ```
//!
//! `schema` gates evolution, `git_rev` ties the numbers to a commit,
//! `headline` holds only numbers (so the dashboard can render any bench
//! without bench-specific code). Schema 2 added the host context every
//! perf comparison needs: `available_parallelism` (the machine) and
//! `ivy_threads` (the engine's thread count; the engine is serial, so the
//! writer stamps 1) — a trajectory mixing 2-core and 64-core records is
//! otherwise uninterpretable. The validator accepts schema 1 (without the host
//! fields) and schema 2; the writer only produces 2. [`validate_file`]
//! enforces exactly that shape and is what CI runs on every push;
//! [`render_report`] turns the history into the per-PR markdown dashboard
//! (`trajectory report`).

use serde_json::{Map, Value};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Trajectory schema version this writer produces. The validator also
/// accepts [`MIN_SCHEMA_VERSION`] records (pre-host-context history).
pub const SCHEMA_VERSION: u64 = 2;

/// Oldest schema version `validate_record` still accepts.
pub const MIN_SCHEMA_VERSION: u64 = 1;

/// One validated trajectory record.
#[derive(Debug, Clone)]
pub struct Record {
    /// Bench name (the `JSON-SUMMARY` `bench` field).
    pub bench: String,
    /// Short git revision the numbers were recorded at.
    pub git_rev: String,
    /// UTC timestamp, RFC-3339.
    pub recorded_at: String,
    /// Optional bench configuration.
    pub config: Option<Value>,
    /// Headline metric name → number.
    pub headline: Vec<(String, f64)>,
    /// Hardware threads the recording host had (schema ≥2; `None` on
    /// schema-1 history).
    pub available_parallelism: Option<u64>,
    /// Engine threads at recording time (schema ≥2; always 1 since the
    /// engine became serial).
    pub ivy_threads: Option<u64>,
}

/// The trajectory file path: `$IVY_TRAJECTORY` when set, otherwise
/// `BENCH_TRAJECTORY.jsonl` at the repository root (resolved relative to
/// this crate, so benches find it regardless of their working directory).
pub fn path() -> PathBuf {
    if let Ok(p) = std::env::var("IVY_TRAJECTORY") {
        return PathBuf::from(p);
    }
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_TRAJECTORY.jsonl")
}

/// The short git revision of the working tree, or `"unknown"` outside a
/// git checkout (records stay valid either way).
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Current UTC time as RFC-3339 (`2026-08-08T12:00:00Z`), computed from
/// the Unix epoch without a calendar dependency.
pub fn now_rfc3339() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = secs / 86_400;
    let (h, m, s) = ((secs / 3600) % 24, (secs / 60) % 60, secs % 60);
    // Civil-from-days (Howard Hinnant's algorithm), valid for the Unix era.
    let z = days as i64 + 719_468;
    let era = z / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = if month <= 2 { y + 1 } else { y };
    format!("{year:04}-{month:02}-{d:02}T{h:02}:{m:02}:{s:02}Z")
}

/// Appends one record to the trajectory file. The record is validated
/// before writing — this writer can never produce a line `validate_file`
/// would reject.
pub fn append(bench: &str, config: Option<Value>, headline: Map) -> io::Result<PathBuf> {
    let mut record = Map::new();
    record.insert("schema".into(), Value::from(SCHEMA_VERSION));
    record.insert("bench".into(), Value::from(bench));
    record.insert("git_rev".into(), Value::from(git_rev().as_str()));
    record.insert("recorded_at".into(), Value::from(now_rfc3339().as_str()));
    record.insert(
        "available_parallelism".into(),
        Value::from(
            std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(1),
        ),
    );
    // The engine runs its checker waves on the calling thread.
    record.insert("ivy_threads".into(), Value::from(1u64));
    if let Some(config) = config {
        record.insert("config".into(), config);
    }
    record.insert("headline".into(), Value::Object(headline));
    let value = Value::Object(record);
    let line = serde_json::to_string(&value)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
    validate_record(&value).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let path = path();
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)?;
    writeln!(file, "{line}")?;
    Ok(path)
}

fn field<'v>(v: &'v Value, key: &str) -> Result<&'v Value, String> {
    v.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

/// Validates one parsed record against the schema.
pub fn validate_record(v: &Value) -> Result<Record, String> {
    if v.as_object().is_none() {
        return Err("record is not an object".into());
    }
    let schema = field(v, "schema")?
        .as_u64()
        .ok_or("schema is not an integer")?;
    if !(MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&schema) {
        return Err(format!("unsupported schema version {schema}"));
    }
    // Schema 2 added the host context; schema-1 history legitimately
    // lacks it, but a schema-2 record without it is malformed.
    let host_count = |key: &str| -> Result<Option<u64>, String> {
        match v.get(key) {
            Some(value) => value
                .as_u64()
                .filter(|&n| n >= 1)
                .map(Some)
                .ok_or_else(|| format!("{key} is not a positive integer")),
            None if schema >= 2 => Err(format!("schema {schema} record is missing {key}")),
            None => Ok(None),
        }
    };
    let available_parallelism = host_count("available_parallelism")?;
    let ivy_threads = host_count("ivy_threads")?;
    let text = |key: &str| -> Result<String, String> {
        field(v, key)?
            .as_str()
            .map(String::from)
            .ok_or_else(|| format!("{key} is not a string"))
    };
    let bench = text("bench")?;
    if bench.is_empty() {
        return Err("bench is empty".into());
    }
    let config = v.get("config").cloned();
    if let Some(c) = &config {
        if c.as_object().is_none() {
            return Err("config is not an object".into());
        }
    }
    let headline_obj = field(v, "headline")?;
    let mut headline = Vec::new();
    match headline_obj {
        Value::Object(m) => {
            for (key, value) in m.iter() {
                let n = value
                    .as_f64()
                    .ok_or_else(|| format!("headline {key:?} is not a number"))?;
                if !n.is_finite() {
                    return Err(format!("headline {key:?} is not finite"));
                }
                headline.push((key.clone(), n));
            }
        }
        _ => return Err("headline is not an object".into()),
    }
    if headline.is_empty() {
        return Err("headline is empty".into());
    }
    Ok(Record {
        bench,
        git_rev: text("git_rev")?,
        recorded_at: text("recorded_at")?,
        config,
        headline,
        available_parallelism,
        ivy_threads,
    })
}

/// Validates the whole trajectory file; returns its records in order. A
/// missing file is an empty (valid) trajectory.
pub fn validate_file(path: &Path) -> Result<Vec<Record>, String> {
    let content = match std::fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("read {}: {e}", path.display())),
    };
    let mut records = Vec::new();
    for (i, line) in content.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value =
            serde_json::from_str(line).map_err(|e| format!("line {}: not JSON: {e:?}", i + 1))?;
        records.push(validate_record(&value).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(records)
}

fn fmt_number(n: f64) -> String {
    if n == n.trunc() && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else if n.abs() >= 100.0 {
        format!("{n:.1}")
    } else {
        format!("{n:.4}")
    }
}

/// Renders the trajectory as the per-PR markdown dashboard: one section
/// per bench, one row per record, one column per headline metric (the
/// union across that bench's records — absent metrics render as `—`).
pub fn render_report(records: &[Record]) -> String {
    let mut out = String::from("# Bench trajectory\n");
    let mut benches: Vec<&str> = records.iter().map(|r| r.bench.as_str()).collect();
    benches.sort_unstable();
    benches.dedup();
    if benches.is_empty() {
        out.push_str("\nNo records yet.\n");
        return out;
    }
    for bench in benches {
        let rows: Vec<&Record> = records.iter().filter(|r| r.bench == bench).collect();
        let mut metrics: Vec<&str> = rows
            .iter()
            .flat_map(|r| r.headline.iter().map(|(k, _)| k.as_str()))
            .collect();
        metrics.sort_unstable();
        metrics.dedup();
        out.push_str(&format!("\n## {bench}\n\n"));
        out.push_str("| recorded at | rev |");
        for m in &metrics {
            out.push_str(&format!(" {m} |"));
        }
        out.push_str("\n|---|---|");
        out.push_str(&"---|".repeat(metrics.len()));
        out.push('\n');
        for r in rows {
            out.push_str(&format!("| {} | `{}` |", r.recorded_at, r.git_rev));
            for m in &metrics {
                let cell = r
                    .headline
                    .iter()
                    .find(|(k, _)| k == m)
                    .map(|(_, v)| fmt_number(*v))
                    .unwrap_or_else(|| "—".to_string());
                out.push_str(&format!(" {cell} |"));
            }
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_map() -> Map {
        let text = r#"{"schema":1,"bench":"table8_engine_scaling","git_rev":"abc1234",
                "recorded_at":"2026-08-08T00:00:00Z",
                "config":{"kernel":"paper"},
                "headline":{"cold_seconds":1.5,"warm_speedup":40.0}}"#;
        match serde_json::from_str(text).unwrap() {
            Value::Object(m) => m,
            _ => unreachable!(),
        }
    }

    #[test]
    fn valid_records_pass_and_decode() {
        // Schema-1 history (no host context) stays valid.
        let r = validate_record(&Value::Object(valid_map())).unwrap();
        assert_eq!(r.bench, "table8_engine_scaling");
        assert_eq!(r.headline.len(), 2);
        assert_eq!(r.available_parallelism, None);
        assert_eq!(r.ivy_threads, None);
    }

    #[test]
    fn schema_two_requires_and_decodes_host_context() {
        let mut m = valid_map();
        m.insert("schema".into(), Value::from(2u64));
        // A schema-2 record without the host fields is malformed...
        let err = validate_record(&Value::Object(m.clone())).unwrap_err();
        assert!(err.contains("available_parallelism"), "{err}");
        // ...and with them it decodes.
        m.insert("available_parallelism".into(), Value::from(8u64));
        m.insert("ivy_threads".into(), Value::from(4u64));
        let r = validate_record(&Value::Object(m.clone())).unwrap();
        assert_eq!(r.available_parallelism, Some(8));
        assert_eq!(r.ivy_threads, Some(4));
        // Zero threads is nonsense on any schema.
        m.insert("ivy_threads".into(), Value::from(0u64));
        assert!(validate_record(&Value::Object(m)).is_err());
    }

    #[test]
    fn schema_violations_are_rejected_with_reasons() {
        let mut wrong_schema = valid_map();
        wrong_schema.insert("schema".into(), Value::from(99u64));
        assert!(validate_record(&Value::Object(wrong_schema))
            .unwrap_err()
            .contains("schema"));

        let mut no_headline = valid_map();
        no_headline.remove("headline");
        assert!(validate_record(&Value::Object(no_headline))
            .unwrap_err()
            .contains("headline"));

        let mut bad_metric = valid_map();
        bad_metric.insert(
            "headline".into(),
            serde_json::from_str(r#"{"cold":"fast"}"#).unwrap(),
        );
        assert!(validate_record(&Value::Object(bad_metric)).is_err());
    }

    #[test]
    fn append_writes_lines_validate_file_accepts() {
        let dir = std::env::temp_dir().join(format!("ivy-trajectory-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let file = dir.join("t.jsonl");
        let _ = std::fs::remove_file(&file);
        // Route this test's appends to the temp file.
        std::env::set_var("IVY_TRAJECTORY", &file);
        let mut headline = Map::new();
        headline.insert("cold_seconds".into(), Value::from(1.25));
        append("table_test", None, headline.clone()).unwrap();
        append("table_test", None, headline).unwrap();
        std::env::remove_var("IVY_TRAJECTORY");
        let records = validate_file(&file).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].bench, "table_test");
        // The writer stamps host context on every record it produces.
        assert!(records[0].available_parallelism.is_some());
        assert_eq!(records[0].ivy_threads, Some(1));
        let report = render_report(&records);
        assert!(report.contains("## table_test"));
        assert!(report.contains("cold_seconds"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_an_empty_trajectory() {
        let records = validate_file(Path::new("/nonexistent/trajectory.jsonl")).unwrap();
        assert!(records.is_empty());
        assert!(render_report(&records).contains("No records"));
    }

    #[test]
    fn timestamps_are_rfc3339_shaped() {
        let t = now_rfc3339();
        assert_eq!(t.len(), 20, "{t}");
        assert!(t.ends_with('Z'));
        assert_eq!(&t[4..5], "-");
        assert_eq!(&t[10..11], "T");
    }
}
