//! The daemon wire protocol: length-prefixed JSON frames.
//!
//! Every message — request or response — is one JSON value encoded as
//! UTF-8, preceded by its byte length as a little-endian `u32`:
//!
//! ```text
//! [len: u32 LE][payload: len bytes of JSON]
//! ```
//!
//! Requests are objects with a `"cmd"` field (`analyze`, `notify_edit`,
//! `explain`, `stats`, `metrics`, `shutdown`); responses carry `"ok": true` plus
//! command-specific fields, or `"ok": false` with an `"error"` string. A
//! client may issue any number of requests over one connection; the server
//! answers them in order and treats a clean close as the end of the
//! session.
//!
//! # Content-addressed `analyze` (protocol 2)
//!
//! A client names the program by the [`SourceDigest`] of its exact source
//! bytes (32 hex digits) and ships the source only when the daemon asks
//! for it. The answer is a JSON header frame announcing
//! `diagnostics_bytes`, followed by one *raw* frame holding the stable
//! diagnostics serialization itself — no JSON string escaping on either
//! side:
//!
//! ```text
//! -> {"cmd":"analyze","digest":"5c1e…(32 hex)"}
//! <- {"ok":true,"need_source":true}                  (digest not resident)
//! -> {"cmd":"analyze","digest":"5c1e…","source":"fn f() { } ..."}
//! <- {"ok":true,"program_hash":"0f3a…","diagnostic_count":12,
//!     "diagnostics_bytes":48213,"stats":{"functions":41,...}}
//! <- [len: u32 LE][48213 bytes: the diagnostics JSON, raw UTF-8]
//!
//! -> {"cmd":"analyze","digest":"5c1e…"}              (any later request)
//! <- header frame + raw frame, as above
//! ```
//!
//! The daemon resolves a digest through a bounded answer index (as many
//! entries as its context store holds programs), filled by every
//! `analyze` and `notify_edit` that carried source. A digest resolves
//! only while the analysis context of its program is still resident;
//! once the context store evicts it, the digest gets `need_source` again.
//! When the serving run was entirely cache-served, the daemon memoizes
//! the encoded response bytes and answers later requests for the digest
//! with them verbatim — byte-identical, stats included, to a fresh run —
//! until the context they were computed against leaves the store or is
//! replaced by an edit. A request carrying both fields must carry the
//! source the digest names; a mismatch is an error, never an index entry.
//! Each index entry keeps its source text: it is the base a splice-framed
//! `notify_edit` edits.
//!
//! # Splice-framed `notify_edit` (protocol 3)
//!
//! An edit names its base text by digest and ships only the bytes that
//! changed: replace `remove` bytes at byte offset `at` of the base with
//! `insert`. `digest` names the edited text; the daemon splices, checks
//! that the result has that digest, and diffs the edited program against
//! the base's context. Offsets past the end of the base, offsets that
//! split a UTF-8 character, or a digest mismatch are errors. A base the
//! index does not hold gets `need_source`, and the client resends the
//! full text in the full-source shape. That shape diffs against the
//! resident context: the program the last `analyze` or edit served.
//!
//! ```text
//! -> {"cmd":"notify_edit","base":"5c1e…","digest":"9a02…",
//!     "at":48213,"remove":1,"insert":"2"}
//! <- {"ok":true,"need_source":true}                  (base not indexed)
//! -> {"cmd":"notify_edit","source":"<full edited program source>"}
//! <- {"ok":true,"program_hash":"77b1…","reparse":"function","invalidation":{
//!     "changed_functions":["watchdog_tick"],"env_changed":false,
//!     "seeds":1,"invalidated":9,"retained":210,"revalidated":64}}
//! ```
//!
//! Both shapes re-parse the edited text against the base text, and
//! `reparse` says how: `function` when the edit stays inside one
//! function and keeps its line count (only that function is lexed and
//! parsed), `full` when the whole text was parsed, `unchanged` when the
//! text is the base text.
//!
//! # Other verbs
//!
//! ```text
//! -> {"cmd":"explain","fn":"f","lvalue":"p","target":"global x"}
//! <- {"ok":true,"fact":"`f::p` may point to `global x`","replay_verified":true,
//!     "provenance_facts":41,"chain":[{"fact":"f::p may point to global x",
//!     "rule":"addr-of"},...],"rendered":["f::p may point to global x  [addr-of seed]",...]}
//!
//! -> {"cmd":"metrics"}
//! <- {"ok":true,"metrics_text":"# TYPE ivy_daemon_requests_served_total counter\n..."}
//! ```
//!
//! `analyze` has one request shape: every frame carries a `digest`, and
//! one without it gets an `ok:false` error naming the field. There is no
//! `diagnostics` verb: its answer is the diagnostics of `analyze`, and
//! [`Client::diagnostics`](crate::Client::diagnostics) sends `analyze`.
//! `metrics` returns a Prometheus-style text exposition
//! (request counts per verb, engine cache hit rates, answer-memo traffic,
//! points-to batch reuse, persist traffic, plus every in-process
//! telemetry counter); `stats` returns the same ground truth as
//! structured JSON.

use ivy_analysis::summary::{fnv1a, mix};
use ivy_cmir::parser::changed_range;
use ivy_engine::InvalidationStats;
use serde_json::{Map, Value};
use std::fmt;
use std::io::{self, Read, Write};

/// Version of the framing + message vocabulary; servers report it in
/// `stats` responses so clients can detect skew. Version 2 added the
/// digest-addressed `analyze` and its raw diagnostics frame; version 3
/// the splice-framed `notify_edit` and its `reparse` field; version 4
/// removed the digest-less `analyze` shape.
pub const PROTOCOL_VERSION: u32 = 4;

/// Upper bound on one frame's payload — a multi-megabyte kernel source
/// fits comfortably; anything larger is a corrupt or hostile length
/// prefix, not a request.
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

fn invalid(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// Appends one raw frame — `bytes` behind their length prefix — to `out`.
pub fn encode_raw_frame(bytes: &[u8], out: &mut Vec<u8>) -> io::Result<()> {
    if bytes.len() > MAX_FRAME_BYTES as usize {
        return Err(invalid("frame exceeds MAX_FRAME_BYTES"));
    }
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
    Ok(())
}

/// Appends one JSON frame to `out`.
pub fn encode_frame(message: &Value, out: &mut Vec<u8>) -> io::Result<()> {
    let text = serde_json::to_string(message).map_err(|e| invalid(format!("encode: {e:?}")))?;
    encode_raw_frame(text.as_bytes(), out)
}

/// Writes one frame.
pub fn write_frame(writer: &mut impl Write, message: &Value) -> io::Result<()> {
    let mut out = Vec::new();
    encode_frame(message, &mut out)?;
    writer.write_all(&out)?;
    writer.flush()
}

/// Reads one frame's length prefix. `Ok(None)` is a clean end of session
/// (the peer closed before the first byte); a close *inside* the prefix
/// is an error.
fn read_len(reader: &mut impl Read) -> io::Result<Option<u32>> {
    let mut len = [0u8; 4];
    match reader.read(&mut len)? {
        0 => return Ok(None),
        4 => {}
        n => reader.read_exact(&mut len[n..])?,
    }
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME_BYTES {
        return Err(invalid(format!(
            "frame length {len} exceeds MAX_FRAME_BYTES"
        )));
    }
    Ok(Some(len))
}

/// Reads a `len`-byte payload into `payload`. Memory grows with the bytes
/// that actually arrive, never with the declared length alone, so a bare
/// length prefix cannot make the reader reserve `MAX_FRAME_BYTES`.
fn read_payload(reader: &mut impl Read, len: u32, payload: &mut Vec<u8>) -> io::Result<()> {
    /// Up-front reservation cap; larger payloads grow as they arrive.
    const RESERVE: usize = 64 * 1024;
    payload.reserve((len as usize).min(RESERVE));
    let read = reader.take(u64::from(len)).read_to_end(payload)?;
    if read < len as usize {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "peer closed inside a frame",
        ));
    }
    Ok(())
}

/// Reads a `len`-byte payload as UTF-8 text.
fn read_text(reader: &mut impl Read, len: u32) -> io::Result<String> {
    let mut payload = Vec::new();
    read_payload(reader, len, &mut payload)?;
    String::from_utf8(payload).map_err(|_| invalid("frame is not UTF-8"))
}

/// Reads one frame. `Ok(None)` is a clean end of session (the peer closed
/// between frames); a close *inside* a frame is an error.
pub fn read_frame(reader: &mut impl Read) -> io::Result<Option<Value>> {
    let Some(len) = read_len(reader)? else {
        return Ok(None);
    };
    let text = read_text(reader, len)?;
    let value = serde_json::from_str(&text).map_err(|e| invalid(format!("frame JSON: {e:?}")))?;
    Ok(Some(value))
}

/// Reads one raw frame (the diagnostics frame that follows a
/// digest-addressed `analyze` header) as text, without a JSON decode.
/// The frame is mandatory where it is read, so a close anywhere — even
/// before its first byte — is an error.
pub fn read_raw_frame(reader: &mut impl Read) -> io::Result<String> {
    let len = read_len(reader)?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "peer closed before a raw frame",
        )
    })?;
    read_text(reader, len)
}

/// A 128-bit content digest of a program's exact source bytes — the name
/// a digest-addressed `analyze` uses for its program. Two 64-bit [`mix`]
/// chains over the source's little-endian words, seeded apart with
/// [`fnv1a`] (the second lane also rotates each word), each finished with
/// the length. Word-wise chains keep the digest well under the cost of
/// the request it names. It addresses a local daemon's answers, not an
/// adversary's: it is not a cryptographic hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SourceDigest(pub u128);

impl SourceDigest {
    /// The digest of `source`.
    pub fn of(source: &str) -> SourceDigest {
        let bytes = source.as_bytes();
        let mut lo = fnv1a(b"ivy/source-digest/lo");
        let mut hi = fnv1a(b"ivy/source-digest/hi");
        let mut lanes = |word: u64| {
            lo = mix(lo, word);
            hi = mix(hi, word.rotate_left(32));
        };
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            lanes(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        tail[..words.remainder().len()].copy_from_slice(words.remainder());
        lanes(u64::from_le_bytes(tail));
        lanes(bytes.len() as u64);
        SourceDigest((u128::from(hi) << 64) | u128::from(lo))
    }

    /// Parses the wire form: exactly 32 hex digits. Anything else —
    /// wrong length, a sign, non-hex bytes — is `None`.
    pub fn parse(hex: &str) -> Option<SourceDigest> {
        if hex.len() != 32 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u128::from_str_radix(hex, 16).ok().map(SourceDigest)
    }
}

/// The wire form: 32 lowercase hex digits.
impl fmt::Display for SourceDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// One contiguous edit of a text: `remove` bytes at byte offset `at`
/// replaced with `insert` (the payload of a splice-framed `notify_edit`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Splice<'a> {
    /// Byte offset of the edit in the base text.
    pub at: u64,
    /// Bytes of the base text the edit removes.
    pub remove: u64,
    /// Text the edit inserts.
    pub insert: &'a str,
}

impl<'a> Splice<'a> {
    /// The smallest splice turning `base` into `edited`.
    pub fn between(base: &str, edited: &'a str) -> Splice<'a> {
        let (at, base_end, edited_end) = changed_range(base, edited);
        Splice {
            at: at as u64,
            remove: (base_end - at) as u64,
            insert: &edited[at..edited_end],
        }
    }

    /// The spliced text. An edit range past the end of `base` (or whose
    /// end overflows) or offsets inside a UTF-8 character are errors.
    pub fn apply(&self, base: &str) -> Result<String, &'static str> {
        let end = self
            .at
            .checked_add(self.remove)
            .filter(|&end| end <= base.len() as u64)
            .ok_or("the splice range runs past the end of the base source")?;
        let (at, end) = (self.at as usize, end as usize);
        if !base.is_char_boundary(at) || !base.is_char_boundary(end) {
            return Err("the splice offsets split a UTF-8 character");
        }
        let mut out = String::with_capacity(base.len() - (end - at) + self.insert.len());
        out.push_str(&base[..at]);
        out.push_str(self.insert);
        out.push_str(&base[end..]);
        Ok(out)
    }
}

/// Builds a request object.
pub fn request(cmd: &str) -> Map {
    let mut m = Map::new();
    m.insert("cmd".into(), Value::from(cmd));
    m
}

/// Builds the uniform error response.
pub fn error_response(message: &str) -> Value {
    let mut m = Map::new();
    m.insert("ok".into(), Value::from(false));
    m.insert("error".into(), Value::from(message));
    Value::Object(m)
}

/// True if a response reports success.
pub fn response_ok(response: &Value) -> bool {
    response.get("ok").and_then(Value::as_bool) == Some(true)
}

/// Extracts a response's error message (when `ok` is false).
pub fn response_error(response: &Value) -> String {
    response
        .get("error")
        .and_then(Value::as_str)
        .unwrap_or("malformed response")
        .to_string()
}

/// Encodes [`InvalidationStats`] as the `invalidation` response object.
pub fn invalidation_to_value(stats: &InvalidationStats) -> Value {
    let mut m = Map::new();
    m.insert(
        "changed_functions".into(),
        Value::Array(
            stats
                .changed_functions
                .iter()
                .map(|f| Value::from(f.as_str()))
                .collect(),
        ),
    );
    m.insert("env_changed".into(), Value::from(stats.env_changed));
    m.insert("seeds".into(), Value::from(stats.seeds));
    m.insert("invalidated".into(), Value::from(stats.invalidated));
    m.insert("retained".into(), Value::from(stats.retained));
    m.insert("revalidated".into(), Value::from(stats.revalidated));
    Value::Object(m)
}

/// Decodes the `invalidation` response object.
pub fn invalidation_from_value(v: &Value) -> Option<InvalidationStats> {
    let size = |key: &str| v.get(key).and_then(Value::as_u64).map(|n| n as usize);
    Some(InvalidationStats {
        changed_functions: v
            .get("changed_functions")?
            .as_array()?
            .iter()
            .map(|f| f.as_str().map(String::from))
            .collect::<Option<_>>()?,
        env_changed: v.get("env_changed")?.as_bool()?,
        seeds: size("seeds")?,
        invalidated: size("invalidated")?,
        retained: size("retained")?,
        revalidated: size("revalidated")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let mut req = request("analyze");
        req.insert("source".into(), Value::from("fn f() { }"));
        let msg = Value::Object(req);
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();
        write_frame(&mut buf, &msg).unwrap();
        let mut reader = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), msg);
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), msg);
        // Clean EOF between frames.
        assert!(read_frame(&mut reader).unwrap().is_none());
    }

    #[test]
    fn oversized_and_torn_frames_are_errors_not_hangs() {
        let mut oversized = Vec::new();
        oversized.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        assert!(read_frame(&mut io::Cursor::new(oversized)).is_err());

        let mut torn = Vec::new();
        write_frame(&mut torn, &Value::from("hello")).unwrap();
        torn.truncate(torn.len() - 2);
        assert!(read_frame(&mut io::Cursor::new(torn)).is_err());
    }

    #[test]
    fn a_bare_length_prefix_does_not_reserve_the_declared_length() {
        // A hostile peer declares the largest legal frame and sends ten
        // bytes: the read fails as a torn frame, and the buffer only grew
        // by what arrived plus the fixed up-front reservation.
        let mut hostile = MAX_FRAME_BYTES.to_le_bytes().to_vec();
        hostile.extend_from_slice(&[b' '; 10]);
        let err = read_frame(&mut io::Cursor::new(&hostile)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let mut payload = Vec::new();
        assert!(read_payload(
            &mut io::Cursor::new(&hostile[4..]),
            MAX_FRAME_BYTES,
            &mut payload
        )
        .is_err());
        assert_eq!(payload.len(), 10);
        assert!(
            payload.capacity() < 1024 * 1024,
            "reserved {} bytes for a 10-byte arrival",
            payload.capacity()
        );
    }

    #[test]
    fn raw_frames_roundtrip_without_a_json_decode() {
        let text = "[{\"checker\":\"deputy\",\"message\":\"caf\u{e9} \\\" quoted\"}]";
        let mut buf = Vec::new();
        encode_frame(&Value::from("header"), &mut buf).unwrap();
        encode_raw_frame(text.as_bytes(), &mut buf).unwrap();
        let mut reader = io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut reader).unwrap().unwrap(),
            Value::from("header")
        );
        assert_eq!(read_raw_frame(&mut reader).unwrap(), text);
        // The raw frame is mandatory: a close before it is an error, not
        // an empty answer.
        let err = read_raw_frame(&mut reader).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn hostile_raw_frames_are_errors_not_hangs() {
        // Over the size cap.
        let oversized = (MAX_FRAME_BYTES + 1).to_le_bytes();
        let err = read_raw_frame(&mut io::Cursor::new(oversized)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Not UTF-8.
        let mut bad = Vec::new();
        encode_raw_frame(&[b'[', 0xff, 0xfe, b']'], &mut bad).unwrap();
        let err = read_raw_frame(&mut io::Cursor::new(bad)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Torn inside the payload and inside the length prefix.
        let mut torn = Vec::new();
        encode_raw_frame(b"[1,2,3]", &mut torn).unwrap();
        for cut in [2, torn.len() - 1] {
            let err = read_raw_frame(&mut io::Cursor::new(&torn[..cut])).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn digests_roundtrip_their_wire_form_and_reject_malformed_ones() {
        let digest = SourceDigest::of("fn f() { }");
        let wire = digest.to_string();
        assert_eq!(wire.len(), 32);
        assert!(wire
            .bytes()
            .all(|b| b.is_ascii_digit() || b.is_ascii_lowercase()));
        assert_eq!(SourceDigest::parse(&wire), Some(digest));
        assert_eq!(SourceDigest::parse(&wire.to_uppercase()), Some(digest));
        for malformed in [
            "",
            &wire[..31],
            &format!("{wire}0"),
            &format!("+{}", &wire[1..]),
            &format!("g{}", &wire[1..]),
            &format!("\u{e9}{}", &wire[2..]),
            "0x000000000000000000000000000000",
        ] {
            assert_eq!(SourceDigest::parse(malformed), None, "{malformed:?}");
        }
    }

    #[test]
    fn digests_separate_nearby_sources() {
        let sources = [
            "",
            "a",
            "a\0",
            "a\0\0\0\0\0\0\0",
            "fn f() { }",
            "fn f() {  }",
            "fn g() { }",
            "fn f() { }fn f() { }",
        ];
        let digests: std::collections::HashSet<SourceDigest> =
            sources.iter().map(|s| SourceDigest::of(s)).collect();
        assert_eq!(digests.len(), sources.len());
        assert_eq!(
            SourceDigest::of("fn f() { }"),
            SourceDigest::of("fn f() { }")
        );
        // Both lanes move for a one-byte change.
        let (a, b) = (SourceDigest::of("x = 1;").0, SourceDigest::of("x = 2;").0);
        assert_ne!(a >> 64, b >> 64);
        assert_ne!(a as u64, b as u64);
    }

    #[test]
    fn splices_reproduce_the_edited_text_and_reject_bad_ranges() {
        let base = "fn f() { x = 1; } // caf\u{e9}";
        for edited in [
            "fn f() { x = 12; } // caf\u{e9}",
            "fn f() { } // caf\u{e9}",
            "fn f() { x = 1; } // cafe",
            "",
            base,
        ] {
            let splice = Splice::between(base, edited);
            assert_eq!(splice.apply(base).as_deref(), Ok(edited));
        }
        let e_acute = base.len() as u64 - 1;
        for (at, remove) in [(0, base.len() as u64 + 1), (1, u64::MAX), (e_acute, 0)] {
            let splice = Splice {
                at,
                remove,
                insert: "",
            };
            assert!(splice.apply(base).is_err(), "{splice:?}");
        }
    }

    #[test]
    fn invalidation_stats_roundtrip() {
        let stats = InvalidationStats {
            changed_functions: vec!["watchdog_tick".into()],
            env_changed: false,
            seeds: 1,
            invalidated: 9,
            retained: 210,
            revalidated: 64,
        };
        assert_eq!(
            invalidation_from_value(&invalidation_to_value(&stats)).unwrap(),
            stats
        );
        assert!(invalidation_from_value(&Value::from("nope")).is_none());
    }
}
