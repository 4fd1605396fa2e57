//! Machine-readable experiment reports.
//!
//! The figure binaries print human tables; CI and regression tooling need
//! the same numbers structured. This module provides a dependency-free
//! JSON value type ([`Json`]) with a writer *and* a parser (the perf gate
//! reads its committed baseline back), plus [`ExperimentReport`] /
//! [`PointReport`] — the serializable form of one experiment's figure
//! points, including the span-derived per-phase utilization breakdowns of
//! [`gpaw_simmpi::RunReport`].
//!
//! Deliberately not serde: the repo builds offline with zero external
//! dependencies, and the schema is small enough that a hand-rolled
//! renderer/parser (~150 lines) is the cheaper maintenance burden.

use gpaw_des::{SpanAgg, SpanKind};
use gpaw_simmpi::RunReport;
use std::fmt::Write as _;

/// Schema version stamped into every report; bump on breaking changes.
pub const SCHEMA_VERSION: u64 = 1;

/// The deepest array/object nesting [`Json::parse`] accepts — far above
/// any document this repo writes, far below what the recursive parser's
/// stack can hold.
pub const MAX_NESTING: usize = 128;

/// A JSON value. Objects keep insertion order so output is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => render_num(*x, out),
            Json::Str(s) => render_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_str(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a JSON document. Errors carry the byte offset. Arrays and
    /// objects nest at most [`MAX_NESTING`] deep, so no input can exhaust
    /// the stack.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }
}

fn render_num(x: f64, out: &mut String) {
    if !x.is_finite() {
        out.push_str("null"); // JSON has no NaN/Inf
    } else if x.fract() == 0.0 && x.abs() < 9e15 {
        let _ = write!(out, "{}", x as i64);
    } else {
        let _ = write!(out, "{x}");
    }
}

fn render_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
    }
}

/// Parse one value whose enclosing arrays and objects are `depth` deep.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'[' | b'{')) && depth == MAX_NESTING {
        return Err(format!(
            "nesting deeper than {MAX_NESTING} at byte {pos}",
            pos = *pos
        ));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(b, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(b, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ":")?;
                let val = parse_value(b, pos, depth + 1)?;
                members.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(b, pos).map(Json::Num),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut s = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(s);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b't') => s.push('\t'),
                    Some(b'r') => s.push('\r'),
                    Some(b'b') => s.push('\u{8}'),
                    Some(b'f') => s.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        s.push(char::from_u32(code).ok_or("invalid \\u escape".to_string())?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 character.
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let c = match rest.chars().next() {
                    Some(c) => c,
                    None => unreachable!("the Some(_) arm guarantees a remaining byte"),
                };
                s.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

/// A finite number: JSON has no infinities, and one that overflows `f64`
/// could not render back to itself.
fn parse_number(b: &[u8], pos: &mut usize) -> Result<f64, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|text| text.parse::<f64>().ok())
        .filter(|x| x.is_finite())
        .ok_or_else(|| format!("bad number at byte {start}"))
}

/// The span-kind totals of one run as a JSON object of per-kind fractions
/// of aggregate thread time, plus the uncovered remainder as `"idle"`.
pub fn phase_fractions_json(phases: &SpanAgg, thread_secs_total: f64) -> Json {
    let mut members = Vec::new();
    let mut covered = 0.0;
    for kind in SpanKind::ALL {
        let f = if thread_secs_total > 0.0 {
            phases.get(kind).as_secs_f64() / thread_secs_total
        } else {
            0.0
        };
        covered += f;
        members.push((kind.key().to_string(), Json::Num(f)));
    }
    members.push(("idle".to_string(), Json::Num((1.0 - covered).max(0.0))));
    Json::Obj(members)
}

/// One figure point in machine-readable form.
#[derive(Debug, Clone)]
pub struct PointReport {
    /// Point identifier, unique within the experiment (e.g.
    /// `"fig5/256/hybrid-multiple"`).
    pub name: String,
    /// Approach label (empty for non-approach points like pings).
    pub approach: String,
    /// Total CPU cores simulated.
    pub cores: usize,
    /// Batch size used.
    pub batch: usize,
    /// The run itself.
    pub run: RunReport,
}

impl PointReport {
    /// Serialize, including the per-phase utilization breakdown.
    pub fn to_json(&self) -> Json {
        let r = &self.run;
        let thread_secs = r.seconds() * r.threads as f64;
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("approach".into(), Json::Str(self.approach.clone())),
            ("cores".into(), Json::Num(self.cores as f64)),
            ("batch".into(), Json::Num(self.batch as f64)),
            ("seconds".into(), Json::Num(r.seconds())),
            ("threads".into(), Json::Num(r.threads as f64)),
            ("messages".into(), Json::Num(r.messages as f64)),
            ("bytes_per_node".into(), Json::Num(r.bytes_per_node as f64)),
            (
                "network_bytes_per_node".into(),
                Json::Num(r.network_bytes_per_node as f64),
            ),
            ("flops".into(), Json::Num(r.flops)),
            ("utilization".into(), Json::Num(r.utilization)),
            (
                "utilization_from_spans".into(),
                Json::Num(r.utilization_from_spans()),
            ),
            (
                "utilization_paper_scale".into(),
                Json::Num(r.utilization_paper_scale()),
            ),
            (
                "max_link_utilization".into(),
                Json::Num(r.max_link_utilization),
            ),
            (
                "phase_fractions".into(),
                phase_fractions_json(&r.phases, thread_secs),
            ),
            (
                "net".into(),
                Json::Obj(vec![
                    ("nodes".into(), Json::Num(r.net.nodes as f64)),
                    ("bytes_total".into(), Json::Num(r.net.bytes_total as f64)),
                    (
                        "messages_total".into(),
                        Json::Num(r.net.messages_total as f64),
                    ),
                    (
                        "link_busy_max_secs".into(),
                        Json::Num(r.net.link_busy_max.as_secs_f64()),
                    ),
                ]),
            ),
        ])
    }
}

/// A whole experiment's machine-readable report.
#[derive(Debug, Clone, Default)]
pub struct ExperimentReport {
    /// Experiment name (e.g. `"fig5_speedup"`).
    pub name: String,
    /// Figure points, in emission order.
    pub points: Vec<PointReport>,
    /// Extra scalar metrics outside any single run (e.g. ping
    /// bandwidths), as (name, value) pairs.
    pub scalars: Vec<(String, f64)>,
}

impl ExperimentReport {
    /// Start an empty report.
    pub fn new(name: &str) -> ExperimentReport {
        ExperimentReport {
            name: name.to_string(),
            ..Default::default()
        }
    }

    /// Record one figure point.
    pub fn push(
        &mut self,
        name: String,
        approach: &str,
        cores: usize,
        batch: usize,
        run: RunReport,
    ) {
        self.points.push(PointReport {
            name,
            approach: approach.to_string(),
            cores,
            batch,
            run,
        });
    }

    /// Record a named scalar metric.
    pub fn scalar(&mut self, name: &str, value: f64) {
        self.scalars.push((name.to_string(), value));
    }

    /// Serialize the whole report.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema_version".into(), Json::Num(SCHEMA_VERSION as f64)),
            ("experiment".into(), Json::Str(self.name.clone())),
            (
                "points".into(),
                Json::Arr(self.points.iter().map(PointReport::to_json).collect()),
            ),
            (
                "scalars".into(),
                Json::Obj(
                    self.scalars
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Write the report to `path` (pretty enough for diffs: one point per
    /// line would complicate the writer; compact JSON plus `git diff
    /// --word-diff` works fine in practice).
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().render() + "\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trip() {
        let v = Json::Obj(vec![
            ("a".into(), Json::Num(1.5)),
            ("b".into(), Json::Str("x\"y\\z\nw".into())),
            (
                "c".into(),
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Num(-3.0)]),
            ),
            ("d".into(), Json::Obj(vec![])),
        ]);
        let text = v.render();
        let back = Json::parse(&text).expect("parses");
        assert_eq!(back, v);
    }

    #[test]
    fn integers_render_without_exponent() {
        assert_eq!(Json::Num(16384.0).render(), "16384");
        assert_eq!(Json::Num(1e10).render(), "10000000000");
        assert_eq!(Json::Num(0.5).render(), "0.5");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn parse_handles_escapes_and_numbers() {
        let v = Json::parse(r#"{"s":"aA\n","n":-1.25e2}"#).expect("parses");
        assert_eq!(v.get("s").and_then(Json::as_str), Some("aA\n"));
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(-125.0));
    }

    #[test]
    fn phase_fractions_cover_unit_interval() {
        let mut agg = SpanAgg::new();
        agg.add(SpanKind::Compute, gpaw_des::SimDuration::from_secs(3));
        agg.add(SpanKind::Wait, gpaw_des::SimDuration::from_secs(1));
        let j = phase_fractions_json(&agg, 8.0);
        let compute = j.get("compute").and_then(Json::as_f64).unwrap();
        let wait = j.get("wait").and_then(Json::as_f64).unwrap();
        let idle = j.get("idle").and_then(Json::as_f64).unwrap();
        assert!((compute - 0.375).abs() < 1e-12);
        assert!((wait - 0.125).abs() < 1e-12);
        assert!((idle - 0.5).abs() < 1e-12);
    }

    #[test]
    fn deep_nesting_is_an_error_naming_the_offset_not_a_stack_overflow() {
        let err = Json::parse(&"[".repeat(200_000)).unwrap_err();
        assert!(err.contains(&format!("at byte {MAX_NESTING}")), "{err}");
        let deepest = format!("{}{}", "[".repeat(MAX_NESTING), "]".repeat(MAX_NESTING));
        assert!(Json::parse(&deepest).is_ok());
        let over = format!("{{\"a\":{deepest}}}");
        assert!(Json::parse(&over).unwrap_err().contains("nesting deeper"));
    }

    /// A random value at most `depth` levels deep.
    fn random_value(rng: &mut gpaw_des::SplitMix64, depth: usize) -> Json {
        let pick = |rng: &mut gpaw_des::SplitMix64, n: u64| rng.next_below(n) as usize;
        let word = |rng: &mut gpaw_des::SplitMix64| -> String {
            (0..pick(rng, 6))
                .map(|_| ['a', '"', '\\', '\n', 'é', '\u{1}', ' '][pick(rng, 7)])
                .collect()
        };
        match pick(rng, if depth == 0 { 4 } else { 6 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.next_below(2) == 1),
            2 => Json::Num(
                [
                    0.0,
                    -2.5,
                    1e-9,
                    16384.0,
                    1e300,
                    f64::from_bits(rng.next_u64() >> 2),
                ][pick(rng, 6)],
            ),
            3 => Json::Str(word(rng)),
            4 => Json::Arr(
                (0..pick(rng, 4))
                    .map(|_| random_value(rng, depth - 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..pick(rng, 4))
                    .map(|_| (word(rng), random_value(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn fuzzed_documents_never_panic_and_every_success_round_trips() {
        const ALPHABET: &[char] = &[
            '[', ']', '{', '}', '"', ',', ':', '0', '1', '9', '-', '+', '.', 'e', 'E', 't', 'r',
            'u', 'f', 'a', 'l', 's', 'n', '\\', '/', 'b', ' ', '\n', 'é',
        ];
        let mut rng = gpaw_des::SplitMix64::new(0x15_0E);
        let mut parsed = 0;
        for case in 0..10_000 {
            let text: String = if case % 2 == 0 {
                let len = rng.next_below(40) as usize;
                (0..len)
                    .map(|_| ALPHABET[rng.next_below(ALPHABET.len() as u64) as usize])
                    .collect()
            } else {
                let mut chars: Vec<char> = random_value(&mut rng, 4).render().chars().collect();
                for _ in 0..1 + rng.next_below(3) {
                    let at = rng.next_below(chars.len() as u64 + 1) as usize;
                    let c = ALPHABET[rng.next_below(ALPHABET.len() as u64) as usize];
                    match rng.next_below(3) {
                        0 if at < chars.len() => {
                            chars.remove(at);
                        }
                        1 if at < chars.len() => chars[at] = c,
                        _ => chars.insert(at, c),
                    }
                }
                chars.into_iter().collect()
            };
            let outcome = std::panic::catch_unwind(|| Json::parse(&text));
            let Ok(result) = outcome else {
                panic!("case {case}: parse panicked on {text:?}");
            };
            if let Ok(v) = result {
                parsed += 1;
                assert_eq!(
                    Json::parse(&v.render()).as_ref(),
                    Ok(&v),
                    "case {case}: {text:?} does not round-trip"
                );
            }
        }
        assert!(parsed > 100, "only {parsed} fuzzed documents parsed");
    }
}
