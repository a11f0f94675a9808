//! JSONL trace sink: schema `fta-obs-trace` version 1.
//!
//! A trace file is UTF-8 text, one JSON object per line:
//!
//! * line 1 — header: `{"schema":"fta-obs-trace","version":1,
//!   "epoch_unix_ms":<u64>}`
//! * span lines — `{"type":"span","name":s,"id":u,"parent":u|null,
//!   "thread":u,"center":u|null,"layer":u|null,"start_ns":u,"dur_ns":u}`
//! * round lines — `{"type":"round","algo":s,"center":u,"round":u,
//!   "moves":u,"payoff_difference":f,"average_payoff":f,"potential":f}`
//! * aggregate lines (written after all spans/rounds) —
//!   `{"type":"counter","name":s,"value":u}`,
//!   `{"type":"gauge","name":s,"value":u}`, and
//!   `{"type":"hist","name":s,"count":u,"sum":u,
//!   "buckets":[[index,count],…]}` (sparse log2 buckets; see
//!   [`crate::hist`]).
//!
//! Unknown keys must be ignored by parsers; unknown `type` values are
//! an error (bump `version` to add event kinds). [`parse`] validates
//! and loads a trace, [`to_chrome_trace`] converts the span lines to
//! the Chrome `chrome://tracing` / Perfetto JSON format.

use crate::snapshot::Snapshot;
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::io::Write as _;
use std::path::Path;

/// Value of the header's `"schema"` field.
pub const SCHEMA_NAME: &str = "fta-obs-trace";
/// Trace schema version this crate reads and writes.
pub const SCHEMA_VERSION: u64 = 1;

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn opt_u32(v: Option<u32>) -> Value {
    match v {
        Some(x) => Value::UInt(u64::from(x)),
        None => Value::Null,
    }
}

fn opt_u64(v: Option<u64>) -> Value {
    match v {
        Some(x) => Value::UInt(x),
        None => Value::Null,
    }
}

/// Serialize a snapshot as a JSONL trace string (header first, then
/// spans in start-time order, round events, and final aggregate lines).
pub fn to_jsonl(snapshot: &Snapshot) -> String {
    let mut lines = Vec::with_capacity(
        2 + snapshot.spans.len()
            + snapshot.rounds.len()
            + snapshot.counters.len()
            + snapshot.gauges.len()
            + snapshot.histograms.len(),
    );
    lines.push(
        serde_json::to_string(&obj(vec![
            ("schema", Value::String(SCHEMA_NAME.to_owned())),
            ("version", Value::UInt(SCHEMA_VERSION)),
            ("epoch_unix_ms", Value::UInt(snapshot.epoch_unix_ms)),
        ]))
        .expect("header serializes"),
    );
    let mut spans: Vec<_> = snapshot.spans.iter().collect();
    spans.sort_by_key(|s| (s.start_nanos, s.id));
    for span in spans {
        lines.push(
            serde_json::to_string(&obj(vec![
                ("type", Value::String("span".to_owned())),
                ("name", Value::String(span.name.to_owned())),
                ("id", Value::UInt(span.id)),
                ("parent", opt_u64(span.parent)),
                ("thread", Value::UInt(span.thread)),
                ("center", opt_u32(span.center)),
                ("layer", opt_u32(span.layer)),
                ("start_ns", Value::UInt(span.start_nanos)),
                ("dur_ns", Value::UInt(span.duration_nanos)),
            ]))
            .expect("span serializes"),
        );
    }
    for round in &snapshot.rounds {
        lines.push(
            serde_json::to_string(&obj(vec![
                ("type", Value::String("round".to_owned())),
                ("algo", Value::String(round.algo.to_owned())),
                ("center", Value::UInt(u64::from(round.center))),
                ("round", Value::UInt(u64::from(round.round))),
                ("moves", Value::UInt(round.moves)),
                ("payoff_difference", Value::Float(round.payoff_difference)),
                ("average_payoff", Value::Float(round.average_payoff)),
                ("potential", Value::Float(round.potential)),
            ]))
            .expect("round serializes"),
        );
    }
    for (name, value) in &snapshot.counters {
        lines.push(
            serde_json::to_string(&obj(vec![
                ("type", Value::String("counter".to_owned())),
                ("name", Value::String((*name).to_owned())),
                ("value", Value::UInt(*value)),
            ]))
            .expect("counter serializes"),
        );
    }
    for (name, value) in &snapshot.gauges {
        lines.push(
            serde_json::to_string(&obj(vec![
                ("type", Value::String("gauge".to_owned())),
                ("name", Value::String((*name).to_owned())),
                ("value", Value::UInt(*value)),
            ]))
            .expect("gauge serializes"),
        );
    }
    for (name, hist) in &snapshot.histograms {
        let buckets = hist
            .nonzero_buckets()
            .map(|(i, c)| Value::Array(vec![Value::UInt(i as u64), Value::UInt(c)]))
            .collect();
        lines.push(
            serde_json::to_string(&obj(vec![
                ("type", Value::String("hist".to_owned())),
                ("name", Value::String((*name).to_owned())),
                ("count", Value::UInt(hist.count)),
                ("sum", Value::UInt(hist.sum)),
                ("buckets", Value::Array(buckets)),
            ]))
            .expect("hist serializes"),
        );
    }
    lines.join("\n") + "\n"
}

/// Write [`to_jsonl`] output to `path`.
pub fn write_file(snapshot: &Snapshot, path: &Path) -> std::io::Result<()> {
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    file.write_all(to_jsonl(snapshot).as_bytes())?;
    file.flush()
}

/// A span parsed back from a trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedSpan {
    /// Span name.
    pub name: String,
    /// Process-unique span id.
    pub id: u64,
    /// Parent span id, if any.
    pub parent: Option<u64>,
    /// Emitting thread id.
    pub thread: u64,
    /// Center attribution, if any.
    pub center: Option<u32>,
    /// DP-layer attribution, if any.
    pub layer: Option<u32>,
    /// Nanoseconds since the recorder epoch.
    pub start_nanos: u64,
    /// Duration in nanoseconds.
    pub duration_nanos: u64,
}

/// A solver round event parsed back from a trace file.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedRound {
    /// Algorithm name.
    pub algo: String,
    /// Center the loop ran for.
    pub center: u32,
    /// 1-based round number.
    pub round: u32,
    /// Strategy switches this round.
    pub moves: u64,
    /// Max−min payoff difference after the round.
    pub payoff_difference: f64,
    /// Average worker payoff after the round.
    pub average_payoff: f64,
    /// Potential value after the round.
    pub potential: f64,
}

/// A histogram aggregate parsed back from a trace file (sparse form).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParsedHist {
    /// Total samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// `(bucket_index, count)` pairs for non-empty buckets.
    pub buckets: Vec<(usize, u64)>,
}

/// A fully parsed and validated trace file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParsedTrace {
    /// Schema version from the header.
    pub version: u64,
    /// Unix milliseconds at recorder install.
    pub epoch_unix_ms: u64,
    /// All span lines, in file order.
    pub spans: Vec<ParsedSpan>,
    /// All round lines, in file order.
    pub rounds: Vec<ParsedRound>,
    /// Counter aggregates by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge aggregates by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram aggregates by name.
    pub hists: BTreeMap<String, ParsedHist>,
}

impl ParsedTrace {
    /// Spans named `name`, in file order.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a ParsedSpan> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Round events for algorithm `algo`, in file order.
    pub fn rounds_for<'a>(&'a self, algo: &'a str) -> impl Iterator<Item = &'a ParsedRound> {
        self.rounds.iter().filter(move |r| r.algo == algo)
    }
}

/// Why a trace failed to parse or validate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The file is empty or the first line is not a valid header.
    MissingHeader(String),
    /// The header's `version` is not one this crate understands.
    UnsupportedVersion(u64),
    /// A body line is malformed; carries the 1-based line number.
    Line {
        /// 1-based line number of the offending line.
        line: usize,
        /// Human-readable description of what is wrong.
        message: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::MissingHeader(why) => {
                write!(f, "missing or invalid {SCHEMA_NAME} header: {why}")
            }
            TraceError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported {SCHEMA_NAME} version {v} (expected {SCHEMA_VERSION})"
                )
            }
            TraceError::Line { line, message } => write!(f, "trace line {line}: {message}"),
        }
    }
}

impl std::error::Error for TraceError {}

fn field_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.field(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing or non-integer field '{key}'"))
}

fn field_opt_u64(v: &Value, key: &str) -> Result<Option<u64>, String> {
    match v.field(key) {
        None => Ok(None),
        Some(val) if val.is_null() => Ok(None),
        Some(val) => val
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("non-integer field '{key}'")),
    }
}

fn to_u32(x: u64, key: &str) -> Result<u32, String> {
    u32::try_from(x).map_err(|_| format!("field '{key}' out of u32 range"))
}

fn field_u32(v: &Value, key: &str) -> Result<u32, String> {
    to_u32(field_u64(v, key)?, key)
}

fn field_opt_u32(v: &Value, key: &str) -> Result<Option<u32>, String> {
    field_opt_u64(v, key)?.map(|x| to_u32(x, key)).transpose()
}

fn field_str(v: &Value, key: &str) -> Result<String, String> {
    v.field(key)
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("missing or non-string field '{key}'"))
}

/// Floats serialize as `null` when non-finite; read those back as NaN.
fn field_f64(v: &Value, key: &str) -> Result<f64, String> {
    match v.field(key) {
        None => Err(format!("missing field '{key}'")),
        Some(val) if val.is_null() => Ok(f64::NAN),
        Some(val) => val
            .as_f64()
            .ok_or_else(|| format!("non-numeric field '{key}'")),
    }
}

/// Parse and validate a JSONL trace produced by [`to_jsonl`] (or any
/// writer of schema v1). Every line must be valid JSON of a known
/// event type with all required fields present and well-typed.
pub fn parse(text: &str) -> Result<ParsedTrace, TraceError> {
    let mut lines = text.lines().enumerate();
    let (_, header_line) = lines
        .next()
        .ok_or_else(|| TraceError::MissingHeader("empty trace".to_owned()))?;
    let header: Value = serde_json::from_str(header_line)
        .map_err(|e| TraceError::MissingHeader(format!("header is not JSON: {e:?}")))?;
    if header.field("schema").and_then(Value::as_str) != Some(SCHEMA_NAME) {
        return Err(TraceError::MissingHeader(format!(
            "first line lacks \"schema\":\"{SCHEMA_NAME}\""
        )));
    }
    let version = header
        .field("version")
        .and_then(Value::as_u64)
        .ok_or_else(|| TraceError::MissingHeader("header lacks integer 'version'".to_owned()))?;
    if version != SCHEMA_VERSION {
        return Err(TraceError::UnsupportedVersion(version));
    }
    let mut trace = ParsedTrace {
        version,
        epoch_unix_ms: header
            .field("epoch_unix_ms")
            .and_then(Value::as_u64)
            .unwrap_or(0),
        ..ParsedTrace::default()
    };
    for (index, line) in lines {
        let lineno = index + 1;
        if line.trim().is_empty() {
            continue;
        }
        let fail = |message: String| TraceError::Line {
            line: lineno,
            message,
        };
        let v: Value =
            serde_json::from_str(line).map_err(|e| fail(format!("not valid JSON: {e:?}")))?;
        let kind = field_str(&v, "type").map_err(&fail)?;
        match kind.as_str() {
            "span" => trace.spans.push(ParsedSpan {
                name: field_str(&v, "name").map_err(&fail)?,
                id: field_u64(&v, "id").map_err(&fail)?,
                parent: field_opt_u64(&v, "parent").map_err(&fail)?,
                thread: field_u64(&v, "thread").map_err(&fail)?,
                center: field_opt_u32(&v, "center").map_err(&fail)?,
                layer: field_opt_u32(&v, "layer").map_err(&fail)?,
                start_nanos: field_u64(&v, "start_ns").map_err(&fail)?,
                duration_nanos: field_u64(&v, "dur_ns").map_err(&fail)?,
            }),
            "round" => trace.rounds.push(ParsedRound {
                algo: field_str(&v, "algo").map_err(&fail)?,
                center: field_u32(&v, "center").map_err(&fail)?,
                round: field_u32(&v, "round").map_err(&fail)?,
                moves: field_u64(&v, "moves").map_err(&fail)?,
                payoff_difference: field_f64(&v, "payoff_difference").map_err(&fail)?,
                average_payoff: field_f64(&v, "average_payoff").map_err(&fail)?,
                potential: field_f64(&v, "potential").map_err(&fail)?,
            }),
            "counter" => {
                trace.counters.insert(
                    field_str(&v, "name").map_err(&fail)?,
                    field_u64(&v, "value").map_err(&fail)?,
                );
            }
            "gauge" => {
                trace.gauges.insert(
                    field_str(&v, "name").map_err(&fail)?,
                    field_u64(&v, "value").map_err(&fail)?,
                );
            }
            "hist" => {
                let buckets_value = v
                    .field("buckets")
                    .and_then(Value::as_array)
                    .ok_or_else(|| fail("missing or non-array field 'buckets'".to_owned()))?;
                let mut buckets = Vec::with_capacity(buckets_value.len());
                for pair in buckets_value {
                    let pair = pair.as_array().filter(|p| p.len() == 2).ok_or_else(|| {
                        fail("bucket entry is not a [index, count] pair".to_owned())
                    })?;
                    let index = pair[0]
                        .as_u64()
                        .ok_or_else(|| fail("bucket index is not an integer".to_owned()))?;
                    let count = pair[1]
                        .as_u64()
                        .ok_or_else(|| fail("bucket count is not an integer".to_owned()))?;
                    if index as usize >= crate::hist::BUCKETS {
                        return Err(fail(format!("bucket index {index} out of range")));
                    }
                    buckets.push((index as usize, count));
                }
                let hist = ParsedHist {
                    count: field_u64(&v, "count").map_err(&fail)?,
                    sum: field_u64(&v, "sum").map_err(&fail)?,
                    buckets,
                };
                let total = hist
                    .buckets
                    .iter()
                    .try_fold(0u64, |sum, &(_, c)| sum.checked_add(c));
                if total != Some(hist.count) {
                    return Err(fail("bucket counts do not sum to 'count'".to_owned()));
                }
                trace
                    .hists
                    .insert(field_str(&v, "name").map_err(&fail)?, hist);
            }
            other => return Err(fail(format!("unknown event type '{other}'"))),
        }
    }
    Ok(trace)
}

/// Read and [`parse`] a trace file.
pub fn parse_file(path: &Path) -> Result<ParsedTrace, TraceError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| TraceError::MissingHeader(format!("cannot read {}: {e}", path.display())))?;
    parse(&text)
}

/// Convert a parsed trace's spans into Chrome trace-event JSON
/// (loadable in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev)):
/// one complete (`"ph":"X"`) event per span, microsecond timestamps,
/// thread ids mapped to `tid`. Aggregate lines have no timeline
/// position and are omitted.
pub fn to_chrome_trace(trace: &ParsedTrace) -> String {
    let events = trace
        .spans
        .iter()
        .map(|span| {
            let mut fields = vec![
                ("name", Value::String(span.name.clone())),
                ("cat", Value::String("span".to_owned())),
                ("ph", Value::String("X".to_owned())),
                ("ts", Value::Float(span.start_nanos as f64 / 1_000.0)),
                ("dur", Value::Float(span.duration_nanos as f64 / 1_000.0)),
                ("pid", Value::UInt(1)),
                ("tid", Value::UInt(span.thread)),
            ];
            let mut args = Vec::new();
            args.push(("id".to_owned(), Value::UInt(span.id)));
            if let Some(parent) = span.parent {
                args.push(("parent".to_owned(), Value::UInt(parent)));
            }
            if let Some(center) = span.center {
                args.push(("center".to_owned(), Value::UInt(u64::from(center))));
            }
            if let Some(layer) = span.layer {
                args.push(("layer".to_owned(), Value::UInt(u64::from(layer))));
            }
            fields.push(("args", Value::Object(args)));
            obj(fields)
        })
        .collect();
    serde_json::to_string(&obj(vec![
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", Value::String("ms".to_owned())),
    ]))
    .expect("chrome trace serializes")
}

/// Validate Prometheus text exposition as produced by
/// [`Snapshot::to_prometheus`]: every non-comment, non-blank line must
/// be `name[{labels}] value` with a finite numeric value. Returns the
/// number of samples on success.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    for (index, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_part, value_part) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value separator: {line}", index + 1))?;
        let metric = name_part.split('{').next().unwrap_or("");
        if metric.is_empty()
            || !metric
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("line {}: invalid metric name: {line}", index + 1));
        }
        let value: f64 = value_part
            .parse()
            .map_err(|_| format!("line {}: non-numeric value: {line}", index + 1))?;
        if !value.is_finite() {
            return Err(format!("line {}: non-finite value: {line}", index + 1));
        }
        samples += 1;
    }
    if samples == 0 {
        return Err("no samples in exposition".to_owned());
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Event;

    fn sample_snapshot() -> Snapshot {
        let mut snap = Snapshot::new();
        snap.epoch_unix_ms = 1_700_000_000_000;
        snap.apply(&Event::Span {
            name: "solver.center",
            id: 7,
            parent: None,
            thread: 1,
            center: Some(2),
            layer: None,
            start_nanos: 100,
            duration_nanos: 5_000,
        });
        snap.apply(&Event::Span {
            name: "vdps.layer",
            id: 8,
            parent: Some(7),
            thread: 1,
            center: Some(2),
            layer: Some(3),
            start_nanos: 150,
            duration_nanos: 900,
        });
        snap.apply(&Event::Round {
            algo: "FGT",
            center: 2,
            round: 1,
            moves: 4,
            payoff_difference: 0.25,
            average_payoff: 1.5,
            potential: 12.0,
        });
        snap.apply(&Event::Counter {
            name: "vdps.states",
            delta: 99,
        });
        snap.apply(&Event::GaugeMax {
            name: "pool.queue_depth",
            value: 6,
        });
        snap.apply(&Event::Hist {
            name: "sim.assign_nanos",
            value: 450,
        });
        snap
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2000))]

        #[test]
        fn mutated_traces_parse_or_fail_typed(
            kind in 0u8..6,
            at in 0.0f64..1.0,
            span in 0.0f64..1.0,
            bits in 0u8..=255,
        ) {
            // Bit flips, truncation, splices, duplicated and reordered
            // lines: the reader returns a trace or a `TraceError`, and
            // never panics.
            let text = to_jsonl(&sample_snapshot());
            let _ = parse(&crate::mutate::mutate(&text, kind, at, span, bits));
        }
    }

    #[test]
    fn overflowing_bucket_counts_are_a_typed_error() {
        // Two counts whose sum overflows u64 must not panic the reader.
        let header = to_jsonl(&Snapshot::default());
        let text = format!(
            "{header}{{\"type\":\"hist\",\"name\":\"h\",\"count\":0,\"sum\":0,\
             \"buckets\":[[0,18446744073709551615],[1,1]]}}\n"
        );
        assert!(matches!(
            parse(&text),
            Err(TraceError::Line { line: 2, .. })
        ));
    }

    #[test]
    fn out_of_range_u32_fields_are_a_typed_error() {
        // A center or round past u32 is rejected, not truncated.
        let header = to_jsonl(&Snapshot::default());
        let span = "{\"type\":\"span\",\"name\":\"s\",\"id\":1,\"thread\":1,\
                    \"center\":4294967297,\"start_ns\":0,\"dur_ns\":1}";
        let round = "{\"type\":\"round\",\"algo\":\"FGT\",\"center\":0,\
                     \"round\":4294967296,\"moves\":0,\"payoff_difference\":0,\
                     \"average_payoff\":0,\"potential\":0}";
        for line in [span, round] {
            assert!(matches!(
                parse(&format!("{header}{line}\n")),
                Err(TraceError::Line { line: 2, .. })
            ));
            let fits = line.replace("4294967297", "1").replace("4294967296", "1");
            assert!(parse(&format!("{header}{fits}\n")).is_ok(), "{fits}");
        }
    }

    #[test]
    fn jsonl_round_trips() {
        let snap = sample_snapshot();
        let text = to_jsonl(&snap);
        let parsed = parse(&text).expect("round-trip parses");
        assert_eq!(parsed.version, SCHEMA_VERSION);
        assert_eq!(parsed.epoch_unix_ms, snap.epoch_unix_ms);
        assert_eq!(parsed.spans.len(), 2);
        let layer_span = parsed.spans_named("vdps.layer").next().unwrap();
        assert_eq!(layer_span.parent, Some(7));
        assert_eq!(layer_span.center, Some(2));
        assert_eq!(layer_span.layer, Some(3));
        assert_eq!(layer_span.start_nanos, 150);
        assert_eq!(layer_span.duration_nanos, 900);
        let round = parsed.rounds_for("FGT").next().unwrap();
        assert_eq!(round.center, 2);
        assert_eq!(round.moves, 4);
        assert!((round.payoff_difference - 0.25).abs() < 1e-12);
        assert_eq!(parsed.counters["vdps.states"], 99);
        assert_eq!(parsed.gauges["pool.queue_depth"], 6);
        let hist = &parsed.hists["sim.assign_nanos"];
        assert_eq!(hist.count, 1);
        assert_eq!(hist.sum, 450);
        assert_eq!(hist.buckets, vec![(crate::hist::bucket_index(450), 1)]);
    }

    #[test]
    fn parse_rejects_bad_traces() {
        assert!(matches!(parse(""), Err(TraceError::MissingHeader(_))));
        assert!(matches!(
            parse("{\"schema\":\"other\",\"version\":1}\n"),
            Err(TraceError::MissingHeader(_))
        ));
        assert!(matches!(
            parse("{\"schema\":\"fta-obs-trace\",\"version\":99}\n"),
            Err(TraceError::UnsupportedVersion(99))
        ));
        let header = "{\"schema\":\"fta-obs-trace\",\"version\":1,\"epoch_unix_ms\":0}";
        let bad_type = format!("{header}\n{{\"type\":\"mystery\"}}\n");
        assert!(matches!(
            parse(&bad_type),
            Err(TraceError::Line { line: 2, .. })
        ));
        let missing_field = format!("{header}\n{{\"type\":\"counter\",\"name\":\"x\"}}\n");
        assert!(matches!(
            parse(&missing_field),
            Err(TraceError::Line { line: 2, .. })
        ));
        let bad_hist = format!(
            "{header}\n{{\"type\":\"hist\",\"name\":\"h\",\"count\":2,\"sum\":5,\"buckets\":[[1,1]]}}\n"
        );
        assert!(matches!(
            parse(&bad_hist),
            Err(TraceError::Line { line: 2, .. })
        ));
        // Blank lines are tolerated; header alone is a valid empty trace.
        let ok = parse(&format!("{header}\n\n")).unwrap();
        assert!(ok.spans.is_empty() && ok.counters.is_empty());
    }

    #[test]
    fn chrome_trace_contains_complete_events() {
        let parsed = parse(&to_jsonl(&sample_snapshot())).unwrap();
        let chrome = to_chrome_trace(&parsed);
        let v: Value = serde_json::from_str(&chrome).expect("chrome trace is JSON");
        let events = v.field("traceEvents").and_then(Value::as_array).unwrap();
        assert_eq!(events.len(), 2);
        let first = &events[0];
        assert_eq!(first.field("ph").and_then(Value::as_str), Some("X"));
        assert!(first.field("ts").and_then(Value::as_f64).is_some());
        assert!(first.field("dur").and_then(Value::as_f64).is_some());
        assert!(first.field("tid").and_then(Value::as_u64).is_some());
    }

    #[test]
    fn prometheus_validator_accepts_own_output_and_rejects_garbage() {
        let samples = validate_prometheus(&sample_snapshot().to_prometheus()).unwrap();
        assert!(samples >= 6, "expected several samples, got {samples}");
        assert!(validate_prometheus("").is_err());
        assert!(validate_prometheus("# only comments\n").is_err());
        assert!(validate_prometheus("ok_metric notanumber\n").is_err());
        assert!(validate_prometheus("bad metric name 1\n").is_err());
    }
}
