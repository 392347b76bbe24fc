//! The serve query protocol: line-delimited JSON requests answered from a
//! [`StoreImage`].
//!
//! One request per line, one response per line. Requests are JSON objects
//! with an `"op"` field; responses are `{"ok":true,"body":"…"}` with the
//! rendered artifact embedded as a JSON string, or
//! `{"ok":false,"error":"…"}`. Embedding the artifact as a *string* (not a
//! nested object) is deliberate: the body bytes are produced by the same
//! `report` renderers the batch binaries use, so extracting `body` from a
//! daemon response and `diff`ing it against the batch file is an exact
//! byte comparison — no JSON re-serialization in between to perturb float
//! formatting or key order.
//!
//! Data ops (answered by any reader thread, lock-free):
//!
//! | request | body |
//! |---|---|
//! | `{"op":"ping"}` | `pong` |
//! | `{"op":"years"}` | compact JSON year array |
//! | `{"op":"stats"}` | image stats (generation, slices, totals) |
//! | `{"op":"table1"}` | `DecadeReport` pretty JSON (= `out/table1.json`) |
//! | `{"op":"summary","year":Y}` | that year's `YearSummary` pretty JSON |
//! | `{"op":"source","ip":"A.B.C.D"}` | `SourceHistory` pretty JSON |
//! | `{"op":"port","port":N}` | `PortTrend` pretty JSON |
//! | `{"op":"campaigns","ip":"A.B.C.D"}` | `CampaignLookup` pretty JSON |
//! | `{"op":"heavy","year":Y}` | that year's `NetworkImpact` pretty JSON |
//! | `{"op":"health"}` | daemon health (generation, uptime, gate counters) |
//!
//! `stats` additionally reports per-year slice accounting (file count,
//! on-disk bytes, format version) next to the aggregate totals. `heavy` is
//! an error for years whose run did not enable `--heavy-hitters`.
//!
//! Admin ops (`{"op":"reload"}`, `{"op":"shutdown"}`) parse here too but
//! are intercepted by the daemon's connection loop — the single writer
//! thread applies reloads; [`answer`] treats them as no-ops so the offline
//! (`--store-dir --query`) client stays a drop-in stand-in for a daemon.

use synscan_wire::json::{self, FlatObject, JsonError, JsonErrorKind, ToJson, Value};
use synscan_wire::Ipv4Address;

use super::{StoreImage, STORE_VERSION};
use crate::analysis::collect::YearAnalysis;
use crate::analysis::yearly::summarize;
use crate::report::{campaign_lookup, network_impact_of, port_trend, source_history, DecadeReport};

/// Ranking depth for table/summary bodies — the paper prints 5, and the
/// batch `repro` artifacts use the same depth, which the byte-equivalence
/// guarantee depends on.
pub const TOP_N: usize = 5;

/// A parsed protocol request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// List the years the image covers.
    Years,
    /// Image statistics (generation, slice count, totals).
    Stats,
    /// The full Table 1 report as pretty JSON.
    Table1,
    /// One year's summary.
    Summary {
        /// The requested calendar year.
        year: u16,
    },
    /// Per-source decade history.
    Source {
        /// The source address.
        ip: Ipv4Address,
    },
    /// Per-port yearly trend.
    Port {
        /// The destination port.
        port: u16,
    },
    /// Campaign lookup for a source.
    Campaigns {
        /// The source address.
        ip: Ipv4Address,
    },
    /// One year's heavy-hitter network-impact section.
    Heavy {
        /// The requested calendar year.
        year: u16,
    },
    /// Daemon health: image generation plus the admission-gate counters.
    Health,
    /// Ask the writer thread to reload the store from disk.
    Reload,
    /// Ask the daemon to exit.
    Shutdown,
}

/// Live daemon counters surfaced by the `health` op. The daemon fills these
/// from its admission gate; offline contexts (the `--store-dir --query`
/// client, tests) answer with the zeroed [`Default`] — the image fields are
/// real either way.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HealthCounters {
    /// Milliseconds since the daemon started.
    pub uptime_ms: u64,
    /// Connections currently being served.
    pub in_flight: u64,
    /// Requests answered since start.
    pub served: u64,
    /// Connections shed by the admission gate since start.
    pub shed: u64,
    /// Whether the daemon is draining (refusing new connections).
    pub draining: bool,
}

/// Render the `health` response line — image identity next to the live
/// gate counters — from an image and live counters.
pub fn health_line(image: &StoreImage, live: &HealthCounters) -> String {
    ok_body(&json::object([
        ("generation", image.generation.to_json()),
        ("years", image.year_list().len().to_json()),
        ("uptime_ms", live.uptime_ms.to_json()),
        ("in_flight", live.in_flight.to_json()),
        ("served", live.served.to_json()),
        ("shed", live.shed.to_json()),
        ("draining", live.draining.to_json()),
    ]))
}

/// A single-line success response with `body` embedded as a JSON string.
pub fn ok_line(body: &str) -> String {
    json::object([("ok", Value::Bool(true)), ("body", body.to_json())]).to_string()
}

/// [`ok_line`] around a value's pretty JSON — the artifact form the batch
/// binaries write, so a response body diffs byte-for-byte against the file.
fn ok_body(value: &impl ToJson) -> String {
    ok_line(&value.to_json().to_string_pretty())
}

/// A single-line error response.
pub fn err_line(error: &str) -> String {
    json::object([("ok", Value::Bool(false)), ("error", error.to_json())]).to_string()
}

/// Extract the `body` string from a response line produced by [`ok_line`].
/// Returns `None` for error responses or non-protocol lines — used by the
/// client's `--bodies` mode and the CI diff scripts.
pub fn body_of(line: &str) -> Option<String> {
    let value = json::parse(line).ok()?;
    if value.get("ok")?.as_bool()? {
        Some(value.get("body")?.as_str()?.to_string())
    } else {
        None
    }
}

/// Why [`parse_request`] refused a line. Its text is ready for
/// [`err_line`] — a malformed request must never take the daemon down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The line is not a well-formed flat JSON object.
    Json(JsonError),
    /// The named member holds an array or an object; a request carries
    /// scalars only.
    Nested(String),
    /// A member the request's op does not take, or one given twice.
    UnexpectedField(String),
    /// No `"op"` string.
    NoOp,
    /// An op no request has.
    UnknownOp(String),
    /// The op's argument is missing, not a number, or out of range.
    MissingArgument {
        /// The op.
        op: &'static str,
        /// The argument it needs.
        field: &'static str,
    },
    /// An `"ip"` argument that is not a dotted quad.
    BadAddress(String),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Json(e) => write!(f, "bad request JSON: {e}"),
            RequestError::Nested(key) => write!(f, "field {key:?} must be a scalar"),
            RequestError::UnexpectedField(key) => write!(f, "unexpected field {key:?}"),
            RequestError::NoOp => write!(f, "request has no \"op\" field"),
            RequestError::UnknownOp(op) => write!(f, "unknown op {op:?}"),
            RequestError::MissingArgument { op, field: "port" } => {
                write!(f, "op {op:?} needs a \"port\" field (0-65535)")
            }
            RequestError::MissingArgument { op, field } => {
                write!(f, "op {op:?} needs a {field:?} field")
            }
            RequestError::BadAddress(text) => write!(f, "bad IPv4 address {text:?}"),
        }
    }
}

impl std::error::Error for RequestError {}

/// The argument each op takes, if any.
const ARGUMENTS: [(&str, Option<&str>); 12] = [
    ("ping", None),
    ("years", None),
    ("stats", None),
    ("table1", None),
    ("summary", Some("year")),
    ("heavy", Some("year")),
    ("source", Some("ip")),
    ("port", Some("port")),
    ("campaigns", Some("ip")),
    ("health", None),
    ("reload", None),
    ("shutdown", None),
];

/// Parse one request line: a flat object of `"op"` plus at most one scalar
/// argument, in either order. It is decoded member by member, never as a
/// tree, and the first member out of that shape ends it — so a hostile line
/// costs at most a few copies of itself.
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    let mut object = FlatObject::open(line).map_err(RequestError::Json)?;
    let mut op = None;
    let mut argument = None;
    while let Some(key) = object.next_key().map_err(RequestError::Json)? {
        let known = key == "op" || ARGUMENTS.iter().any(|(_, arg)| *arg == Some(key.as_str()));
        let taken = if key == "op" {
            op.is_some()
        } else {
            argument.is_some()
        };
        if !known || taken {
            return Err(RequestError::UnexpectedField(key));
        }
        let value = match object.scalar() {
            Ok(value) => value,
            Err(e) if e.kind == JsonErrorKind::Nested => return Err(RequestError::Nested(key)),
            Err(e) => return Err(RequestError::Json(e)),
        };
        if key == "op" {
            op = Some(value);
        } else {
            argument = Some((key, value));
        }
    }
    let op = match op {
        Some(Value::Str(op)) => op,
        _ => return Err(RequestError::NoOp),
    };
    let Some(&(op, wants)) = ARGUMENTS.iter().find(|(name, _)| *name == op) else {
        return Err(RequestError::UnknownOp(op));
    };
    let value = match (wants, argument) {
        (None, None) => None,
        (Some(field), Some((key, value))) if key == field => Some(value),
        (_, Some((key, _))) => return Err(RequestError::UnexpectedField(key)),
        (Some(field), None) => return Err(RequestError::MissingArgument { op, field }),
    };
    let missing = || RequestError::MissingArgument {
        op,
        field: wants.unwrap_or_default(),
    };
    let number = || match value {
        Some(Value::U64(n)) => u16::try_from(n).map_err(|_| missing()),
        _ => Err(missing()),
    };
    let ip = || match &value {
        Some(Value::Str(text)) => text
            .parse::<Ipv4Address>()
            .map_err(|_| RequestError::BadAddress(text.clone())),
        _ => Err(missing()),
    };
    Ok(match op {
        "ping" => Request::Ping,
        "years" => Request::Years,
        "stats" => Request::Stats,
        "table1" => Request::Table1,
        "summary" => Request::Summary { year: number()? },
        "heavy" => Request::Heavy { year: number()? },
        "source" => Request::Source { ip: ip()? },
        "port" => Request::Port { port: number()? },
        "campaigns" => Request::Campaigns { ip: ip()? },
        "health" => Request::Health,
        "reload" => Request::Reload,
        // "shutdown", the last op `ARGUMENTS` knows.
        _ => Request::Shutdown,
    })
}

/// Answer a data request from an image, returning the full response line.
///
/// Admin requests ([`Request::Reload`], [`Request::Shutdown`]) get a no-op
/// acknowledgement here; the daemon intercepts them before calling this.
pub fn answer(image: &StoreImage, request: &Request) -> String {
    match request {
        Request::Ping => ok_line("pong"),
        Request::Years => ok_line(&image.year_list().to_json().to_string()),
        Request::Stats => {
            // Per-year slice accounting (file count, on-disk bytes, format
            // version as `major.minor`) next to the aggregate totals. Every
            // loaded slice carries the one version this build reads.
            let slices: Vec<Value> = image
                .slices
                .iter()
                .map(|s| {
                    json::object([
                        ("year", s.year.to_json()),
                        ("files", s.files.to_json()),
                        ("bytes", s.bytes.to_json()),
                        ("version", STORE_VERSION.to_json()),
                    ])
                })
                .collect();
            let sum =
                |per_year: fn(&YearAnalysis) -> u64| image.years.iter().map(per_year).sum::<u64>();
            ok_body(&json::object([
                ("generation", image.generation.to_json()),
                ("slice_files", image.slice_files.to_json()),
                ("years", image.year_list().to_json()),
                ("total_packets", sum(|y| y.total_packets).to_json()),
                ("distinct_sources", sum(|y| y.distinct_sources).to_json()),
                ("campaigns", sum(|y| y.campaigns.len() as u64).to_json()),
                ("slices", Value::Array(slices)),
            ]))
        }
        Request::Table1 => ok_body(&DecadeReport::from_years(&image.years, TOP_N)),
        Request::Summary { year } => match image.year(*year) {
            Some(analysis) => ok_body(&summarize(analysis, TOP_N)),
            None => err_line(&format!("no store slice covers year {year}")),
        },
        Request::Source { ip } => ok_body(&source_history(&image.years, *ip)),
        Request::Port { port } => ok_body(&port_trend(&image.years, *port)),
        Request::Campaigns { ip } => ok_body(&campaign_lookup(&image.years, *ip)),
        Request::Heavy { year } => match image.year(*year) {
            Some(analysis) => match network_impact_of(analysis) {
                Some(impact) => ok_body(&impact),
                None => err_line(&format!(
                    "year {year} was analyzed without --heavy-hitters; re-run with the flag \
                     to enable the network-impact section"
                )),
            },
            None => err_line(&format!("no store slice covers year {year}")),
        },
        Request::Health => health_line(image, &HealthCounters::default()),
        Request::Reload => ok_line("reload: no-op (no daemon writer on this path)"),
        Request::Shutdown => ok_line("shutdown: no-op (no daemon on this path)"),
    }
}

/// Parse + answer one raw line: the whole per-line protocol for contexts
/// without a daemon (the offline client, tests, benches).
pub fn answer_line(image: &StoreImage, line: &str) -> String {
    match parse_request(line) {
        Ok(request) => answer(image, &request),
        Err(error) => err_line(&error.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request("{}").is_err());
        assert!(parse_request("{\"op\":\"nope\"}").is_err());
        assert!(parse_request("{\"op\":\"port\"}").is_err());
        assert!(parse_request("{\"op\":\"port\",\"port\":70000}").is_err());
        assert!(parse_request("{\"op\":\"source\",\"ip\":\"1.2.3\"}").is_err());
        // Out of shape: each refusal names the member that broke it.
        let field = |key: &str| Err(RequestError::UnexpectedField(key.to_string()));
        assert_eq!(parse_request(r#"{"op":"ping","x":1}"#), field("x"));
        assert_eq!(parse_request(r#"{"op":"ping","year":2020}"#), field("year"));
        assert_eq!(parse_request(r#"{"op":"ping","op":"ping"}"#), field("op"));
        assert_eq!(
            parse_request(r#"{"op":"port","port":1,"year":2}"#),
            field("year")
        );
        assert_eq!(
            parse_request(r#"{"op":"summary","year":[2020]}"#),
            Err(RequestError::Nested("year".to_string()))
        );
    }

    #[test]
    fn parse_accepts_every_op() {
        assert_eq!(parse_request("{\"op\":\"ping\"}"), Ok(Request::Ping));
        assert_eq!(
            parse_request("{\"op\":\"summary\",\"year\":2020}"),
            Ok(Request::Summary { year: 2020 })
        );
        assert_eq!(
            parse_request("{\"op\":\"source\",\"ip\":\"10.0.0.1\"}"),
            Ok(Request::Source {
                ip: Ipv4Address::new(10, 0, 0, 1)
            })
        );
        assert_eq!(
            parse_request("{\"op\":\"port\",\"port\":443}"),
            Ok(Request::Port { port: 443 })
        );
        assert_eq!(parse_request("{\"op\":\"reload\"}"), Ok(Request::Reload));
        assert_eq!(parse_request("{\"op\":\"health\"}"), Ok(Request::Health));
        assert_eq!(
            parse_request("{\"op\":\"heavy\",\"year\":2020}"),
            Ok(Request::Heavy { year: 2020 })
        );
        assert!(parse_request("{\"op\":\"heavy\"}").is_err());
        assert_eq!(
            parse_request(r#" { "year" : 2020 , "op" : "summary" } "#),
            Ok(Request::Summary { year: 2020 })
        );
    }

    /// One canonical request line per op.
    const CANONICAL: [&str; 12] = [
        r#"{"op":"ping"}"#,
        r#"{"op":"years"}"#,
        r#"{"op":"stats"}"#,
        r#"{"op":"table1"}"#,
        r#"{"op":"summary","year":2020}"#,
        r#"{"op":"source","ip":"0.0.0.10"}"#,
        r#"{"op":"port","port":443}"#,
        r#"{"op":"campaigns","ip":"0.0.0.10"}"#,
        r#"{"op":"heavy","year":2020}"#,
        r#"{"op":"health"}"#,
        r#"{"op":"reload"}"#,
        r#"{"op":"shutdown"}"#,
    ];

    #[test]
    fn every_cut_and_bit_flip_of_every_op_is_refused_or_answered() {
        let image = StoreImage {
            years: vec![
                crate::store::tests::analysis(2019),
                crate::store::tests::analysis(2020),
            ],
            ..StoreImage::default()
        };
        let mut answered = 0;
        for line in CANONICAL {
            assert!(parse_request(line).is_ok(), "{line}");
            let cuts = (0..line.len()).map(|cut| line[..cut].to_string());
            let flips = (0..line.len() * 8).map(|bit| {
                let mut bytes = line.as_bytes().to_vec();
                bytes[bit / 8] ^= 1 << (bit % 8);
                String::from_utf8_lossy(&bytes).into_owned()
            });
            for variant in cuts.chain(flips) {
                if let Ok(request) = parse_request(&variant) {
                    let response = answer(&image, &request);
                    assert!(json::parse(&response).is_ok(), "{variant:?}: {response}");
                    answered += 1;
                }
            }
        }
        // Flipping a digit of a year or port still yields a request.
        assert!(answered > 0);
    }

    #[test]
    fn stats_reports_per_year_slice_version_and_bytes() {
        use crate::store::YearSliceStat;
        let image = StoreImage {
            slice_files: 3,
            slices: vec![
                YearSliceStat {
                    year: 2019,
                    files: 1,
                    bytes: 4096,
                },
                YearSliceStat {
                    year: 2020,
                    files: 2,
                    bytes: 8192,
                },
            ],
            ..StoreImage::default()
        };
        let line = answer_line(&image, "{\"op\":\"stats\"}");
        let body = body_of(&line).expect("stats body");
        let value = json::parse(&body).expect("stats JSON");
        let Some(Value::Array(slices)) = value.get("slices") else {
            panic!("stats body has no slices array: {body}")
        };
        assert_eq!(slices.len(), 2);
        for (row, (year, files, bytes)) in slices.iter().zip([(2019, 1, 4096), (2020, 2, 8192)]) {
            assert_eq!(row.get("year").and_then(|v| v.as_u64()), Some(year));
            assert_eq!(row.get("files").and_then(|v| v.as_u64()), Some(files));
            assert_eq!(row.get("bytes").and_then(|v| v.as_u64()), Some(bytes));
            assert_eq!(row.get("version").and_then(|v| v.as_str()), Some("1.1"));
        }
    }

    #[test]
    fn heavy_without_sketch_state_is_an_error_response() {
        let image = StoreImage::default();
        let line = answer_line(&image, "{\"op\":\"heavy\",\"year\":2020}");
        assert!(line.starts_with("{\"ok\":false"));
    }

    #[test]
    fn responses_are_single_lines_and_bodies_extract() {
        let image = StoreImage::default();
        let line = answer_line(&image, "{\"op\":\"ping\"}");
        assert!(!line.contains('\n'));
        assert_eq!(body_of(&line).as_deref(), Some("pong"));
        let err = answer_line(&image, "junk");
        assert!(err.starts_with("{\"ok\":false"));
        assert_eq!(body_of(&err), None);
        // A pretty-JSON body round-trips through the envelope byte-exactly.
        let table = answer_line(&image, "{\"op\":\"table1\"}");
        assert!(!table.contains('\n'));
        assert_eq!(
            body_of(&table).as_deref(),
            Some(
                DecadeReport::from_years(&[], TOP_N)
                    .to_json()
                    .to_string_pretty()
                    .as_str()
            )
        );
    }

    #[test]
    fn health_answers_offline_with_zeroed_counters() {
        let image = StoreImage::default();
        let line = answer_line(&image, "{\"op\":\"health\"}");
        let body = body_of(&line).expect("health body");
        let value = json::parse(&body).expect("health JSON");
        assert!(value.get("generation").is_some());
        assert_eq!(value.get("in_flight").and_then(|v| v.as_u64()), Some(0));
        assert_eq!(value.get("shed").and_then(|v| v.as_u64()), Some(0));
        assert_eq!(value.get("draining").and_then(|v| v.as_bool()), Some(false));
    }

    #[test]
    fn missing_year_is_an_error_response() {
        let image = StoreImage::default();
        let line = answer_line(&image, "{\"op\":\"summary\",\"year\":2020}");
        assert!(line.starts_with("{\"ok\":false"));
    }

    #[test]
    fn damaged_request_lines_get_exactly_one_response_line() {
        let image = StoreImage::default();
        let request = "{\"op\":\"source\",\"ip\":\"10.0.0.1\"}";
        assert!(answer_line(&image, request).starts_with("{\"ok\":true"));
        let one_line = |line: &str| {
            let response = answer_line(&image, line);
            assert!(!response.contains('\n'), "{line:?} -> {response:?}");
            assert!(json::parse(&response).is_ok(), "{line:?} -> {response:?}");
            response
        };
        for junk in [
            "",
            "junk",
            "\u{0}",
            "[]",
            "{\"op\":7}",
            "{\"op\":\"ping\"} x",
        ] {
            assert!(one_line(junk).starts_with("{\"ok\":false"), "{junk:?}");
        }
        // Every strict prefix is refused; a flipped byte is refused or still
        // a well-formed request, never a panic or a second line.
        for cut in 0..request.len() {
            assert!(one_line(&request[..cut]).starts_with("{\"ok\":false"));
        }
        for at in 0..request.len() {
            for byte in [b'"', b'\\', b'{', b'}', b',', b'\n', b'9', 0x7f] {
                let mut bytes = request.as_bytes().to_vec();
                bytes[at] = byte;
                one_line(std::str::from_utf8(&bytes).expect("ASCII stays UTF-8"));
            }
        }
    }
}
