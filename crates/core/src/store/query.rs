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

use synscan_wire::json::{self, ToJson, Value};
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
    /// Connections currently queued or being served.
    pub in_flight: u64,
    /// Connections served to completion since start.
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

/// Parse one request line. Errors are human-readable strings ready for
/// [`err_line`] — a malformed request must never take the daemon down.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let value = json::parse(line).map_err(|e| format!("bad request JSON: {e}"))?;
    let op = value
        .get("op")
        .and_then(|v| v.as_str())
        .ok_or_else(|| "request has no \"op\" field".to_string())?;
    let year_field = |value: &Value| -> Result<u16, String> {
        value
            .get("year")
            .and_then(|v| v.as_u64())
            .filter(|y| *y <= u64::from(u16::MAX))
            .map(|y| y as u16)
            .ok_or_else(|| format!("op {op:?} needs a \"year\" field"))
    };
    let ip_field = |value: &Value| -> Result<Ipv4Address, String> {
        let text = value
            .get("ip")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("op {op:?} needs an \"ip\" field"))?;
        text.parse::<Ipv4Address>()
            .map_err(|_| format!("bad IPv4 address {text:?}"))
    };
    match op {
        "ping" => Ok(Request::Ping),
        "years" => Ok(Request::Years),
        "stats" => Ok(Request::Stats),
        "table1" => Ok(Request::Table1),
        "summary" => Ok(Request::Summary {
            year: year_field(&value)?,
        }),
        "heavy" => Ok(Request::Heavy {
            year: year_field(&value)?,
        }),
        "source" => Ok(Request::Source {
            ip: ip_field(&value)?,
        }),
        "port" => {
            let port = value
                .get("port")
                .and_then(|v| v.as_u64())
                .filter(|p| *p <= u64::from(u16::MAX))
                .ok_or_else(|| "op \"port\" needs a \"port\" field (0-65535)".to_string())?;
            Ok(Request::Port { port: port as u16 })
        }
        "campaigns" => Ok(Request::Campaigns {
            ip: ip_field(&value)?,
        }),
        "health" => Ok(Request::Health),
        "reload" => Ok(Request::Reload),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op {other:?}")),
    }
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
        Err(error) => err_line(&error),
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
    }

    #[test]
    fn stats_reports_per_year_slice_version_and_bytes() {
        use crate::store::YearSliceStat;
        let mut image = StoreImage::empty();
        image.slice_files = 3;
        image.slices = vec![
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
        ];
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
        let image = StoreImage::empty();
        let line = answer_line(&image, "{\"op\":\"heavy\",\"year\":2020}");
        assert!(line.starts_with("{\"ok\":false"));
    }

    #[test]
    fn responses_are_single_lines_and_bodies_extract() {
        let image = StoreImage::empty();
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
        let image = StoreImage::empty();
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
        let image = StoreImage::empty();
        let line = answer_line(&image, "{\"op\":\"summary\",\"year\":2020}");
        assert!(line.starts_with("{\"ok\":false"));
    }

    #[test]
    fn damaged_request_lines_get_exactly_one_response_line() {
        let image = StoreImage::empty();
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
