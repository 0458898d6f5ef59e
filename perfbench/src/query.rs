//! One client of a `QueryService`: a request line is parsed, handled and
//! encoded exactly as the `lsiq-serve` binary does, and the response is
//! checked.

use crate::trace::span;
use lsiq_core::params::{FaultCoverage, ModelParams, Yield};
use lsiq_core::reject::field_reject_rate;
use lsiq_serve::{JsonValue, QueryService};
use std::time::Instant;

/// A query of the stream: its op and its request line.
#[derive(Debug, Clone)]
pub struct Query {
    pub op: &'static str,
    pub line: String,
}

impl Query {
    pub fn forward(yield_fraction: f64, n0: f64, coverage: f64) -> Query {
        Query {
            op: "forward",
            line: format!(
                "{{\"op\":\"forward\",\"yield\":{yield_fraction:?},\"n0\":{n0:?},\
                 \"coverage\":{coverage:?}}}"
            ),
        }
    }

    pub fn inverse(yield_fraction: f64, n0: f64, target_reject: f64) -> Query {
        Query {
            op: "inverse",
            line: format!(
                "{{\"op\":\"inverse\",\"yield\":{yield_fraction:?},\"n0\":{n0:?},\
                 \"target_reject\":{target_reject:?}}}"
            ),
        }
    }

    pub fn is_model(&self) -> bool {
        matches!(self.op, "forward" | "inverse")
    }
}

/// An answered query.
pub struct Answer {
    /// Parse + handle + encode time, in seconds.
    pub seconds: f64,
    /// The response with its `counters` object stripped (the part that
    /// must be the same on every run).
    pub stable: String,
    pub response: JsonValue,
}

fn handle_span(op: &str) -> &'static str {
    match op {
        "forward" => "serve.handle.forward",
        "inverse" => "serve.handle.inverse",
        "bist" => "serve.handle.bist",
        "line" => "serve.handle.line",
        _ => "serve.handle.lot",
    }
}

/// Sends one request line through `service`.
pub fn ask(service: &QueryService, query: &Query) -> Result<Answer, String> {
    let started = Instant::now();
    let parsed = span("serve.parse", || JsonValue::parse(&query.line))
        .map_err(|error| format!("request {:?} is not JSON: {error}", query.line))?;
    let response = span(handle_span(query.op), || service.handle(&parsed, None));
    let line = span("serve.encode", || response.to_line());
    let seconds = started.elapsed().as_secs_f64();
    let stable = match line.rfind(",\"counters\":") {
        Some(at) => format!("{}}}", &line[..at]),
        None => line,
    };
    if response.get("status").and_then(JsonValue::as_str) != Some("ok") {
        return Err(format!("query {} failed: {stable}", query.line));
    }
    check_forward(query, &parsed, &response)?;
    Ok(Answer {
        seconds,
        stable,
        response,
    })
}

/// A `forward` answer must be eq. 8 evaluated directly on the request.
fn check_forward(query: &Query, request: &JsonValue, response: &JsonValue) -> Result<(), String> {
    if query.op != "forward" {
        return Ok(());
    }
    let field = |name: &str| {
        request
            .get(name)
            .and_then(JsonValue::as_f64)
            .unwrap_or(f64::NAN)
    };
    let expected = Yield::new(field("yield"))
        .ok()
        .and_then(|y| ModelParams::new(y, field("n0")).ok())
        .zip(FaultCoverage::new(field("coverage")).ok())
        .map(|(params, coverage)| field_reject_rate(&params, coverage).value());
    let answered = response.get("reject_rate").and_then(JsonValue::as_f64);
    match (expected, answered) {
        (Some(e), Some(a)) if e.to_bits() == a.to_bits() => Ok(()),
        _ => Err(format!(
            "forward {} answered {answered:?}, eq. 8 gives {expected:?}",
            query.line
        )),
    }
}
