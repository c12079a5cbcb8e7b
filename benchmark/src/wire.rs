//! The harness's HTTP client: the daemon's own `client::open_stream`,
//! with the instants of the first and last body byte stamped.

use crate::record::{Facts, Op};
use crate::trace::Tracer;
use std::io::{BufRead, Read};
use std::net::SocketAddr;
use std::time::Instant;
use v2v_exec::ExecStats;
use v2v_serve::http::client;

pub struct Reply {
    pub status: u16,
    /// When the first body byte was readable.
    pub first_byte: Instant,
    /// When the last body byte had been read.
    pub done: Instant,
    pub body: Vec<u8>,
    /// The `x-v2v-stats` header, verbatim.
    pub stats: Option<String>,
}

/// One request on a fresh connection, as every daemon client makes it.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> std::io::Result<Reply> {
    let mut resp = client::open_stream(addr, method, path, body)?;
    resp.reader.fill_buf()?;
    let first_byte = Instant::now();
    let mut body = Vec::new();
    match resp
        .header_value("content-length")
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(len) => {
            body.resize(len, 0);
            resp.reader.read_exact(&mut body)?;
        }
        None => {
            resp.reader.read_to_end(&mut body)?;
        }
    }
    Ok(Reply {
        status: resp.status,
        first_byte,
        done: Instant::now(),
        stats: resp.header_value("x-v2v-stats").map(str::to_string),
        body,
    })
}

/// `GET /status`, parsed.
pub fn status(addr: SocketAddr) -> serde_json::Value {
    request(addr, "GET", "/status", b"")
        .ok()
        .and_then(|r| serde_json::from_slice(&r.body).ok())
        .unwrap_or_default()
}

/// A numeric field of a JSON document by path; 0 when absent.
pub fn number(v: &serde_json::Value, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(v, |node, key| node.get(key))
        .and_then(serde_json::Value::as_f64)
        .unwrap_or(0.0)
}

/// The `x-v2v-stats` header: the run's `ExecStats` plus `queue_wait_ns`.
fn parse_stats(header: Option<&str>) -> (ExecStats, f64) {
    let Some(serde_json::Value::Object(mut map)) =
        header.and_then(|h| serde_json::from_str::<serde_json::Value>(h).ok())
    else {
        return (ExecStats::default(), 0.0);
    };
    let wait_ns = map
        .remove("queue_wait_ns")
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0);
    let stats = serde_json::from_value(serde_json::Value::Object(map)).unwrap_or_default();
    (stats, wait_ns / 1e6)
}

/// One `POST /query`, timed from `from` (the moment before the call for
/// a closed loop, the scheduled send time for an open one): latency to
/// the last body byte, ttfp to the first. The body is checked against
/// `reference` when there is one; its own digest and frame count are
/// returned for requests whose reference is rendered later.
pub fn query(
    addr: SocketAddr,
    (class, name): (usize, &'static str),
    body: &[u8],
    from: Instant,
    reference: Option<(u64, usize)>,
    tracer: Option<&mut Tracer>,
) -> (Op, Option<(u64, usize)>) {
    let sent = Instant::now();
    let reply = request(addr, "POST", "/query", body);
    let mut op = Op {
        class,
        latency_ms: Some(from.elapsed().as_secs_f64() * 1e3),
        ..Op::default()
    };
    let Ok(reply) = reply else {
        return (op, None);
    };
    op.latency_ms = Some((reply.done - from).as_secs_f64() * 1e3);
    op.ttfp_ms = Some((reply.first_byte - from).as_secs_f64() * 1e3);
    let got = (reply.status == 200)
        .then(|| crate::digest::of_svc(&reply.body))
        .flatten();
    op.frames = got.map_or(0, |(_, frames)| frames as u64);
    op.ok = match (got, reference) {
        (Some(got), Some(want)) => got == want,
        (Some(_), None) => true,
        (None, _) => false,
    };
    if let Some(tracer) = tracer {
        let id = tracer.spans.len() as u32;
        let root = tracer.add(id, None, name, tracer.us(from), tracer.us(reply.done));
        if sent > from {
            tracer.add(
                id,
                Some(root),
                "harness.late",
                tracer.us(from),
                tracer.us(sent),
            );
        }
        tracer.add(
            id,
            Some(root),
            "serve.first_byte",
            tracer.us(sent),
            tracer.us(reply.first_byte),
        );
        tracer.add(
            id,
            Some(root),
            "serve.body",
            tracer.us(reply.first_byte),
            tracer.us(reply.done),
        );
        let (stats, queue_wait_ms) = parse_stats(reply.stats.as_deref());
        op.facts = Some(Box::new(Facts {
            queue_wait_ms,
            body_bytes: reply.body.len() as u64,
            exec: Some(stats),
            ..Facts::default()
        }));
    }
    (op, got)
}
