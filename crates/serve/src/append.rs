//! Live-source growth routes: `POST /append/<name>` for video GOPs and
//! `POST /append-data/<name>` for detection entries.

use crate::http::{Request, Response};
use crate::{error_response, Shared};
use v2v_core::ErrorKind;

/// `POST /append/<name>`: splices a sealed `.svc` of freshly-encoded
/// GOPs onto the named catalog video (or binds it fresh), then wakes
/// every subscription. The appended stream must continue the existing
/// grid — same codec parameters, first instant exactly one frame after
/// the current last — and must start at a keyframe, the same invariants
/// [`v2v_container::LiveWriter`] enforces on disk.
pub(crate) fn handle_append(path: &str, req: &Request, shared: &Shared) -> Response {
    let name = path.strip_prefix("/append/").unwrap_or_default();
    if name.is_empty() {
        return error_response(
            ErrorKind::InvalidRequest,
            "missing video name in /append/<name>",
        );
    }
    let new = match v2v_container::svc_from_bytes(&req.body) {
        Ok(s) => s,
        Err(e) => return error_response(ErrorKind::CorruptData, &format!("append container: {e}")),
    };
    if new.is_empty() {
        return error_response(
            ErrorKind::InvalidRequest,
            "appended container holds no frames",
        );
    }
    let mut catalog = shared.catalog_write();
    let total = match catalog.video(name).cloned() {
        Some(existing) => {
            // `concat` restamps whatever it is given; the continuity
            // check is ours. An append stamped anywhere but one frame
            // past the current end is a client bug (replay, reorder),
            // not a growth event.
            let expected = existing.start()
                + existing.frame_dur() * v2v_time::Rational::from_int(existing.len() as i64);
            if new.start() != expected {
                return error_response(
                    ErrorKind::CorruptData,
                    &format!(
                        "append starts at {} but '{name}' continues at {expected}",
                        new.start()
                    ),
                );
            }
            let joined = match v2v_container::VideoStream::concat(&[existing.as_ref(), &new]) {
                Ok(j) => j,
                Err(e) => {
                    return error_response(
                        ErrorKind::CorruptData,
                        &format!("append does not continue '{name}': {e}"),
                    )
                }
            };
            let n = joined.len();
            catalog.add_video(name, joined);
            n
        }
        None => {
            let n = new.len();
            catalog.add_video(name, new);
            n
        }
    };
    drop(catalog);
    shared.metrics.sub_appends.inc();
    shared.bump_version();
    Response::json(
        200,
        &serde_json::json!({"video": name, "frames": total, "version": shared.version()}),
    )
}

/// `POST /append-data/<name>`: appends `[{"t": <sec|[n,d]>, "value":
/// ...}]` entries to the named detection array and wakes
/// subscriptions. Values use the annotation conventions
/// ([`v2v_data::Value::from_json`]). An entry past the array's last
/// instant extends its entry digests if they are known; any other drops
/// them, for the next request to recompute.
pub(crate) fn handle_append_data(path: &str, req: &Request, shared: &Shared) -> Response {
    let name = path.strip_prefix("/append-data/").unwrap_or_default();
    if name.is_empty() {
        return error_response(
            ErrorKind::InvalidRequest,
            "missing array name in /append-data/<name>",
        );
    }
    let entries: Vec<serde_json::Value> = match serde_json::from_slice(&req.body) {
        Ok(e) => e,
        Err(e) => {
            return error_response(ErrorKind::InvalidRequest, &format!("append-data body: {e}"))
        }
    };
    let mut parsed = Vec::with_capacity(entries.len());
    for (i, entry) in entries.iter().enumerate() {
        // A missing `t` is read as `null`, which no instant shape takes.
        let t = entry.get("t").unwrap_or(&serde_json::Value::Null);
        let t = match v2v_data::json::parse_time(t) {
            Ok(t) => t,
            Err(e) => {
                return error_response(ErrorKind::InvalidRequest, &format!("entry {i}: 't': {e}"))
            }
        };
        let Some(value) = entry.get("value") else {
            return error_response(
                ErrorKind::InvalidRequest,
                &format!("entry {i}: missing 'value'"),
            );
        };
        parsed.push((t, v2v_data::Value::from_json(value)));
    }
    let count = parsed.len();
    let mut catalog = shared.catalog_write();
    let array = catalog.arrays_mut().entry(name.to_string()).or_default();
    for (t, v) in parsed {
        array.insert(t, v);
    }
    let total = array.len();
    drop(catalog);
    shared.metrics.sub_appends.inc();
    shared.bump_version();
    Response::json(
        200,
        &serde_json::json!({"array": name, "appended": count, "entries": total}),
    )
}
