//! The `/subscribe` route: the long-lived connection that watches the
//! catalog, re-renders the clamped spec and pushes delta records (wire
//! framing and the diff are in [`crate::sub`]).

use crate::http::{write_response, Request};
use crate::query::{parse_spec, prepare_query, request_engine, PreparedQuery};
use crate::{admitted, error_of, lock, record_exec_metrics, sub, Shared, RETRY_AFTER_SECS};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use v2v_core::V2vError;
use v2v_obs::Histogram;
use v2v_spec::Spec;
use v2v_time::TimeSet;

/// `POST /subscribe`: registers a spec and pushes incremental results
/// over the long-lived connection.
///
/// Protocol: the body is spec JSON exactly as `POST /query` takes it.
/// The spec is bound and, when part of its domain is servable, its
/// first refresh planned before any head is written, so a spec that
/// cannot bind or plan gets the error response a `/query` of it would.
/// On acceptance the response head carries
/// `content-type: application/x-v2v-delta` and **no** content-length;
/// the body is then a sequence of delta records (see [`sub`]) until
/// the client disconnects or the server stops. A refresh that fails to
/// plan or render ends the stream with one failure record naming the
/// error's kind.
///
/// Each refresh clamps the spec's time domain to the servable prefix
/// ([`v2v_spec::servable_domain`]) of a catalog snapshot, renders it
/// through the normal admission/sharing/cluster path (so unchanged
/// segments come out of the render cache), and pushes the suffix from
/// the output keyframe at-or-before the divergence. The cumulative
/// client-side stream after record `n` is byte-identical to a cold
/// `POST /query` of the same spec at the same source length.
pub(crate) fn handle_subscribe(req: &Request, mut writer: TcpStream, shared: &Shared) {
    // Bind once up front, through the engine a query gets, and plan the
    // first refresh, so an unservable spec (missing file, bad SQL,
    // unencodable output) is a proper error response, not an empty
    // stream. The first refresh runs the plan made here.
    let accepted = parse_spec(&req.body).and_then(|s| {
        request_engine(&s, shared)?.bind(&s)?;
        let first = plan_refresh(&s, None, shared)?;
        Ok((s, first))
    });
    let (spec, first) = match accepted {
        Ok(a) => a,
        Err(e) => {
            let _ = write_response(&mut writer, &error_of(&e));
            return;
        }
    };
    // Accepted: switch to the open-ended delta stream.
    if write!(
        writer,
        "HTTP/1.1 200 OK\r\ncontent-type: {}\r\nconnection: close\r\n\r\n",
        sub::DELTA_CONTENT_TYPE
    )
    .and_then(|()| writer.flush())
    .is_err()
    {
        return;
    }
    let before = shared.subs_active.fetch_add(1, Ordering::Relaxed);
    shared.metrics.sub_active.set(before + 1);
    subscription_loop(&spec, first, &mut writer, shared);
    let before = shared.subs_active.fetch_sub(1, Ordering::Relaxed);
    shared.metrics.sub_active.set(before - 1);
}

/// One refresh's starting point: the catalog version it read, the
/// spec's servable domain at that version, and the clamped spec planned
/// when that domain is non-empty and new (`None`: nothing to render).
struct Refresh {
    seen: u64,
    clamped: TimeSet,
    prepared: Option<PreparedQuery>,
}

/// Clamps `spec` to the servable prefix of the current catalog and,
/// when that differs from `last_domain`, plans the clamped spec.
fn plan_refresh(
    spec: &Spec,
    last_domain: Option<&TimeSet>,
    shared: &Shared,
) -> Result<Refresh, V2vError> {
    let seen = shared.version();
    // Every video the spec names was bound up front, and bound
    // names stay, so the shared catalog answers the clamp.
    let clamped = v2v_spec::servable_domain(spec, &shared.catalog_read().source_infos());
    let dirty = !clamped.is_empty() && last_domain.map_or(true, |d| !d.set_eq(&clamped));
    let prepared = if dirty {
        let mut clamped_spec = spec.clone();
        clamped_spec.time_domain = clamped.clone();
        let hist = &shared.metrics.sub_prepare_ns;
        Some(timed(hist, || prepare_query(&clamped_spec, shared))?)
    } else {
        None
    };
    Ok(Refresh {
        seen,
        clamped,
        prepared,
    })
}

/// The watcher/render/push cycle of one subscription, starting from
/// the refresh [`handle_subscribe`] planned.
fn subscription_loop(spec: &Spec, first: Refresh, writer: &mut TcpStream, shared: &Shared) {
    let mut next = Some(first);
    let mut cumulative: Option<v2v_container::VideoStream> = None;
    let mut last_domain: Option<TimeSet> = None;
    let mut seq = 0u64;
    loop {
        if shared.stopping.load(Ordering::SeqCst) {
            return;
        }
        let refresh = match next.take() {
            Some(r) => r,
            None => match plan_refresh(spec, last_domain.as_ref(), shared) {
                Ok(r) => r,
                Err(e) => return fail(writer, &e),
            },
        };
        let seen = refresh.seen;
        if let Some(mut prepared) = refresh.prepared {
            let m = &shared.metrics;
            let Some((result, _)) = admitted(shared, || {
                timed(&m.sub_run_ns, || prepared.engine.run_prepared(prepared.run))
            }) else {
                // Saturated: back off, leave last_domain unset so the
                // next cycle retries the same refresh.
                std::thread::sleep(Duration::from_secs(RETRY_AFTER_SECS));
                continue;
            };
            let (report, _trace) = match result {
                Ok(r) => r,
                Err(e) => return fail(writer, &e),
            };
            m.sub_renders.inc();
            record_exec_metrics(&m.exec, &report.stats);
            let delta = timed(&m.sub_diff_ns, || {
                sub::delta_between(cumulative.as_ref(), &report.output)
            });
            if let Some((from, delta)) = delta {
                let written = timed(&m.sub_write_ns, || {
                    let svc = v2v_container::svc_to_bytes(&delta).ok()?;
                    let header = sub::DeltaHeader {
                        seq,
                        from_frame: from as u64,
                        frames: delta.len() as u64,
                        svc_len: svc.len() as u64,
                        version: seen,
                    };
                    sub::write_delta(writer, &header, &svc).ok()
                });
                if written.is_none() {
                    return; // unencodable delta, or the client is gone
                }
                seq += 1;
                m.sub_deltas.inc();
                m.sub_frames_pushed.add(delta.len() as u64);
            }
            cumulative = Some(report.output);
            last_domain = Some(refresh.clamped);
        }
        // Sleep until the catalog grows (or the server stops); poll the
        // client socket each interval so an abandoned subscription does
        // not linger forever.
        let mut v = lock(&shared.catalog_version);
        while *v == seen {
            if shared.stopping.load(Ordering::SeqCst) {
                return;
            }
            let (guard, timed_out) = shared
                .catalog_grew
                .wait_timeout(v, Duration::from_millis(250))
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            v = guard;
            if timed_out.timed_out() {
                drop(v);
                if client_disconnected(writer) {
                    return;
                }
                v = lock(&shared.catalog_version);
            }
        }
    }
}

/// Ends a subscription whose refresh failed with a failure record. A
/// client already gone does not hear it, which is fine.
fn fail(writer: &mut TcpStream, e: &V2vError) {
    let failure = sub::RefreshFailed {
        kind: e.kind(),
        message: e.to_string(),
    };
    let _ = sub::write_failure(writer, &failure);
}

/// Runs `f`, recording its wall time in `hist`.
fn timed<T>(hist: &Histogram, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    hist.record(started.elapsed().as_nanos() as u64);
    out
}

/// `true` when the subscription's client has closed its end. Clients
/// send nothing after the request, so any `read` returning 0 is a
/// disconnect; a timeout means the peer is simply quiet.
fn client_disconnected(mut stream: &TcpStream) -> bool {
    if stream
        .set_read_timeout(Some(Duration::from_millis(1)))
        .is_err()
    {
        return true;
    }
    let mut probe = [0u8; 1];
    match stream.read(&mut probe) {
        Ok(0) => true,
        Ok(_) => false, // stray bytes: tolerate
        Err(e) => !matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
    }
}
