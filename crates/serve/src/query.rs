//! The query route family: `POST /query` and the worker's
//! `POST /render-segment`, with the parse, bind, plan and execute
//! steps they share with [`crate::subscribe`].

use crate::cluster::PoolRemote;
use crate::http::{Request, Response};
use crate::{
    admitted, error_of, error_response, lock, overload_response, record_exec_metrics, store_svc,
    Shared,
};
use std::sync::Arc;
use v2v_core::{ErrorKind, PreparedRun, V2vEngine, V2vError};
use v2v_exec::ExecStats;
use v2v_spec::Spec;
use v2v_store::profile_plan;

/// A parsed, planned query waiting to execute: the engine it was
/// prepared on (carrying the daemon's shared cache) plus the prepared
/// plan.
pub(crate) struct PreparedQuery {
    pub(crate) engine: V2vEngine,
    pub(crate) run: PreparedRun,
}

pub(crate) fn handle_query(req: &Request, shared: &Shared) -> Response {
    // Parse and plan before admission, so a bad spec never takes a slot.
    let prepared = match parse_spec(&req.body).and_then(|spec| prepare_query(&spec, shared)) {
        Ok(p) => p,
        Err(e) => {
            shared.metrics.jobs_failed.inc();
            return error_of(&e);
        }
    };
    let Some((result, queue_wait_ns)) = admitted(shared, || execute_prepared(prepared)) else {
        return overload_response(shared);
    };
    match result {
        Ok((bytes, stats)) => {
            shared.metrics.jobs_done.inc();
            record_exec_metrics(&shared.metrics.exec, &stats);
            Response::new(200, "application/octet-stream", bytes)
                .header("x-v2v-stats", stats_header(&stats, queue_wait_ns))
        }
        Err(e) => {
            shared.metrics.jobs_failed.inc();
            error_of(&e)
        }
    }
}

/// A coordinator's request: render one keyed segment of the embedded
/// spec and return the fragment in wire framing.
#[derive(serde::Deserialize)]
struct RenderSegmentRequest {
    /// The full spec of the coordinator's query.
    spec: Spec,
    /// Index of the segment to render in the prepared physical plan.
    seg_index: usize,
    /// Expected fragment key (hex), cross-checked against the plan the
    /// worker derives — a mismatch means coordinator and worker do not
    /// agree on the plan and the dispatch must not be trusted.
    key: String,
}

pub(crate) fn handle_render_segment(req: &Request, shared: &Shared) -> Response {
    let parsed: RenderSegmentRequest = match serde_json::from_slice(&req.body) {
        Ok(p) => p,
        Err(e) => {
            return error_response(
                ErrorKind::InvalidRequest,
                &format!("bad render request: {e}"),
            )
        }
    };
    let Ok(key) = u64::from_str_radix(&parsed.key, 16) else {
        return error_response(ErrorKind::InvalidRequest, "key is not a hex u64");
    };
    let mut prepared = match prepare_query(&parsed.spec, shared) {
        Ok(p) => p,
        Err(e) => return error_of(&e),
    };
    // The segment key is content-derived, so equality proves both sides
    // planned the same segment over the same sources.
    if prepared.run.segment_keys().get(parsed.seg_index).copied() != Some(Some(key)) {
        return error_response(
            ErrorKind::CorruptData,
            &format!(
                "segment {} key mismatch: worker plan disagrees with coordinator",
                parsed.seg_index
            ),
        );
    }
    let Some((result, _)) = admitted(shared, || {
        prepared
            .engine
            .render_segment_fragment(&prepared.run, parsed.seg_index)
    }) else {
        return overload_response(shared);
    };
    match result {
        Ok((frag, stats)) => {
            shared.metrics.segments_rendered.inc();
            record_exec_metrics(&shared.metrics.exec, &stats);
            match v2v_container::fragment_to_wire(key, &frag) {
                Ok(bytes) => Response::new(200, "application/octet-stream", bytes),
                Err(e) => error_response(ErrorKind::Internal, &format!("fragment encode: {e}")),
            }
        }
        Err(e) => error_of(&e),
    }
}

/// Parses a request body as spec JSON.
pub(crate) fn parse_spec(body: &[u8]) -> Result<Spec, V2vError> {
    let text = std::str::from_utf8(body)
        .map_err(|e| V2vError::new(ErrorKind::InvalidRequest, format!("spec not UTF-8: {e}")))?;
    Spec::from_json(text)
        .map_err(|e| V2vError::new(ErrorKind::InvalidRequest, format!("bad spec: {e}")))
}

/// Binds every video `spec` names that the shared catalog lacks, once
/// per daemon, exactly as on one long-lived [`V2vEngine`]: names
/// already bound win. Each missing locator is read (and its store
/// variants loaded) outside any lock, then inserted under the write
/// lock only if the name is still absent. A bind changes no existing
/// binding, so it does not bump the catalog version.
fn bind_videos(spec: &Spec, shared: &Shared) -> Result<(), V2vError> {
    for (name, locator) in &spec.videos {
        if shared.catalog_read().video(name).is_some() {
            continue;
        }
        let stream = V2vEngine::read_video(name, locator)?;
        // Variants are advisory: a store failure degrades to the original.
        let store = shared.store.as_ref();
        let variants = store.and_then(|s| s.load_variants(name, &stream).ok());
        let mut catalog = shared.catalog_write();
        if catalog.video(name).is_none() {
            catalog.add_video(name.clone(), stream);
            if let Some((loaded, _)) = variants {
                v2v_store::attach_variants(&mut catalog, name, loaded);
            }
            lock(&shared.locators).insert(name.clone(), locator.clone());
        }
    }
    // A locator-bound name must be named by its own locator (compared as
    // strings), or the spec would silently get the other file.
    // Pre-registered and appended names have none: a spec's is ignored.
    let locators = lock(&shared.locators);
    for (name, locator) in &spec.videos {
        if let Some(bound) = locators.get(name).filter(|bound| *bound != locator) {
            let message = format!("video '{name}' is bound to locator '{bound}', not '{locator}'");
            return Err(V2vError::new(ErrorKind::InvalidRequest, message));
        }
    }
    Ok(())
}

/// A fresh engine for one request, over a snapshot of the shared
/// catalog taken after [`bind_videos`] (the clone is cheap: streams and
/// data arrays are `Arc`-backed, and share their digest memos with the
/// snapshot), so its own `bind` finds every video bound and only
/// materializes the data arrays the catalog lacks — those stay per
/// request, since a `sql:` array is windowed to the spec.
pub(crate) fn request_engine(spec: &Spec, shared: &Shared) -> Result<V2vEngine, V2vError> {
    bind_videos(spec, shared)?;
    let mut config = shared.config.engine.clone();
    if let Some(pool) = &shared.pool {
        // Coordinator: keyed segments of this query may render on
        // workers. The spec rides along so each dispatch is
        // self-describing.
        if let Ok(value) = serde_json::to_value(spec) {
            config.remote = Some(Arc::new(PoolRemote::new(Arc::clone(pool), value)));
        }
    }
    Ok(V2vEngine::new(shared.catalog_read().clone())
        .with_database(shared.database.clone())
        .with_config(config))
}

/// Plans one spec on its [`request_engine`].
pub(crate) fn prepare_query(spec: &Spec, shared: &Shared) -> Result<PreparedQuery, V2vError> {
    let mut engine = request_engine(spec, shared)?;
    let run = engine.prepare(spec)?;
    if shared.store.is_some() {
        // Feed the compactor: classify this plan's source reads by
        // access shape (smart-cut / scan / preview).
        let profiles = profile_plan(run.plan(), engine.catalog().plan_context());
        store_svc::record_profiles(shared, &profiles);
    }
    Ok(PreparedQuery { engine, run })
}

/// Executes a prepared query and serializes the result container.
fn execute_prepared(mut prepared: PreparedQuery) -> Result<(Vec<u8>, ExecStats), V2vError> {
    let (report, _trace) = prepared.engine.run_prepared(prepared.run)?;
    let bytes = v2v_container::svc_to_bytes(&report.output)?;
    Ok((bytes, report.stats))
}

/// The `x-v2v-stats` header value: the run's [`ExecStats`] JSON with
/// the admission wait injected alongside, so clients can split queue
/// time from render time.
fn stats_header(stats: &ExecStats, queue_wait_ns: u64) -> String {
    let mut value = serde_json::to_value(stats).unwrap_or_default();
    if let serde_json::Value::Object(map) = &mut value {
        map.insert("queue_wait_ns".into(), queue_wait_ns.into());
    }
    serde_json::to_string(&value).unwrap_or_default()
}
