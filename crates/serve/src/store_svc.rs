//! Variant-store serving: admin routes, the `/status` `store` block,
//! access-profile recording, and the background compaction pass.
//!
//! The daemon owns the full adaptive-storage loop: every prepared query
//! is profiled into per-source smart-cut / scan / preview rates, and the
//! compactor (background thread or `POST /store/compact`) turns those
//! rates plus the byte budget into materialize/drop actions executed
//! against the [`SourceStore`] and the live catalog.
//!
//! Routes (frontend role only):
//!
//! | route | effect |
//! |---|---|
//! | `GET /store` | manifests, attached variants, observed profiles |
//! | `POST /store/materialize/<name>/<kind>` | transcode + attach now |
//! | `POST /store/drop/<name>/<kind>` | drop bitstream + detach |
//! | `POST /store/pin/<name>/<kind>` | body `{"pinned": bool}` |
//! | `POST /store/compact` | run one compaction pass now |

use crate::http::{Request, Response};
use crate::{error_response, Shared};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;
use v2v_plan::VariantKind;
use v2v_store::{
    plan_compaction, AccessProfile, CompactionInput, SourceStore, StoreAction, StoreError, StoreOp,
    TranscodeSpec,
};

/// Accumulates one prepared plan's access profile into the daemon-wide
/// table and the `store.reads.*` counters.
pub(crate) fn record_profiles(shared: &Shared, profiles: &BTreeMap<String, AccessProfile>) {
    let mut table = shared
        .profiles
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    for (name, p) in profiles {
        table.entry(name.clone()).or_default().add(*p);
        shared.metrics.store_smart_cut.add(p.smart_cut);
        shared.metrics.store_scan.add(p.scan);
        shared.metrics.store_preview.add(p.preview);
    }
}

fn profiles_snapshot(shared: &Shared) -> BTreeMap<String, AccessProfile> {
    shared
        .profiles
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .clone()
}

/// The `store` object in `GET /status` (and the `GET /store` body).
pub(crate) fn status_block(shared: &Shared) -> Option<serde_json::Value> {
    let store = shared.store.as_ref()?;
    let budget = shared
        .config
        .store
        .as_ref()
        .map(|c| c.budget_bytes)
        .unwrap_or(u64::MAX);
    let attached: BTreeMap<String, Vec<&'static str>> = shared
        .catalog
        .read()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .variant_kinds()
        .into_iter()
        .map(|(name, kinds)| (name, kinds.into_iter().map(VariantKind::name).collect()))
        .collect();
    let variants: Vec<serde_json::Value> = store
        .manifests()
        .unwrap_or_default()
        .iter()
        .flat_map(|m| {
            m.variants
                .iter()
                .map(|v| {
                    serde_json::json!({
                        "source": m.name,
                        "kind": v.kind.name(),
                        "bytes": v.byte_size,
                        "covered_frames": v.covered_frames,
                        "gop_size": v.params.gop_size,
                        "pinned": v.pinned,
                    })
                })
                .collect::<Vec<_>>()
        })
        .collect();
    Some(serde_json::json!({
        "root": store.root().display().to_string(),
        "budget_bytes": budget,
        "managed_bytes": store.managed_bytes().unwrap_or(0),
        "attached": attached,
        "variants": variants,
        "profiles": profiles_snapshot(shared),
        "materializations": shared.metrics.store_materializations.get(),
        "drops": shared.metrics.store_drops.get(),
        "compactions": shared.store_compactions.load(Ordering::Relaxed),
    }))
}

/// `GET /store`.
pub(crate) fn handle_store_ls(shared: &Shared) -> Response {
    match status_block(shared) {
        Some(block) => Response::json(200, &block),
        None => error_response(404, "not_found", "no variant store configured"),
    }
}

fn parse_target(path: &str, op: &str) -> Option<(String, VariantKind)> {
    let rest = path.strip_prefix("/store/")?.strip_prefix(op)?;
    let rest = rest.strip_prefix('/')?;
    let (name, kind) = rest.split_once('/')?;
    if name.is_empty() {
        return None;
    }
    Some((name.to_string(), VariantKind::parse(kind)?))
}

fn store_status(e: &StoreError) -> u16 {
    match e {
        StoreError::UnknownSource(_) | StoreError::UnknownVariant { .. } => 404,
        StoreError::OriginalNotManaged => 400,
        StoreError::CorruptManifest { .. } | StoreError::DigestMismatch { .. } => 422,
        StoreError::Io { .. } | StoreError::Container(_) => 500,
    }
}

/// `POST /store/materialize/<name>/<kind>`, `/store/drop/...`,
/// `/store/pin/...`.
pub(crate) fn handle_store_admin(path: &str, req: &Request, shared: &Shared) -> Response {
    let Some(store) = shared.store.as_ref() else {
        return error_response(404, "not_found", "no variant store configured");
    };
    if let Some((name, kind)) = parse_target(path, "materialize") {
        return match materialize_and_attach(shared, store, &name, kind) {
            Ok(entry) => Response::json(
                200,
                &serde_json::json!({
                    "source": name,
                    "kind": kind.name(),
                    "bytes": entry.byte_size,
                    "covered_frames": entry.covered_frames,
                }),
            ),
            Err(resp) => resp,
        };
    }
    if let Some((name, kind)) = parse_target(path, "drop") {
        return match store.drop_variant(&name, kind, true) {
            Ok(dropped) => {
                if dropped {
                    detach(shared, &name, kind);
                    shared.metrics.store_drops.inc();
                }
                Response::json(
                    200,
                    &serde_json::json!({"source": name, "kind": kind.name(), "dropped": dropped}),
                )
            }
            Err(e) => error_response(store_status(&e), "store", &e.to_string()),
        };
    }
    if let Some((name, kind)) = parse_target(path, "pin") {
        let pinned = serde_json::from_slice::<serde_json::Value>(&req.body)
            .ok()
            .and_then(|v| v.get("pinned").and_then(|p| p.as_bool()))
            .unwrap_or(true);
        return match store.pin(&name, kind, pinned) {
            Ok(()) => Response::json(
                200,
                &serde_json::json!({"source": name, "kind": kind.name(), "pinned": pinned}),
            ),
            Err(e) => error_response(store_status(&e), "store", &e.to_string()),
        };
    }
    error_response(404, "not_found", &format!("no store route {path}"))
}

/// `POST /store/compact`: one synchronous compaction pass.
pub(crate) fn handle_store_compact(shared: &Shared) -> Response {
    if shared.store.is_none() {
        return error_response(404, "not_found", "no variant store configured");
    }
    let actions = compaction_pass(shared);
    Response::json(200, &serde_json::json!({"actions": actions}))
}

/// Transcodes one variant from the current committed prefix of the
/// catalog source and attaches it. Live sources may keep growing —
/// the variant covers exactly the frames present in the snapshot taken
/// here, and the planner falls back to the original past that prefix.
fn materialize_and_attach(
    shared: &Shared,
    store: &SourceStore,
    name: &str,
    kind: VariantKind,
) -> Result<v2v_store::VariantEntry, Response> {
    let Some(original) = shared.catalog_snapshot().video(name).cloned() else {
        return Err(error_response(
            404,
            "not_found",
            &format!("no catalog video '{name}'"),
        ));
    };
    store
        .materialize(name, &original, TranscodeSpec::for_kind(kind))
        .map_err(|e| error_response(store_status(&e), "store", &e.to_string()))?;
    // Re-load through the digest check rather than trusting the
    // in-memory transcode: attachment and recovery now share one path.
    let (stream, entry) = store
        .load_variant(name, kind)
        .map_err(|e| error_response(store_status(&e), "store", &e.to_string()))?;
    shared
        .catalog
        .write()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .add_variant(name, kind, Arc::new(stream), entry.covered_frames);
    shared.metrics.store_materializations.inc();
    Ok(entry)
}

fn detach(shared: &Shared, name: &str, kind: VariantKind) {
    shared
        .catalog
        .write()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .remove_variant(name, kind);
}

/// One compaction pass: observed profiles + store state + budget →
/// actions, executed immediately. Returns what was done (actions that
/// failed to execute are reported with an `error` field and skipped).
pub(crate) fn compaction_pass(shared: &Shared) -> Vec<serde_json::Value> {
    let Some(store) = shared.store.as_ref() else {
        return Vec::new();
    };
    let budget = shared
        .config
        .store
        .as_ref()
        .map(|c| c.budget_bytes)
        .unwrap_or(u64::MAX);
    let catalog = shared.catalog_snapshot();
    let profiles = profiles_snapshot(shared);
    let manifests = store.manifests().unwrap_or_default();
    // The union of catalog sources and managed manifests: a daemon
    // whose queries bind sources lazily by locator never registers
    // them in the shared catalog, but their variants still occupy the
    // budget (and their profiles still accumulate), so the compactor
    // must see them to evict.
    let mut names: Vec<String> = catalog.source_infos().keys().cloned().collect();
    for m in &manifests {
        if !names.contains(&m.name) {
            names.push(m.name.clone());
        }
    }
    let mut inputs = Vec::new();
    for name in &names {
        let materialized = manifests
            .iter()
            .find(|m| &m.name == name)
            .map(|m| {
                m.variants
                    .iter()
                    .map(|v| (v.kind, v.byte_size, v.pinned))
                    .collect()
            })
            .unwrap_or_default();
        inputs.push(CompactionInput {
            name: name.clone(),
            profile: profiles.get(name).copied().unwrap_or_default(),
            original_bytes: catalog.video(name).map(|s| s.byte_size()).unwrap_or(0),
            materialized,
        });
    }
    let actions = plan_compaction(&inputs, budget);
    let mut report = Vec::with_capacity(actions.len());
    for StoreAction { name, kind, op } in actions {
        // Transcoding needs the original, which only the catalog
        // holds; skip materializations for manifest-only sources
        // (drops and evictions still apply).
        if matches!(op, StoreOp::Materialize) && catalog.video(&name).is_none() {
            continue;
        }
        let outcome = match op {
            StoreOp::Materialize => materialize_and_attach(shared, store, &name, kind)
                .map(|_| ())
                .map_err(|_| "materialize failed".to_string()),
            StoreOp::Drop => match store.drop_variant(&name, kind, false) {
                Ok(dropped) => {
                    if dropped {
                        detach(shared, &name, kind);
                        shared.metrics.store_drops.inc();
                    }
                    Ok(())
                }
                Err(e) => Err(e.to_string()),
            },
        };
        let op_name = match op {
            StoreOp::Materialize => "materialize",
            StoreOp::Drop => "drop",
        };
        report.push(match outcome {
            Ok(()) => serde_json::json!({"source": name, "kind": kind.name(), "op": op_name}),
            Err(e) => serde_json::json!({
                "source": name,
                "kind": kind.name(),
                "op": op_name,
                "error": e,
            }),
        });
    }
    shared.store_compactions.fetch_add(1, Ordering::Relaxed);
    report
}

/// The background compaction loop: runs a pass every `interval`,
/// checking for shutdown at a fine grain so `stop()` never waits out a
/// full interval.
pub(crate) fn compaction_loop(shared: &Arc<Shared>, interval: Duration) {
    let tick = Duration::from_millis(25).min(interval);
    let mut since_pass = Duration::ZERO;
    while !shared.stopping.load(Ordering::SeqCst) {
        std::thread::sleep(tick);
        since_pass += tick;
        if since_pass >= interval {
            since_pass = Duration::ZERO;
            let _ = compaction_pass(shared);
        }
    }
}
