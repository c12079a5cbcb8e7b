//! `v2v store`: offline variant-store management.

use crate::{invalid, Args};
use v2v_core::V2vError;

/// Default variant-store directory for the `store` subcommands and
/// `run --store`.
const DEFAULT_STORE_DIR: &str = "v2v-store";

pub(crate) fn open_store(dir: &str) -> Result<v2v_store::SourceStore, V2vError> {
    v2v_store::SourceStore::open(dir).map_err(|e| V2vError::wrap(e.kind(), e))
}

/// `v2v store ls|materialize|drop`: offline variant-store management.
/// The same store directory can then be handed to `run --store` or
/// `serve --store-dir`.
pub(crate) fn cmd_store(args: &[String]) -> Result<(), V2vError> {
    let Some(op) = args.first().map(String::as_str) else {
        return Err(invalid("store needs a subcommand: ls | materialize | drop"));
    };
    let mut store_dir = DEFAULT_STORE_DIR.to_string();
    let mut positional: Vec<String> = Vec::new();
    let mut args = Args(args[1..].iter());
    while let Some(arg) = args.next() {
        match arg {
            "--store" => store_dir = args.value(arg)?.to_string(),
            "--json" => {}
            other if other.starts_with("--") => {
                return Err(invalid(format!("unexpected argument '{other}'")))
            }
            other => positional.push(other.to_string()),
        }
    }
    let parse_kind = |s: &str| {
        v2v_plan::VariantKind::parse(s)
            .filter(|k| !k.is_original())
            .ok_or_else(|| invalid(format!("bad variant kind '{s}' (dense|archive|proxy)")))
    };
    match op {
        "ls" => {
            let store = open_store(&store_dir)?;
            let manifests = store.manifests().map_err(|e| V2vError::wrap(e.kind(), e))?;
            if manifests.is_empty() {
                println!("{store_dir}: no managed sources");
                return Ok(());
            }
            println!("{store_dir}:");
            for m in &manifests {
                println!("  {} ({} committed frames):", m.name, m.covered_frames);
                for v in &m.variants {
                    println!(
                        "    {:<8} {} bytes, {} frames, gop {}{}",
                        v.kind.name(),
                        v.byte_size,
                        v.covered_frames,
                        v.params.gop_size,
                        if v.pinned { ", pinned" } else { "" }
                    );
                }
            }
            println!(
                "  total managed: {} bytes",
                store
                    .managed_bytes()
                    .map_err(|e| V2vError::wrap(e.kind(), e))?
            );
            Ok(())
        }
        "materialize" => {
            let [name, video_path, kind] = positional.as_slice() else {
                return Err(invalid("store materialize needs <name> <video.svc> <kind>"));
            };
            let kind = parse_kind(kind)?;
            let original = v2v_container::read_svc(video_path)?;
            let store = open_store(&store_dir)?;
            let entry = store
                .materialize(name, &original, v2v_store::TranscodeSpec::for_kind(kind))
                .map_err(|e| V2vError::wrap(e.kind(), e))?;
            println!(
                "materialized {name}@{}: {} frames, {} bytes (gop {}) in {store_dir}",
                kind.name(),
                entry.covered_frames,
                entry.byte_size,
                entry.params.gop_size
            );
            Ok(())
        }
        "drop" => {
            let [name, kind] = positional.as_slice() else {
                return Err(invalid("store drop needs <name> <kind>"));
            };
            let kind = parse_kind(kind)?;
            let store = open_store(&store_dir)?;
            let dropped = store
                .drop_variant(name, kind, true)
                .map_err(|e| V2vError::wrap(e.kind(), e))?;
            if dropped {
                println!("dropped {name}@{} from {store_dir}", kind.name());
            } else {
                println!("{name}@{} was not materialized", kind.name());
            }
            Ok(())
        }
        other => Err(invalid(format!(
            "unknown store subcommand '{other}' (ls | materialize | drop)"
        ))),
    }
}
