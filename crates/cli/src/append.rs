//! `v2v append`: commit GOPs locally or to a daemon.

use crate::{invalid, refused, resolve_addr, Args};
use v2v_core::{ErrorKind, V2vError};

/// `v2v append`: local mode commits GOPs onto a live `.svc` container;
/// `--to` mode POSTs them to a serving daemon's `/append/<name>`.
pub(crate) fn cmd_append(args: &[String]) -> Result<(), V2vError> {
    let mut to: Option<String> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut args = Args(args.iter());
    while let Some(arg) = args.next() {
        match arg {
            "--to" => to = Some(args.value(arg)?.to_string()),
            "--json" => {}
            other if other.starts_with("--") => {
                return Err(invalid(format!("unexpected argument '{other}'")))
            }
            other => positional.push(other.to_string()),
        }
    }
    let [target, more_path] = positional.as_slice() else {
        return Err(invalid(if to.is_some() {
            "append --to needs <name> <more.svc>"
        } else {
            "append needs <live.svc> <more.svc>"
        }));
    };
    // `read_svc` accepts sealed and live containers alike (a live
    // source yields its committed prefix), so any `.svc` can feed an
    // append.
    let more = v2v_container::read_svc(more_path)?;
    if more.is_empty() {
        return Err(invalid(format!("{more_path} holds no frames")));
    }
    match to {
        Some(to) => {
            let addr = resolve_addr(&to)?;
            let bytes = v2v_container::svc_to_bytes(&more)?;
            let resp = v2v_serve::http::client::request(
                addr,
                "POST",
                &format!("/append/{target}"),
                &bytes,
            )
            .map_err(|e| {
                let message = format!("POST /append/{target} to {to}");
                V2vError::with_source(ErrorKind::Io, message, e)
            })?;
            if resp.status != 200 {
                return Err(refused("append", resp.status, &resp.body));
            }
            let info: serde_json::Value = serde_json::from_slice(&resp.body).map_err(|e| {
                V2vError::with_source(ErrorKind::CorruptData, "parsing append response", e)
            })?;
            println!(
                "appended {} frames to '{target}' on {to}: {} total (catalog v{})",
                more.len(),
                info.get("frames").and_then(|f| f.as_u64()).unwrap_or(0),
                info.get("version").and_then(|v| v.as_u64()).unwrap_or(0),
            );
        }
        None => {
            let mut writer = if std::path::Path::new(target).exists() {
                v2v_container::LiveWriter::open(target)?
            } else {
                v2v_container::LiveWriter::create(
                    target,
                    *more.params(),
                    more.start(),
                    more.frame_dur(),
                )?
            };
            let before = writer.committed();
            writer.append_stream(&more)?;
            println!(
                "appended {} frames to {target}: {} committed (next instant {})",
                writer.committed() - before,
                writer.committed(),
                writer.next_pts()
            );
        }
    }
    Ok(())
}
