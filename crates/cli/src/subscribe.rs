//! `v2v subscribe`: follow a query live.

use crate::{invalid, load_spec, refused, resolve_addr, Args};
use v2v_core::{ErrorKind, V2vError};
use v2v_serve::sub::RefreshFailed;

/// `v2v subscribe`: registers a spec with a daemon's `POST /subscribe`
/// and applies delta records as they arrive, keeping `-o` byte-identical
/// to a cold run of the spec at the current source length.
pub(crate) fn cmd_subscribe(args: &[String]) -> Result<(), V2vError> {
    let mut spec_path: Option<String> = None;
    let mut to = "127.0.0.1:7878".to_string();
    let mut out_path: Option<String> = None;
    let mut max_deltas: Option<u64> = None;
    let mut args = Args(args.iter());
    while let Some(arg) = args.next() {
        match arg {
            "--to" => to = args.value(arg)?.to_string(),
            "-o" | "--output" => out_path = Some(args.value("-o")?.to_string()),
            "--max-deltas" => max_deltas = Some(args.parsed(arg)?),
            "--json" => {}
            other if spec_path.is_none() => spec_path = Some(other.to_string()),
            other => return Err(invalid(format!("unexpected argument '{other}'"))),
        }
    }
    let spec_path = spec_path.ok_or_else(|| invalid("missing spec path"))?;
    let spec = load_spec(&spec_path)?;
    let addr = resolve_addr(&to)?;
    let mut resp =
        v2v_serve::http::client::open_stream(addr, "POST", "/subscribe", spec.to_json().as_bytes())
            .map_err(|e| {
                V2vError::with_source(ErrorKind::Io, format!("POST /subscribe to {to}"), e)
            })?;
    if resp.status != 200 {
        use std::io::Read;
        let mut body = Vec::new();
        let _ = resp.reader.read_to_end(&mut body);
        return Err(refused("subscribe", resp.status, &body));
    }
    println!("subscribed to {to} (spec {spec_path})");
    let mut applier = v2v_serve::sub::DeltaApplier::new();
    let mut count = 0u64;
    loop {
        let record = v2v_serve::sub::read_delta(&mut resp.reader).map_err(|e| {
            // A failure record ends the stream with the server's kind.
            let failed = e.get_ref().and_then(|e| e.downcast_ref::<RefreshFailed>());
            match failed {
                Some(f) => V2vError::new(f.kind, format!("after {count} delta(s): {f}")),
                None => V2vError::with_source(ErrorKind::Io, "reading delta stream", e),
            }
        })?;
        let Some((header, svc)) = record else {
            break; // server closed the subscription cleanly
        };
        let cumulative = applier.apply(&header, &svc).map_err(|e| {
            let message = format!("applying delta {}", header.seq);
            V2vError::with_source(ErrorKind::CorruptData, message, e)
        })?;
        if let Some(out) = &out_path {
            v2v_container::write_svc(cumulative, out)?;
        }
        println!(
            "delta {}: splice at frame {}, {} frames ({} bytes) -> {} total (catalog v{})",
            header.seq,
            header.from_frame,
            header.frames,
            header.svc_len,
            cumulative.len(),
            header.version
        );
        count += 1;
        if max_deltas.is_some_and(|m| count >= m) {
            break;
        }
    }
    println!("subscription ended after {count} delta(s)");
    Ok(())
}
