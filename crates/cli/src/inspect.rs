//! `v2v inspect`: a container's physical layout.

use crate::invalid;
use v2v_core::{ErrorKind, V2vError};

/// `v2v inspect`: the physical layout the variant selector reasons
/// about — GOP length distribution, keyframe density, bytes per frame,
/// and whether the container is live (append-aware) or sealed.
pub(crate) fn cmd_inspect(args: &[String]) -> Result<(), V2vError> {
    let path = args.first().ok_or_else(|| invalid("missing video path"))?;
    // Sniff the magic directly: `read_svc` accepts both formats, so
    // live-vs-sealed is only visible in the header bytes.
    let head = std::fs::read(path)
        .map_err(|e| V2vError::with_source(ErrorKind::Io, format!("reading {path}"), e))?;
    let live = head.starts_with(b"SVCL");
    let s = v2v_container::read_svc(path)?;
    if s.is_empty() {
        return Err(invalid(format!("{path} holds no frames")));
    }
    let kf = s.keyframe_indices();
    // Each GOP runs from one keyframe to the next (the last runs to the
    // end of the stream).
    let mut gop_lens: Vec<usize> = kf.windows(2).map(|w| w[1] - w[0]).collect();
    if let Some(&last) = kf.last() {
        gop_lens.push(s.len() - last);
    }
    let min = gop_lens.iter().min().copied().unwrap_or(0);
    let max = gop_lens.iter().max().copied().unwrap_or(0);
    let mean = gop_lens.iter().sum::<usize>() as f64 / gop_lens.len().max(1) as f64;
    println!("{path}:");
    println!("  sealed     : {}", if live { "no (live)" } else { "yes" });
    println!("  frames     : {}", s.len());
    println!("  gops       : {}", gop_lens.len());
    println!(
        "  gop length : min {min} / mean {mean:.1} / max {max} (declared {})",
        s.params().gop_size
    );
    println!(
        "  keyframes  : {} ({:.4} per frame)",
        kf.len(),
        kf.len() as f64 / s.len() as f64
    );
    println!(
        "  bytes/frame: {:.1} ({} bytes total)",
        s.byte_size() as f64 / s.len() as f64,
        s.byte_size()
    );
    Ok(())
}
