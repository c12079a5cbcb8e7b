//! `v2v frame`: export one frame as PPM.

use crate::invalid;
use v2v_core::V2vError;

pub(crate) fn cmd_frame(args: &[String]) -> Result<(), V2vError> {
    let path = args.first().ok_or_else(|| invalid("missing video path"))?;
    let t: v2v_time::Rational = args
        .get(1)
        .ok_or_else(|| invalid("missing timestamp (seconds or n/d)"))?
        .parse()
        .map_err(|e| invalid(format!("bad timestamp: {e}")))?;
    let out_path = match (args.get(2).map(String::as_str), args.get(3)) {
        (Some("-o"), Some(p)) => p.clone(),
        (None, _) => "frame.ppm".to_string(),
        other => return Err(invalid(format!("unexpected arguments {other:?}"))),
    };
    let stream = v2v_container::read_svc(path)?;
    let (frame, decoded) = stream.decode_frame_at(t)?;
    v2v_frame::ppm::write_ppm(&frame, &out_path)?;
    println!(
        "wrote {out_path}: frame at {t} ({}x{}, {decoded} packets decoded)",
        frame.width(),
        frame.height()
    );
    Ok(())
}
