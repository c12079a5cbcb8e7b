//! `v2v info`: stream facts.

use crate::invalid;
use v2v_core::V2vError;

pub(crate) fn cmd_info(args: &[String]) -> Result<(), V2vError> {
    let path = args.first().ok_or_else(|| invalid("missing video path"))?;
    let s = v2v_container::read_svc(path)?;
    let p = s.params();
    println!("{path}:");
    println!("  frames     : {}", s.len());
    println!("  frame type : {}", p.frame_ty);
    println!("  fps        : {}", s.frame_dur().recip());
    println!(
        "  gop        : {} frames (quantizer {})",
        p.gop_size, p.quantizer
    );
    println!("  keyframes  : {}", s.keyframe_indices().len());
    println!("  bytes      : {}", s.byte_size());
    println!(
        "  duration   : {:.2}s from {}",
        (s.frame_dur() * v2v_time::Rational::from_int(s.len() as i64)).to_f64(),
        s.start()
    );
    Ok(())
}
