//! `v2v check`: static checks and per-video needs.

use crate::{invalid, load_spec};
use v2v_core::{ErrorKind, V2vEngine, V2vError};
use v2v_exec::Catalog;

pub(crate) fn cmd_check(args: &[String]) -> Result<(), V2vError> {
    let spec_path = args.first().ok_or_else(|| invalid("missing spec path"))?;
    let spec = load_spec(spec_path)?;
    let mut engine = V2vEngine::new(Catalog::new());
    engine.bind(&spec)?;
    println!("--- spec (paper notation) ---");
    print!("{}", v2v_spec::to_dsl_string(&spec));
    println!();
    match v2v_spec::check_spec(&spec, &engine.catalog().source_infos()) {
        Ok(report) => {
            println!("spec OK");
            for (video, req) in &report.required {
                println!("  {video}: requires {} frames ({req})", req.count());
            }
            for w in &report.warnings {
                println!("  warning: {w}");
            }
            Ok(())
        }
        Err(errors) => {
            for e in &errors {
                eprintln!("  error: {e}");
            }
            Err(V2vError::new(
                ErrorKind::Plan,
                format!("{} check error(s)", errors.len()),
            ))
        }
    }
}
