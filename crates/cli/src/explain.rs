//! `v2v explain`: both plans and the rewrite trace, optionally measured.

use crate::{invalid, load_database, load_spec, Args};
use v2v_core::{V2vEngine, V2vError};
use v2v_exec::Catalog;

pub(crate) fn cmd_explain(args: &[String]) -> Result<(), V2vError> {
    let mut spec_path = None;
    let mut db_path = None;
    let mut analyze = false;
    let mut json = false;
    let mut args = Args(args.iter());
    while let Some(arg) = args.next() {
        match arg {
            "--db" => db_path = Some(args.value(arg)?.to_string()),
            "--analyze" => analyze = true,
            "--json" => json = true,
            other if spec_path.is_none() => spec_path = Some(other.to_string()),
            other => return Err(invalid(format!("unexpected argument '{other}'"))),
        }
    }
    let spec_path = spec_path.ok_or_else(|| invalid("missing spec path"))?;
    let spec = load_spec(&spec_path)?;
    let mut engine = V2vEngine::new(Catalog::new());
    if let Some(db_path) = db_path {
        engine = engine.with_database(load_database(&db_path)?);
    }
    if analyze {
        let report = engine.explain_analyze(&spec)?;
        if json {
            println!("{}", report.to_json());
        } else {
            print!("{}", report.pretty());
        }
    } else {
        let report = engine.explain(&spec)?;
        if json {
            println!("{}", report.to_json());
        } else {
            print!("{}", report.pretty());
        }
    }
    Ok(())
}
