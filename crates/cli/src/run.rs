//! `v2v run`: the full pipeline over one spec, written to an `.svc` file.

use crate::store::open_store;
use crate::{invalid, load_database, load_spec, open_render_cache, Args, DEFAULT_CACHE_BUDGET};
use v2v_core::{EngineConfig, ErrorKind, V2vEngine, V2vError};
use v2v_exec::Catalog;

pub(crate) fn cmd_run(args: &[String]) -> Result<(), V2vError> {
    let mut spec_path = None;
    let mut out_path = "out.svc".to_string();
    let mut db_path = None;
    let mut trace_path: Option<String> = None;
    let mut error_report_path: Option<String> = None;
    let mut cache_dir: Option<String> = None;
    let mut cache_budget = DEFAULT_CACHE_BUDGET;
    let mut mem_cache_budget = 0u64;
    let mut store_dir: Option<String> = None;
    let mut config = EngineConfig::default();
    let mut optimize = true;
    let mut args = Args(args.iter());
    while let Some(arg) = args.next() {
        match arg {
            "-o" | "--output" => out_path = args.value("-o")?.to_string(),
            "--db" => db_path = Some(args.value(arg)?.to_string()),
            "--trace" => trace_path = Some(args.value(arg)?.to_string()),
            "--no-optimize" => optimize = false,
            "--no-dde" => config.data_rewrites = false,
            "--threads" => config.exec.num_threads = args.parsed(arg)?,
            "--no-cache" => config.exec.gop_cache_frames = 0,
            "--cache-dir" => cache_dir = Some(args.value(arg)?.to_string()),
            "--cache-budget" => cache_budget = args.parsed(arg)?,
            "--mem-cache-budget" => mem_cache_budget = args.parsed(arg)?,
            "--store" => store_dir = Some(args.value(arg)?.to_string()),
            "--variant" => {
                let v = args.value(arg)?;
                config.variants = v2v_plan::VariantPolicy::parse(v).ok_or_else(|| {
                    invalid(format!(
                        "bad --variant value '{v}' (auto|off|dense|archive|proxy)"
                    ))
                })?;
            }
            "--json" => {}
            "--on-error" => config.exec.on_error = args.parsed(arg)?,
            "--max-retries" => config.exec.max_retries = args.parsed(arg)?,
            "--error-report" => error_report_path = Some(args.value(arg)?.to_string()),
            other if spec_path.is_none() => spec_path = Some(other.to_string()),
            other => return Err(invalid(format!("unexpected argument '{other}'"))),
        }
    }
    let spec_path = spec_path.ok_or_else(|| invalid("missing spec path"))?;
    if trace_path.is_some() && !optimize {
        return Err(invalid(
            "--trace requires the optimized pipeline (drop --no-optimize)",
        ));
    }
    let spec = load_spec(&spec_path)?;
    let cache_enabled = config.exec.gop_cache_frames > 0;
    let render_cache_enabled = cache_dir.is_some();
    if mem_cache_budget > 0 && !render_cache_enabled {
        return Err(invalid("--mem-cache-budget requires --cache-dir"));
    }
    if let Some(dir) = cache_dir {
        config.render_cache = Some(open_render_cache(&dir, cache_budget, mem_cache_budget)?);
    }
    let mut engine = V2vEngine::new(Catalog::new()).with_config(config);
    if let Some(db_path) = db_path {
        engine = engine.with_database(load_database(&db_path)?);
    }
    if let Some(dir) = &store_dir {
        // Bind the spec's sources first so the variants have originals
        // to attach to; the run below reuses the bound catalog.
        engine.bind(&spec)?;
        let store = open_store(dir)?;
        let (attached, skipped) = store
            .attach(engine.catalog_mut())
            .map_err(|e| V2vError::wrap(e.kind(), e))?;
        println!("store: attached {attached} variant(s) from {dir} ({skipped} skipped)");
    }
    let (report, trace) = if optimize {
        let (report, trace) = engine.run_traced(&spec)?;
        (report, Some(trace))
    } else {
        (engine.run_unoptimized(&spec)?, None)
    };
    v2v_container::write_svc(&report.output, &out_path)?;
    println!(
        "wrote {out_path}: {} frames, {} bytes in {:.3}s",
        report.output.len(),
        report.output.byte_size(),
        report.wall.as_secs_f64()
    );
    // The cache clause only appears when the cache exists: a disabled
    // cache reporting "0/0 hits" reads like a run that never hit it.
    let cache_clause = if cache_enabled {
        format!(
            "; gop cache {}/{} hits",
            report.stats.gop_cache_hits,
            report.stats.gop_cache_hits + report.stats.gop_cache_misses
        )
    } else {
        String::new()
    };
    println!(
        "stats: decoded {} encoded {} copied {} packets ({} bytes){cache_clause}; dde rewrites {}",
        report.stats.frames_decoded,
        report.stats.frames_encoded,
        report.stats.packets_copied,
        report.stats.bytes_copied,
        report.dde_rewrites
    );
    if render_cache_enabled {
        let c = report.stats.cache;
        println!(
            "render cache: {} segment hit(s), {} bytes reused, {} eviction(s)",
            c.segment_hits, c.bytes_reused, c.evictions
        );
    }
    for w in &report.check.warnings {
        println!("warning: {w}");
    }
    for fault in &report.errors {
        println!(
            "fault: segment {} (frames {}..{}) {} after {} retr{}: [{}] {}",
            fault.seg_index,
            fault.abs_start,
            fault.abs_start + fault.frames,
            fault.action.name(),
            fault.retries,
            if fault.retries == 1 { "y" } else { "ies" },
            fault.kind,
            fault.error
        );
    }
    if let Some(path) = error_report_path {
        let json = serde_json::to_string_pretty(&report.errors).map_err(|e| {
            V2vError::with_source(ErrorKind::Internal, "serializing error report", e)
        })?;
        std::fs::write(&path, json)
            .map_err(|e| V2vError::with_source(ErrorKind::Io, format!("writing {path}"), e))?;
        println!(
            "error report: wrote {path} ({} fault(s))",
            report.errors.len()
        );
    }
    if let Some(path) = trace_path {
        let trace = trace.expect("traced run when --trace is set");
        std::fs::write(&path, trace.to_json())
            .map_err(|e| V2vError::with_source(ErrorKind::Io, format!("writing {path}"), e))?;
        println!(
            "trace: wrote {path} ({} rewrite event(s), {} segment(s))",
            trace.rewrites.events.len(),
            trace.exec.segments.len()
        );
    }
    Ok(())
}
