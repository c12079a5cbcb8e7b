//! `v2v` — run serialized JSON synthesis specs from the command line.
//!
//! The paper (§IV-D): "our executable binary reads serialized JSON
//! specs". Subcommands:
//!
//! ```text
//! v2v run <spec.json> -o <out.svc> [--no-optimize] [--no-dde]
//!         [--threads N] [--no-cache] [--trace trace.json]
//!         [--on-error abort|skip|black] [--max-retries N]
//!         [--error-report errors.json]
//! v2v serve [--addr HOST:PORT] [--workers HOST:PORT,...]
//!           [--cache-dir DIR] [--cache-budget BYTES]
//!           [--mem-cache-budget BYTES]
//!           [--max-concurrent N] [--queue-depth N]
//!                                     HTTP query service (see v2v-serve)
//! v2v worker [--addr HOST:PORT] [--cache-dir DIR] ...
//!                                     scale-out worker: renders segments
//!                                     dispatched by a `serve --workers`
//!                                     coordinator
//! v2v explain <spec.json> [--analyze] [--json]   plans + rewrite trace;
//!                                     --analyze also runs the query and
//!                                     annotates measured per-operator metrics
//! v2v check <spec.json>               static checks and per-video needs
//! v2v info <video.svc>                stream facts (frames, GOPs, bytes)
//! v2v inspect <video.svc>             physical layout: GOP length
//!                                     distribution, keyframe density,
//!                                     bytes/frame, live vs sealed
//! v2v store ls [--store DIR]          variant manifests in a store
//! v2v store materialize <name> <video.svc> <kind> [--store DIR]
//!                                     transcode one variant (dense |
//!                                     archive | proxy) into the store
//! v2v store drop <name> <kind> [--store DIR]   remove one variant
//! v2v frame <video.svc> <t> -o still.ppm    export one frame as PPM
//! v2v append <live.svc> <more.svc>    commit GOPs onto a live container
//! v2v append --to HOST:PORT <name> <more.svc>
//!                                     append to a daemon's catalog video
//! v2v subscribe <spec.json> --to HOST:PORT [-o out.svc] [--max-deltas N]
//!                                     follow a query live: apply delta
//!                                     records as sources grow
//! ```
//!
//! `v2v append` without `--to` opens (or creates) an append-aware live
//! container on disk via [`v2v_container::LiveWriter`]: each append is
//! one crash-safe committed batch, and concurrent readers always see
//! the last committed prefix. With `--to` it POSTs the sealed stream to
//! a running daemon's `/append/<name>`, waking any `/subscribe`
//! clients. `v2v subscribe` registers the spec with `POST /subscribe`
//! and keeps `-o out.svc` equal to what a cold `v2v run` of the same
//! spec would produce at the current source length, rewriting it after
//! every delta.
//!
//! `--trace <path>` writes the run's observability artifact — rewrite
//! trace, per-segment execution metrics, pipeline-stage spans, and a
//! metrics snapshot — as one JSON document (the input to CI's
//! metrics-snapshot job).
//!
//! Scheduler knobs: `--threads N` caps the executor's worker pool (0 =
//! auto, also settable via `V2V_NUM_THREADS`); with more than one worker
//! render segments run the decode-ahead pipeline. `--threads 1` runs
//! segments one at a time through the sequential render loop. Every
//! setting produces byte-identical output.
//!
//! Fault tolerance: `--on-error` picks the degraded-mode policy when a
//! segment keeps failing after `--max-retries` attempts (default 1):
//! `abort` (default) fails the run, `skip` drops the segment from the
//! output, `black` substitutes black frames of the same duration.
//! `--error-report <path>` writes the structured per-segment fault
//! report (action taken, retries, error kind) as JSON; degraded runs
//! also print a one-line summary per fault.
//!
//! Video locators in the spec are `.svc` paths; data-array locators are
//! JSON annotation paths or `sql:` queries against a database loaded
//! with `--db <tables.json>`:
//!
//! ```json
//! {"tables": [{"name": "video_objects",
//!              "columns": ["video", "model", "timestamp", "frame_objects"],
//!              "rows": [["a", "yolov5m", [1, 30], []], ...]}]}
//! ```
//!
//! Cell values use the annotation conventions: numbers, strings, `[num,
//! den]` pairs are *not* auto-promoted to rationals except in columns
//! named `timestamp`, and arrays of `{x, y, w, h}` objects become boxes.
//!
//! Every failure is a [`V2vError`] classified in the unified taxonomy:
//! the exit code encodes its [`ErrorKind`] (3 corrupt_data, 4 io,
//! 5 not_found, 6 invalid_request, 7 plan, 8 udf, 9 internal; 2 is the
//! usage text). A bad argument or flag value is `invalid_request`; a
//! daemon's refusal (`append --to`, `subscribe`) carries the kind its
//! error body names, and a subscription the daemon ends with a failure
//! record exits by the record's kind. `--json` switches stderr to one
//! structured `{"error": {kind, message, exit_code}}` object.
//!
//! Adaptive physical storage: `v2v store` manages per-source variant
//! sets (see `v2v-store`) offline; `v2v run --store DIR` attaches a
//! store's variants so the planner can serve decodes from the cheapest
//! physical copy (`--variant auto|off|dense|archive|proxy` forces the
//! policy — output bytes never change); `v2v serve --store-dir DIR
//! [--store-budget BYTES] [--compact-secs SECS]` does the same in the
//! daemon and additionally compacts variants from observed access
//! patterns.
//!
//! `--cache-dir DIR` (on both `run` and `serve`) enables the persistent
//! render cache: rendered segment fragments are stored
//! content-addressed under DIR (budgeted by `--cache-budget`, default
//! 1 GiB), so repeated queries splice cached bytes instead of decoding.
//! `--mem-cache-budget BYTES` (requires `--cache-dir`) adds a
//! byte-budgeted in-memory LRU above the disk cache: a fragment read
//! from disk stays resident, and its repeats are served without
//! touching disk. In the daemon the cache is shared by every request,
//! so identical or overlapping queries splice each other's segments.

use std::process::ExitCode;
use v2v_core::{EngineConfig, ErrorKind, V2vEngine, V2vError};
use v2v_exec::Catalog;
use v2v_serve::sub::RefreshFailed;
use v2v_serve::{ServeConfig, ServeRole, V2vServer};
use v2v_spec::Spec;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  v2v run <spec.json> [-o out.svc] [--db tables.json] [--no-optimize] [--no-dde] [--threads N] [--no-cache] [--cache-dir DIR] [--cache-budget BYTES] [--mem-cache-budget BYTES] [--store DIR] [--variant auto|off|dense|archive|proxy] [--trace trace.json] [--on-error abort|skip|black] [--max-retries N] [--error-report errors.json] [--json]\n  v2v serve [--addr HOST:PORT] [--workers HOST:PORT,...] [--cache-dir DIR] [--cache-budget BYTES] [--mem-cache-budget BYTES] [--store-dir DIR] [--store-budget BYTES] [--compact-secs SECS] [--max-concurrent N] [--queue-depth N] [--db tables.json] [--threads N]\n  v2v worker [--addr HOST:PORT] [--cache-dir DIR] [--cache-budget BYTES] [--mem-cache-budget BYTES] [--max-concurrent N] [--queue-depth N] [--db tables.json] [--threads N]\n  v2v explain <spec.json> [--db tables.json] [--analyze] [--json]\n  v2v check <spec.json>\n  v2v info <video.svc>\n  v2v inspect <video.svc>\n  v2v store ls [--store DIR]\n  v2v store materialize <name> <video.svc> <dense|archive|proxy> [--store DIR]\n  v2v store drop <name> <dense|archive|proxy> [--store DIR]\n  v2v frame <video.svc> <t> [-o still.ppm]\n  v2v append [--to HOST:PORT] <live.svc|name> <more.svc> [--json]\n  v2v subscribe <spec.json> [--to HOST:PORT] [-o out.svc] [--max-deltas N] [--json]"
    );
    ExitCode::from(2)
}

/// A malformed argument, flag value or input document.
#[track_caller]
fn invalid(message: impl Into<String>) -> V2vError {
    V2vError::new(ErrorKind::InvalidRequest, message)
}

/// Stable per-kind exit codes (2 is the usage text).
fn exit_code_for(kind: ErrorKind) -> u8 {
    match kind {
        ErrorKind::CorruptData => 3,
        ErrorKind::Io => 4,
        ErrorKind::NotFound => 5,
        ErrorKind::InvalidRequest => 6,
        ErrorKind::Plan => 7,
        ErrorKind::Udf => 8,
        ErrorKind::Internal => 9,
    }
}

/// Loads a relational database from a JSON fixture (see module docs).
fn load_database(path: &str) -> Result<v2v_data::Database, V2vError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| V2vError::with_source(ErrorKind::Io, format!("reading {path}"), e))?;
    let root: serde_json::Value = serde_json::from_str(&text).map_err(|e| {
        V2vError::with_source(ErrorKind::InvalidRequest, format!("parsing {path}"), e)
    })?;
    let tables = root
        .get("tables")
        .and_then(|t| t.as_array())
        .ok_or_else(|| invalid(format!("{path}: expected {{\"tables\": [...]}}")))?;
    let mut db = v2v_data::Database::new();
    for t in tables {
        let name = t
            .get("name")
            .and_then(|n| n.as_str())
            .ok_or_else(|| invalid(format!("{path}: table missing 'name'")))?;
        let columns: Vec<String> = t
            .get("columns")
            .and_then(|c| c.as_array())
            .ok_or_else(|| invalid(format!("{path}: table '{name}' missing 'columns'")))?
            .iter()
            .map(|c| c.as_str().unwrap_or_default().to_string())
            .collect();
        let mut table = v2v_data::Table::new(name, columns.clone());
        for row in t
            .get("rows")
            .and_then(|r| r.as_array())
            .ok_or_else(|| invalid(format!("{path}: table '{name}' missing 'rows'")))?
        {
            let cells = row
                .as_array()
                .ok_or_else(|| invalid(format!("{path}: row in '{name}' is not an array")))?;
            if cells.len() != columns.len() {
                return Err(invalid(format!(
                    "{path}: row arity {} != {} columns in '{name}'",
                    cells.len(),
                    columns.len()
                )));
            }
            let values = cells
                .iter()
                .zip(&columns)
                .map(|(cell, col)| {
                    // Timestamp columns read `[num, den]` / numbers as
                    // exact rationals; everything else uses the
                    // annotation conventions.
                    if col == "timestamp" {
                        if let Some(pair) = cell.as_array().filter(|p| p.len() == 2) {
                            if let (Some(n), Some(d)) = (pair[0].as_i64(), pair[1].as_i64()) {
                                if let Ok(r) = v2v_time::Rational::checked_new(n, d) {
                                    return v2v_data::Value::Rational(r);
                                }
                            }
                        }
                        if let Some(i) = cell.as_i64() {
                            return v2v_data::Value::Rational(v2v_time::Rational::from_int(i));
                        }
                    }
                    v2v_data::Value::from_json(cell)
                })
                .collect();
            table.push_row(values);
        }
        db.add_table(table);
    }
    Ok(db)
}

fn load_spec(path: &str) -> Result<Spec, V2vError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| V2vError::with_source(ErrorKind::Io, format!("reading {path}"), e))?;
    Spec::from_json(&text)
        .map_err(|e| V2vError::with_source(ErrorKind::InvalidRequest, format!("parsing {path}"), e))
}

/// Opens the persistent render cache for `--cache-dir`, with an
/// optional in-memory hot tier (`--mem-cache-budget`).
fn open_render_cache(
    dir: &str,
    budget: u64,
    mem_budget: u64,
) -> Result<std::sync::Arc<v2v_exec::RenderCache>, V2vError> {
    v2v_exec::RenderCache::open(dir, budget)
        .map(|c| std::sync::Arc::new(c.with_mem_tier(mem_budget)))
        .map_err(|e| V2vError::with_source(ErrorKind::Io, format!("opening cache dir {dir}"), e))
}

/// A cursor over one subcommand's arguments: hands out each argument
/// in turn, and the value that must follow a flag.
struct Args<'a>(std::slice::Iter<'a, String>);

impl<'a> Args<'a> {
    fn next(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }

    /// The value following `flag`.
    fn value(&mut self, flag: &str) -> Result<&'a str, V2vError> {
        self.next()
            .ok_or_else(|| invalid(format!("missing value after {flag}")))
    }

    /// The value following `flag`, parsed.
    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, V2vError>
    where
        T::Err: std::fmt::Display,
    {
        self.value(flag)?
            .parse()
            .map_err(|e| invalid(format!("bad {flag} value: {e}")))
    }
}

/// Default persistent-cache byte budget (1 GiB).
const DEFAULT_CACHE_BUDGET: u64 = 1 << 30;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let result = match cmd.as_str() {
        "run" => cmd_run(&args[1..]),
        "serve" => cmd_serve(&args[1..], ServeRole::Frontend),
        "worker" => cmd_serve(&args[1..], ServeRole::Worker),
        "explain" => cmd_explain(&args[1..]),
        "check" => cmd_check(&args[1..]),
        "info" => cmd_info(&args[1..]),
        "inspect" => cmd_inspect(&args[1..]),
        "store" => cmd_store(&args[1..]),
        "frame" => cmd_frame(&args[1..]),
        "append" => cmd_append(&args[1..]),
        "subscribe" => cmd_subscribe(&args[1..]),
        _ => return usage(),
    };
    // `--json` anywhere switches stderr error reporting to one
    // machine-readable object (stdout stays whatever the command
    // prints).
    let json_errors = args.iter().any(|a| a == "--json");
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            let code = exit_code_for(e.kind());
            if json_errors {
                let obj = serde_json::json!({
                    "error": {
                        "kind": e.kind().name(),
                        "message": e.to_string(),
                        "exit_code": code,
                    }
                });
                eprintln!("{obj}");
            } else {
                eprintln!("v2v: {e}");
            }
            ExitCode::from(code)
        }
    }
}

fn cmd_run(args: &[String]) -> Result<(), V2vError> {
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

/// `v2v serve` / `v2v worker`: bind the address, then serve until
/// killed. The worker role is the slim daemon a `--workers`
/// coordinator dispatches segments to.
fn cmd_serve(args: &[String], role: ServeRole) -> Result<(), V2vError> {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut cache_dir: Option<String> = None;
    let mut cache_budget = DEFAULT_CACHE_BUDGET;
    let mut mem_cache_budget = 0u64;
    let mut db_path: Option<String> = None;
    let mut store_dir: Option<String> = None;
    let mut store_budget = u64::MAX;
    let mut compact_secs = 0u64;
    let mut config = ServeConfig {
        role,
        ..ServeConfig::default()
    };
    let mut args = Args(args.iter());
    while let Some(arg) = args.next() {
        match arg {
            "--workers" => {
                if role == ServeRole::Worker {
                    return Err(invalid(
                        "--workers only applies to 'v2v serve' (workers do not fan out)",
                    ));
                }
                config.workers = args
                    .value(arg)?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            "--addr" => addr = args.value(arg)?.to_string(),
            "--cache-dir" => cache_dir = Some(args.value(arg)?.to_string()),
            "--cache-budget" => cache_budget = args.parsed(arg)?,
            "--mem-cache-budget" => mem_cache_budget = args.parsed(arg)?,
            "--store-dir" => {
                if role == ServeRole::Worker {
                    return Err(invalid("--store-dir only applies to 'v2v serve' (workers fall back to the originals their coordinator references)"));
                }
                store_dir = Some(args.value(arg)?.to_string());
            }
            "--store-budget" => store_budget = args.parsed(arg)?,
            "--compact-secs" => compact_secs = args.parsed(arg)?,
            "--max-concurrent" => config.max_concurrent = args.parsed(arg)?,
            "--queue-depth" => config.queue_depth = args.parsed(arg)?,
            "--threads" => config.engine.exec.num_threads = args.parsed(arg)?,
            "--db" => db_path = Some(args.value(arg)?.to_string()),
            "--json" => {}
            other => return Err(invalid(format!("unexpected argument '{other}'"))),
        }
    }
    if mem_cache_budget > 0 && cache_dir.is_none() {
        return Err(invalid("--mem-cache-budget requires --cache-dir"));
    }
    if let Some(dir) = &cache_dir {
        config.engine.render_cache = Some(open_render_cache(dir, cache_budget, mem_cache_budget)?);
    }
    if (store_budget != u64::MAX || compact_secs > 0) && store_dir.is_none() {
        return Err(invalid("--store-budget/--compact-secs require --store-dir"));
    }
    if let Some(dir) = &store_dir {
        config.store = Some(v2v_serve::StoreServeConfig {
            root: dir.into(),
            budget_bytes: store_budget,
            compact_interval: std::time::Duration::from_secs(compact_secs),
        });
    }
    let workers = config.workers.clone();
    let mut server = V2vServer::new(Catalog::new()).with_config(config);
    if let Some(db_path) = db_path {
        server = server.with_database(load_database(&db_path)?);
    }
    let handle = server.start(&addr)?;
    // The smoke tests parse this line for the resolved ephemeral port.
    println!("listening on {}", handle.addr());
    match &cache_dir {
        Some(dir) if mem_cache_budget > 0 => println!(
            "render cache: {dir} (budget {cache_budget} bytes, mem tier {mem_cache_budget} bytes)"
        ),
        Some(dir) => println!("render cache: {dir} (budget {cache_budget} bytes)"),
        None => println!("render cache: disabled (pass --cache-dir to enable)"),
    }
    if let Some(dir) = &store_dir {
        let budget = if store_budget == u64::MAX {
            "unbounded".to_string()
        } else {
            format!("{store_budget} bytes")
        };
        let cadence = if compact_secs > 0 {
            format!("every {compact_secs}s")
        } else {
            "on demand (POST /store/compact)".to_string()
        };
        println!("variant store: {dir} (budget {budget}, compaction {cadence})");
    }
    match role {
        ServeRole::Worker => println!("role: worker (renders segments for a coordinator)"),
        ServeRole::Frontend if !workers.is_empty() => {
            println!("workers: {}", workers.join(","));
        }
        ServeRole::Frontend => {}
    }
    // Serve until the process is killed.
    loop {
        std::thread::park();
    }
}

fn cmd_explain(args: &[String]) -> Result<(), V2vError> {
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

fn cmd_check(args: &[String]) -> Result<(), V2vError> {
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

fn cmd_info(args: &[String]) -> Result<(), V2vError> {
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

/// Default variant-store directory for the `store` subcommands and
/// `run --store`.
const DEFAULT_STORE_DIR: &str = "v2v-store";

fn open_store(dir: &str) -> Result<v2v_store::SourceStore, V2vError> {
    v2v_store::SourceStore::open(dir).map_err(|e| V2vError::wrap(e.kind(), e))
}

/// `v2v inspect`: the physical layout the variant selector reasons
/// about — GOP length distribution, keyframe density, bytes per frame,
/// and whether the container is live (append-aware) or sealed.
fn cmd_inspect(args: &[String]) -> Result<(), V2vError> {
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

/// `v2v store ls|materialize|drop`: offline variant-store management.
/// The same store directory can then be handed to `run --store` or
/// `serve --store-dir`.
fn cmd_store(args: &[String]) -> Result<(), V2vError> {
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

/// Resolves `HOST:PORT` for the daemon-mode subcommands.
fn resolve_addr(s: &str) -> Result<std::net::SocketAddr, V2vError> {
    use std::net::ToSocketAddrs;
    s.to_socket_addrs()
        .map_err(|e| V2vError::with_source(ErrorKind::Io, format!("resolving {s}"), e))?
        .next()
        .ok_or_else(|| V2vError::new(ErrorKind::Io, format!("{s} resolved to no address")))
}

/// A daemon's refusal of `what`: the kind is the one its
/// `{"error": {"kind": ...}}` body names, `internal` when the body names
/// none from the taxonomy.
#[track_caller]
fn refused(what: &str, status: u16, body: &[u8]) -> V2vError {
    let kind = serde_json::from_slice::<serde_json::Value>(body)
        .ok()
        .and_then(|v| serde_json::from_value(v.get("error")?.get("kind")?.clone()).ok())
        .unwrap_or(ErrorKind::Internal);
    let body = String::from_utf8_lossy(body);
    V2vError::new(kind, format!("{what} rejected ({status}): {}", body.trim()))
}

/// `v2v append`: local mode commits GOPs onto a live `.svc` container;
/// `--to` mode POSTs them to a serving daemon's `/append/<name>`.
fn cmd_append(args: &[String]) -> Result<(), V2vError> {
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

/// `v2v subscribe`: registers a spec with a daemon's `POST /subscribe`
/// and applies delta records as they arrive, keeping `-o` byte-identical
/// to a cold run of the spec at the current source length.
fn cmd_subscribe(args: &[String]) -> Result<(), V2vError> {
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

fn cmd_frame(args: &[String]) -> Result<(), V2vError> {
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
