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
//! trace, per-segment execution metrics and pipeline-stage spans — as
//! one JSON document (the input to CI's metrics-snapshot job).
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

mod append;
mod check;
mod explain;
mod frame;
mod info;
mod inspect;
mod run;
mod serve;
mod store;
mod subscribe;

use std::process::ExitCode;
use v2v_core::{ErrorKind, V2vError};
use v2v_serve::ServeRole;
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
        "run" => run::cmd_run(&args[1..]),
        "serve" => serve::cmd_serve(&args[1..], ServeRole::Frontend),
        "worker" => serve::cmd_serve(&args[1..], ServeRole::Worker),
        "explain" => explain::cmd_explain(&args[1..]),
        "check" => check::cmd_check(&args[1..]),
        "info" => info::cmd_info(&args[1..]),
        "inspect" => inspect::cmd_inspect(&args[1..]),
        "store" => store::cmd_store(&args[1..]),
        "frame" => frame::cmd_frame(&args[1..]),
        "append" => append::cmd_append(&args[1..]),
        "subscribe" => subscribe::cmd_subscribe(&args[1..]),
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
