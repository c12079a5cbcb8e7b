//! `v2v serve` and `v2v worker`: the HTTP daemon roles.

use crate::{invalid, load_database, open_render_cache, Args, DEFAULT_CACHE_BUDGET};
use v2v_core::V2vError;
use v2v_exec::Catalog;
use v2v_serve::{ServeConfig, ServeRole, V2vServer};

/// `v2v serve` / `v2v worker`: bind the address, then serve until
/// killed. The worker role is the slim daemon a `--workers`
/// coordinator dispatches segments to.
pub(crate) fn cmd_serve(args: &[String], role: ServeRole) -> Result<(), V2vError> {
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
