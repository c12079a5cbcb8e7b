//! `v2v-benchmark`: the repo benchmark's runner (contract in
//! `BENCHMARK.json`, guide in this package's README).
//!
//! One process measures one workload: it makes its inputs from `--seed`,
//! sets the system up, drives it for `--seconds` through public
//! functions and the HTTP surface only, checks every output against a
//! reference digest, and prints one JSON result as its last line.

mod attribute;
mod batch;
mod digest;
mod gen;
mod inputs;
mod layers;
mod live;
mod openloop;
mod oracle;
mod probes;
mod record;
mod reuse;
mod stats;
mod sys;
mod trace;
mod wire;

use layers::{Layers, END_TO_END, PER_LAYER};
use record::Window;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use v2v_datasets::Scale;

const WORKLOADS: [&str; 4] = ["batch-render", "batch-copy", "serve-reuse", "live-append"];
/// Verified samples every class needs for the run to be valid (`correct`).
/// Issue 11's 12 per 30 s window is 8 in the 20 s window the driver's time
/// cap leaves; `batch-render` collects 10–12, and 9 in the host's slow
/// minutes, so the floor leaves a quarter of slack below that: an invalid
/// run should mean a broken class, not a busy neighbour.
const MIN_SAMPLES: usize = 6;
/// The window `BENCHMARK.json` asks for (`run_seconds`).
const WINDOW_SECONDS: f64 = 20.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// What one run is asked to do.
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    /// Source size: `Scale::Bench` always, except in the self-tests.
    pub scale: Scale,
    /// Stop after one pass over the classes (`--check`, self-tests).
    pub one_cycle: bool,
}

/// A set-up workload, ready to measure.
enum Bench {
    Batch(Box<batch::Batch>),
    Reuse(Box<reuse::Reuse>),
    Live(Box<live::Live>),
}

impl Bench {
    fn setup(cfg: &RunConfig) -> Result<Bench, String> {
        Ok(match cfg.workload.as_str() {
            "batch-render" => Bench::Batch(Box::new(batch::Batch::setup(batch::Kind::Render, cfg))),
            "batch-copy" => Bench::Batch(Box::new(batch::Batch::setup(batch::Kind::Copy, cfg))),
            "serve-reuse" => Bench::Reuse(Box::new(reuse::Reuse::setup(cfg))),
            "live-append" => Bench::Live(Box::new(live::Live::setup(cfg))),
            other => return Err(format!("unknown workload '{other}' (one of {WORKLOADS:?})")),
        })
    }

    fn measure(&mut self, cfg: &RunConfig, tracer: Option<&mut Tracer>) -> Window {
        match self {
            Bench::Batch(b) => b.measure(cfg, tracer),
            Bench::Reuse(r) => r.measure(cfg, tracer),
            Bench::Live(l) => l.measure(cfg, tracer),
        }
    }

    /// Effective settings, echoed in every result.
    fn settings(&self) -> serde_json::Value {
        let threads = v2v_exec::ExecOptions::default().effective_threads();
        let daemon = |c: &v2v_serve::ServeConfig, disk: u64, mem: u64| {
            serde_json::json!({
                "engine_threads": threads,
                "max_concurrent": c.max_concurrent,
                "queue_depth": c.queue_depth,
                "work_sharing": c.work_sharing,
                "cache_disk_budget_bytes": disk,
                "cache_mem_budget_bytes": mem,
            })
        };
        match self {
            Bench::Batch(b) => serde_json::json!({
                "engine_threads": threads,
                "driver_threads": 1,
                "source_bytes": b.source.stream.byte_size(),
                "cache": null,
            }),
            Bench::Reuse(r) => {
                let mut v = daemon(&r.config, r.disk_budget, r.mem_budget);
                if let serde_json::Value::Object(m) = &mut v {
                    m.insert("driver_threads".into(), r.clients().into());
                    m.insert(
                        "source_bytes".into(),
                        (r.kabr.stream.byte_size() + r.tos.stream.byte_size()).into(),
                    );
                }
                v
            }
            Bench::Live(l) => {
                let mut v = daemon(&l.config, l.disk_budget, l.mem_budget);
                if let serde_json::Value::Object(m) = &mut v {
                    m.insert("driver_threads".into(), 3.into());
                    m.insert("appends_per_sec".into(), live::APPENDS_PER_SEC.into());
                    m.insert("source_bytes".into(), l.source.stream.byte_size().into());
                }
                v
            }
        }
    }

    /// Per-layer metrics of a traced window: facts, daemon counters,
    /// then the probes on the workload's own data.
    fn layers(&self, window: &Window) -> Layers {
        let mut out = Layers::default();
        attribute::from_facts(window, &mut out);
        let batch_catalog;
        let (source, catalog, database, spec, addr) = match self {
            Bench::Batch(b) => {
                batch_catalog = inputs::catalog(&[&b.source]);
                (&b.source, &batch_catalog, &b.database, b.probe_spec(), None)
            }
            Bench::Reuse(r) => {
                attribute::from_status(window, &r.status, &mut out);
                (
                    &r.kabr,
                    &r.catalog,
                    &r.database,
                    r.probe_spec(),
                    Some(r.addr),
                )
            }
            Bench::Live(l) => {
                attribute::from_status(window, &l.status, &mut out);
                attribute::lateness(&l.lateness_ms, &mut out);
                (
                    &l.source,
                    &l.catalog,
                    &l.database,
                    l.probe_spec(),
                    Some(l.addr),
                )
            }
        };
        let work = sys::WorkDir::new("probes").expect("work dir");
        probes::Probe {
            source,
            catalog,
            database,
            spec: &spec,
            work: work.path(),
            addr,
        }
        .run(&mut out);
        let threads = v2v_exec::ExecOptions::default().effective_threads();
        attribute::closure(window, threads, addr.is_some(), &mut out);
        out
    }
}

struct Outcome {
    window: Window,
    setup_s: Vec<f64>,
    layers: Option<Layers>,
    settings: serde_json::Value,
}

/// Sets up `setups` times (each from nothing: no cross-run cache), then
/// measures once on the last set-up.
fn run(
    cfg: &RunConfig,
    setups: usize,
    trace_out: Option<Option<PathBuf>>,
) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut bench = None;
    for _ in 0..setups.max(1) {
        // Dropping a set-up stops its daemon and joins its threads.
        drop(bench.take());
        let started = Instant::now();
        bench = Some(Bench::setup(cfg)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut bench: Bench = bench.expect("at least one set-up");
    let mut tracer = trace_out.is_some().then(|| Tracer::new(Instant::now()));
    let window = bench.measure(cfg, tracer.as_mut());
    let layers = tracer.is_some().then(|| bench.layers(&window));
    let settings = bench.settings();
    drop(bench);
    if let (Some(tracer), Some(Some(path))) = (&tracer, &trace_out) {
        let doc = serde_json::json!({"workload": cfg.workload.as_str(), "seed": cfg.seed, "spans": tracer.to_json()});
        std::fs::write(
            path,
            serde_json::to_string(&doc).map_err(|e| e.to_string())?,
        )
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(Outcome {
        window,
        setup_s,
        layers,
        settings,
    })
}

fn end_to_end(outcome: &Outcome, name: &str) -> f64 {
    let w = &outcome.window;
    match name {
        "setup_s" => stats::median(&outcome.setup_s),
        "latency_gm_ms" => w.latency_gm_ms(None),
        "ttfp_gm_ms" => w.ttfp_gm_ms(),
        "out_fps" => w.out_fps(),
        "peak_rss_mb" => sys::peak_rss_mb(),
        _ => 0.0,
    }
}

/// Prints the provenance line and, last, the contract's result line.
fn report(cfg: &RunConfig, outcome: &Outcome) {
    let w = &outcome.window;
    let samples_min = w.samples_min();
    let correct = w.failed() == 0 && samples_min >= MIN_SAMPLES;
    if samples_min < MIN_SAMPLES {
        eprintln!(
            "invalid run: {samples_min} verified sample(s) in some class, {MIN_SAMPLES} needed; measure for longer"
        );
    }
    let metrics = match &outcome.layers {
        None => layers::metrics_json(END_TO_END, |n| end_to_end(outcome, n)),
        Some(l) => layers::metrics_json(PER_LAYER, |n| l.get(n)),
    };
    let provenance = serde_json::json!({
        "workload": cfg.workload.as_str(),
        "seed": cfg.seed,
        "seconds": cfg.seconds,
        "traced": outcome.layers.is_some(),
        "commit": sys::git_commit(),
        "nproc": sys::nproc(),
        "settings": outcome.settings.clone(),
        "window_s": w.wall_s,
        "window_cpu_s": w.cpu_s,
        "frames_out": w.frames(),
        "setup_s_each": outcome.setup_s.clone(),
        "samples_min": samples_min,
        "fail_share": stats::ratio(w.failed() as f64, w.attempted() as f64),
        "classes": w.classes_json(),
    });
    println!(
        "{}",
        serde_json::to_string(&serde_json::json!({"provenance": provenance})).expect("JSON")
    );
    let result = serde_json::json!({
        "correct": correct,
        "attempted": w.attempted(),
        "failed": w.failed(),
        "metrics": metrics,
    });
    println!("{}", serde_json::to_string(&result).expect("JSON"));
}

/// `--check`: one pass over every class of every workload; any output
/// that differs from its reference fails the command.
fn check(seed: u64) -> ExitCode {
    let mut bad = 0;
    for workload in WORKLOADS {
        let cfg = RunConfig {
            workload: workload.into(),
            seed,
            // One cycle ends the window long before this; it only sizes
            // what set-up pre-generates.
            seconds: WINDOW_SECONDS,
            scale: Scale::Bench,
            one_cycle: true,
        };
        match run(&cfg, 1, None) {
            Ok(o) => {
                println!(
                    "{workload}: {} operation(s), {} failed, fewest samples in a class {}",
                    o.window.attempted(),
                    o.window.failed(),
                    o.window.samples_min()
                );
                bad += o.window.failed() + u64::from(o.window.samples_min() == 0);
            }
            Err(e) => {
                println!("{workload}: {e}");
                bad += 1;
            }
        }
    }
    if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--repeat N`: the same workload in N fresh processes, seeds counting
/// up from `--seed`; prints each end-to-end metric's median, quartiles
/// and relative spread (the A/A noise the bounds must clear).
fn repeat(n: usize, workloads: &[String], seed: u64, seconds: f64) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut table = serde_json::Map::new();
    for workload in workloads {
        let mut values: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
        for i in 0..n {
            let out = std::process::Command::new(&exe)
                .args(["--workload", workload, "--trace", "0"])
                .args(["--seed", &(seed + i as u64).to_string()])
                .args(["--seconds", &seconds.to_string()])
                .output();
            let line = out
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .and_then(|s| s.lines().last().map(str::to_string))
                .and_then(|l| serde_json::from_str::<serde_json::Value>(&l).ok());
            let Some(result) = line else {
                eprintln!("{workload}: run {i} failed");
                return ExitCode::FAILURE;
            };
            if wire::number(&result, &["failed"]) != 0.0 {
                eprintln!("{workload}: run {i} had failed operations");
                return ExitCode::FAILURE;
            }
            for (name, _, _) in END_TO_END {
                values
                    .entry((*name).into())
                    .or_default()
                    .push(wire::number(&result, &["metrics", name, "value"]));
            }
        }
        let mut rows = serde_json::Map::new();
        for (name, v) in values {
            let [q1, q2, q3] = stats::quartiles(&v);
            let spread = stats::rel_spread(&v);
            eprintln!("{workload:<13} {name:<18} median {q2:>12.4}  q1 {q1:>12.4}  q3 {q3:>12.4}  spread {spread:.4}");
            rows.insert(name, serde_json::json!({"median": q2, "q1": q1, "q3": q3, "spread": spread, "runs": v.len()}));
        }
        table.insert(workload.clone(), serde_json::Value::Object(rows));
    }
    println!(
        "{}",
        serde_json::to_string(&serde_json::Value::Object(table)).expect("JSON")
    );
    ExitCode::SUCCESS
}

const USAGE: &str =
    "usage: v2v-benchmark --workload <batch-render|batch-copy|serve-reuse|live-append> \
--seed <u64> --seconds <n> --trace <0|1> [--trace-out <file>]\n       \
v2v-benchmark --check [--seed <u64>]\n       \
v2v-benchmark --repeat <n> [--workload <name>] [--seed <u64>] [--seconds <n>]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    check: bool,
    repeat: Option<usize>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: WINDOW_SECONDS,
        trace: false,
        trace_out: None,
        check: false,
        repeat: None,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        let bad = |e: &dyn std::fmt::Display| format!("{flag}: {e}");
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?),
            "--seed" => out.seed = value()?.parse().map_err(|e| bad(&e))?,
            "--seconds" => out.seconds = value()?.parse().map_err(|e| bad(&e))?,
            "--trace" => out.trace = value()? != "0",
            "--trace-out" => out.trace_out = Some(PathBuf::from(value()?)),
            "--repeat" => out.repeat = Some(value()?.parse().map_err(|e| bad(&e))?),
            "--check" => out.check = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let Args {
        workload,
        seed,
        seconds,
        trace,
        trace_out,
        ..
    } = args;
    if args.check {
        return check(seed);
    }
    if let Some(n) = args.repeat {
        let workloads = workload.map_or_else(|| WORKLOADS.map(String::from).to_vec(), |w| vec![w]);
        return repeat(n, &workloads, seed, seconds);
    }
    let Some(workload) = workload else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let cfg = RunConfig {
        workload,
        seed,
        seconds,
        scale: Scale::Bench,
        one_cycle: false,
    };
    match run(&cfg, SETUPS, trace.then_some(trace_out)) {
        Ok(outcome) => {
            // A printed result always exits 0; `correct` and `failed`
            // carry the verdict.
            report(&cfg, &outcome);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One traced second of a workload on the small test-scale sources:
    /// every operation verifies and every per-layer metric is a number.
    fn smoke(workload: &str) {
        let cfg = RunConfig {
            workload: workload.into(),
            seed: 11,
            seconds: 1.0,
            scale: Scale::Test,
            one_cycle: false,
        };
        let outcome = run(&cfg, 1, Some(None)).expect("workload sets up and runs");
        assert!(outcome.window.attempted() > 0);
        assert_eq!(outcome.window.failed(), 0);
        let layers = outcome
            .layers
            .as_ref()
            .expect("a traced run attributes layers");
        for (name, _, _) in PER_LAYER {
            assert!(layers.get(name).is_finite(), "{name}");
        }
        for (name, _, _) in END_TO_END {
            assert!(end_to_end(&outcome, name).is_finite(), "{name}");
        }
    }

    #[test]
    fn smoke_batch_render() {
        smoke("batch-render");
    }

    #[test]
    fn smoke_batch_copy() {
        smoke("batch-copy");
    }

    #[test]
    fn smoke_serve_reuse() {
        smoke("serve-reuse");
    }

    #[test]
    fn smoke_live_append() {
        smoke("live-append");
    }

    #[test]
    fn unknown_workload_is_an_error() {
        let cfg = RunConfig {
            workload: "nope".into(),
            seed: 1,
            seconds: 1.0,
            scale: Scale::Test,
            one_cycle: true,
        };
        assert!(run(&cfg, 1, None).is_err());
    }

    /// `BENCHMARK.json` declares exactly the workloads and metrics the
    /// runner prints, with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_runner() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect("a list")
                .iter()
                .map(|m| {
                    let field =
                        |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap_or("").to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let table = |defs: &[layers::MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), table(END_TO_END));
        assert_eq!(names("per_layer"), table(PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(wire::number(&doc, &["run_seconds"]), WINDOW_SECONDS);
    }

    /// `expectations.json` (claim, interaction table, recorded A/A noise)
    /// names only declared metrics and workloads, claims nothing, and
    /// every recorded spread the driver judges is inside its bound.
    #[test]
    fn expectations_match_the_contract() {
        let read = |path: &str| -> serde_json::Value {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
        };
        let doc = read(concat!(env!("CARGO_MANIFEST_DIR"), "/expectations.json"));
        let contract = read(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
        assert!(doc.get("claim").is_some_and(|c| c.is_null()));
        let declared = |defs: &[layers::MetricDef], n: &str| defs.iter().any(|d| d.0 == n);
        let strings = |row: &serde_json::Value, key: &str| -> Vec<String> {
            let list = row.get(key).and_then(|v| v.as_array()).expect("a list");
            list.iter()
                .map(|v| v.as_str().expect("a name").to_string())
                .collect()
        };
        let rows = doc.get("interactions").and_then(|v| v.as_array()).unwrap();
        assert!(!rows.is_empty());
        for row in rows {
            for n in strings(row, "layer") {
                assert!(declared(PER_LAYER, &n), "{n}");
            }
            for n in strings(row, "should_move") {
                assert!(declared(END_TO_END, &n) || declared(PER_LAYER, &n), "{n}");
            }
            for w in strings(row, "on").iter().chain(&strings(row, "not_on")) {
                assert!(WORKLOADS.contains(&w.as_str()), "{w}");
            }
        }
        let sets = doc
            .get("aa_spread")
            .and_then(|v| v.get("sets"))
            .and_then(|v| v.as_array())
            .unwrap();
        assert!(sets.len() >= 2, "two A/A sets are recorded");
        for set in sets {
            for workload in WORKLOADS {
                for m in contract
                    .get("end_to_end")
                    .and_then(|v| v.as_array())
                    .unwrap()
                {
                    let name = m.get("name").and_then(|v| v.as_str()).unwrap();
                    let bound = wire::number(m, &["bound"]);
                    let row = set.get(workload).and_then(|w| w.get(name));
                    let row = row.unwrap_or_else(|| panic!("no spread for {workload} {name}"));
                    let spread = wire::number(row, &["spread"]);
                    // The driver judges `setup_s` by its median alone.
                    assert!(
                        spread <= bound || name == "setup_s",
                        "{workload} {name}: {spread} > {bound}"
                    );
                }
            }
        }
    }
}
