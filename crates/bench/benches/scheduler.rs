//! Scheduler ablation: segment fan-out vs the decode-ahead pipeline.
//!
//! The scheduler dispatches whole segments longest-first and pipelines
//! inside each render segment (decode-ahead prefetch, parallel compose,
//! per-GOP encode at `fanout` threads). This harness isolates the two
//! on two plan shapes:
//!
//! * **Q8 (sharded)** — a long grid render whose output spans several
//!   GOPs, so the optimizer's temporal sharding already produced
//!   multiple render segments: inter-segment parallelism. (The
//!   short-input Q3 is no use here: on ToS's 10 s GOPs a 5 s render is
//!   smaller than one output GOP and never shards.)
//! * **Q10 (unsharded)** — sharding disabled, so the whole long
//!   data-join render is *one* segment. The segment-only arm
//!   (`pipeline_depth = 0`) serializes on it no matter how many workers
//!   exist; the pipelined arm runs it at `fanout` = the whole pool, the
//!   only intra-segment parallelism there is. This is the row the
//!   `single_long_render_speedup` figure in `BENCH_scheduler.json` pins.
//!
//! Every arm is asserted byte-identical to the serial run. Each
//! (plan, thread count) cell runs its arms round-robin — one run of
//! every arm per round, the first round discarded — so a busy minute on
//! the host lands on all arms alike; rows carry the median and the
//! quartiles of the measured rounds. Wall-clock speedups require real
//! cores: with fewer cores than workers the parallel arms measure
//! scheduling overhead, and the JSON records the detected core count so
//! readers can interpret the ratio.
//!
//! Known noise source: runs that hand frame allocation to a worker
//! thread can land in a fresh glibc malloc arena, where each large
//! frame buffer is mmap'd and returned to the OS on free — a minor-
//! fault storm that shows up as system time (observed ~17k faults /
//! +0.4 s stime vs ~300 faults on a warm arena, same workload). The
//! serial arm never spawns workers, so it is immune; treat outlier
//! parallel samples accordingly.
//!
//! `--threads 2,4` picks the worker counts of the parallel arms (that
//! is the default). `--quick` (CI bench smoke) forces test scale and a
//! single measured round, and skips rewriting the committed
//! `BENCH_scheduler.json`.

use std::time::Instant;
use v2v_bench::{bench_runs, build_query, engine_with, print_header, setup_tos, QueryId};
use v2v_container::VideoStream;
use v2v_core::EngineConfig;
use v2v_exec::{execute, ExecOptions};

fn arms(threads: usize) -> [(&'static str, ExecOptions); 3] {
    [
        (
            "serial",
            ExecOptions {
                parallel: false,
                ..Default::default()
            },
        ),
        (
            "segment-only",
            ExecOptions {
                num_threads: threads,
                pipeline_depth: 0,
                ..Default::default()
            },
        ),
        (
            "pipeline",
            ExecOptions {
                num_threads: threads,
                ..Default::default()
            },
        ),
    ]
}

struct Row {
    plan: &'static str,
    threads: usize,
    arm: &'static str,
    /// Wall seconds of the measured rounds, sorted ascending.
    samples: Vec<f64>,
    segments: u64,
}

impl Row {
    /// Linear-interpolated quantile of the measured rounds.
    fn quantile(&self, q: f64) -> f64 {
        let pos = q * (self.samples.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        self.samples[lo] + (self.samples[hi] - self.samples[lo]) * (pos - lo as f64)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let thread_counts: Vec<usize> = args
        .iter()
        .position(|a| a == "--threads")
        .map_or("2,4", |i| args.get(i + 1).expect("--threads N[,N...]"))
        .split(',')
        .map(|n| n.parse().expect("--threads takes worker counts"))
        .collect();
    if quick {
        // CI smoke mode: smallest dataset, one measured run. Only set
        // the knobs the caller left open.
        if std::env::var("V2V_BENCH_SCALE").is_err() {
            std::env::set_var("V2V_BENCH_SCALE", "test");
        }
        if std::env::var("V2V_BENCH_RUNS").is_err() {
            std::env::set_var("V2V_BENCH_RUNS", "1");
        }
    }
    let ds = setup_tos();
    print_header(
        "Scheduler",
        "LPT segment dispatch + intra-segment pipelining, per mechanism (ToS)",
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let runs = bench_runs();
    println!();
    println!(
        "detected cores: {cores}; {runs} measured round(s) per cell after a discarded warm-up"
    );
    println!();
    println!(
        "{:<14} {:>7} {:<14} {:>10} {:>8} {:>8} {:>9} {:>10}",
        "plan", "threads", "arm", "median (s)", "q1", "q3", "segments", "identical"
    );

    // (label, query, static sharding on?)
    let shapes: [(&str, QueryId, bool); 2] = [
        ("Q8-sharded", QueryId::Q8, true),
        ("Q10-unsharded", QueryId::Q10, false),
    ];
    let mut rows: Vec<Row> = Vec::new();
    for (plan_label, q, shard) in shapes {
        let mut cfg = EngineConfig::default();
        cfg.optimizer.shard = shard;
        let mut engine = engine_with(&ds, cfg);
        let spec = build_query(&ds, q);
        engine.bind(&spec).expect("bind");
        let (specialized, _) = engine.specialize(&spec);
        let (plan, _) = engine.plan(&specialized).expect("plan");
        let mut baseline: Option<VideoStream> = None;
        for &threads in &thread_counts {
            let arms = arms(threads);
            let mut cell: Vec<Row> = arms
                .iter()
                .map(|(arm, _)| Row {
                    plan: plan_label,
                    threads,
                    arm,
                    samples: Vec::with_capacity(runs),
                    segments: 0,
                })
                .collect();
            for round in 0..=runs {
                for ((arm, opts), row) in arms.iter().zip(&mut cell) {
                    let started = Instant::now();
                    let (out, stats, _) = execute(&plan, engine.catalog(), opts).expect("arm runs");
                    if round > 0 {
                        row.samples.push(started.elapsed().as_secs_f64());
                    }
                    row.segments = stats.segments;
                    // The first run of all is the serial arm's.
                    match &baseline {
                        None => baseline = Some(out),
                        Some(serial) => assert!(
                            serial.packets() == out.packets(),
                            "{plan_label}/{arm}@{threads}: output bytes diverged"
                        ),
                    }
                }
            }
            for mut row in cell {
                row.samples.sort_by(f64::total_cmp);
                println!(
                    "{:<14} {:>7} {:<14} {:>10.3} {:>8.3} {:>8.3} {:>9} {:>10}",
                    row.plan,
                    row.threads,
                    row.arm,
                    row.quantile(0.5),
                    row.quantile(0.25),
                    row.quantile(0.75),
                    row.segments,
                    "yes"
                );
                rows.push(row);
            }
        }
    }

    let median_of = |plan: &str, threads: usize, arm: &str| {
        rows.iter()
            .find(|r| r.plan == plan && r.threads == threads && r.arm == arm)
            .expect("row measured")
            .quantile(0.5)
    };
    println!();
    let speedups: Vec<(usize, f64)> = thread_counts
        .iter()
        .map(|&t| {
            let speedup = median_of("Q10-unsharded", t, "segment-only")
                / median_of("Q10-unsharded", t, "pipeline").max(1e-9);
            println!(
                "single-long-render speedup (segment-only / pipeline @ {t} threads): {speedup:.2}x"
            );
            (t, speedup)
        })
        .collect();
    if thread_counts.iter().any(|&t| cores < t) {
        println!("note: only {cores} core(s) available — above that worker count the ratio measures overhead, not parallel speedup.");
    }

    if quick {
        println!("(--quick: skipping BENCH_scheduler.json rewrite)");
        return;
    }
    let json = serde_json::json!({
        "bench": "scheduler",
        "dataset": ds.name,
        "cores_detected": cores,
        "runs": runs,
        "rows": rows.iter().map(|r| serde_json::json!({
            "plan": r.plan,
            "threads": r.threads,
            "arm": r.arm,
            "median_s": r.quantile(0.5),
            "q1_s": r.quantile(0.25),
            "q3_s": r.quantile(0.75),
            "samples_s": r.samples,
            "segments": r.segments,
        })).collect::<Vec<_>>(),
        "single_long_render_speedup": speedups.iter().map(|(t, s)| serde_json::json!({
            "threads": t,
            "segment_only_over_pipeline": s,
        })).collect::<Vec<_>>(),
        "byte_identical": true,
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scheduler.json");
    std::fs::write(
        path,
        format!("{}\n", serde_json::to_string_pretty(&json).unwrap()),
    )
    .expect("write baseline");
    println!("wrote {path}");
}
