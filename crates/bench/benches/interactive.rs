//! Interactivity: time-to-first-packet under on-demand streaming.
//!
//! The paper's §I claim: "Through database-style optimizations described
//! in this paper and on-demand streaming, V2V enables a VDBMS to execute
//! such a query and to begin playback within seconds." This harness
//! measures when playback *could start* for the long-input queries:
//! the streaming executor delivers packets in presentation order as
//! segments complete, so copy-first plans start in near-zero time, while
//! the unoptimized arm cannot start until it finishes everything.
//!
//! `setup` is the one-time cost paid before execution begins (plan
//! hand-off, writer/cache construction); `ttfp` is measured from
//! executor start, so `setup + ttfp` is the user-visible latency.

use v2v_bench::{build_query, engine_for, measure, print_header, secs, setup_kabr, Arm, QueryId};
use v2v_exec::{execute_streaming_with, ExecOptions};

fn main() {
    let ds = setup_kabr();
    print_header(
        "Interactive",
        "time to first packet (streaming) vs total synthesis time",
    );
    println!();
    println!(
        "{:<6} {:>12} {:>14} {:>14} {:>14}",
        "query", "setup (s)", "ttfp opt (s)", "total opt (s)", "unopt (s)"
    );
    for q in [QueryId::Q6, QueryId::Q7, QueryId::Q9, QueryId::Q10] {
        let spec = build_query(&ds, q);
        let mut engine = engine_for(&ds, Arm::Optimized);
        engine.bind(&spec).expect("bind");
        let (specialized, _) = engine.specialize(&spec);
        let (plan, _) = engine.plan(&specialized).expect("plan");
        let mut delivered = 0u64;
        let (_, stats) =
            execute_streaming_with(&plan, engine.catalog(), &ExecOptions::default(), |_| {
                delivered += 1
            })
            .expect("streaming run");
        let unopt = measure(&ds, q, Arm::Unoptimized);
        println!(
            "{:<6} {:>12} {:>14} {:>14} {:>14}",
            q.label(),
            secs(stats.setup),
            secs(stats.time_to_first_packet),
            secs(stats.total),
            secs(unopt.mean),
        );
    }
    println!();
    println!("reading: playback can begin at 'ttfp opt'; the unoptimized arm");
    println!("only has its first frame when the whole synthesis finishes.");
}
