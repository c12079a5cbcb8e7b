//! The reuse tiers of one keyed render segment, in their one order:
//! look up memory → disk → remote, render, store (DESIGN.md §13).

use crate::executor::ExecStats;
use crate::pipeline::run_render_pipelined;
use crate::render_cache::{CacheStats, Origin};
use crate::scheduler::{run_render_sequential, SegmentCtx, SegmentOutput};
use crate::ExecError;
use std::sync::Arc;
use v2v_container::Fragment;
use v2v_plan::{segment_cost, FrameProgram, InputClip};

/// True when a fragment can stand in for this whole segment: identical
/// frame count, grid, and codec parameters. Content-addressed keys make
/// a mismatch nearly impossible; the check keeps a hash collision or a
/// foreign cache directory from corrupting output.
fn fragment_matches(ctx: &SegmentCtx<'_>, frag: &Fragment) -> bool {
    frag.len() as u64 == ctx.seg.count
        && frag.frame_dur() == ctx.run.plan.frame_dur
        && frag.params().compatible_with(&ctx.run.plan.out_params)
}

/// Renders one segment, reusing a fragment when the segment is keyed.
/// This is the one place the reuse order is spelled: **memory → disk →
/// remote → render → store**.
///
/// A render is stored before this returns, so before the run that
/// rendered it completes: a run that starts afterwards finds the entry.
/// Concurrent runs that miss the same key each render it, with
/// identical bytes.
pub(crate) fn render_segment(
    ctx: &SegmentCtx<'_>,
    program: &FrameProgram,
    inputs: &[InputClip],
) -> Result<SegmentOutput, ExecError> {
    // A fresh render: pipelined, or the sequential loop on one worker.
    let fresh = || {
        if ctx.run.workers > 1 {
            run_render_pipelined(ctx, program, inputs)
        } else {
            run_render_sequential(ctx, program, inputs)
        }
    };
    let keyed = ctx
        .run
        .seg_cache
        .and_then(|sc| Some((sc, sc.key(ctx.seg_index)?)));
    let Some((sc, key)) = keyed else {
        return fresh();
    };
    // The segment's output when its packets come from a reused fragment.
    let reused = |frag: &Fragment, origin: Origin| {
        let stats = ExecStats {
            segments: 1,
            cache: CacheStats::for_hit(origin, frag.byte_size()),
            ..Default::default()
        };
        SegmentOutput::new(ctx, frag.packets().to_vec(), stats)
    };
    let fits = |found: &(Arc<Fragment>, Origin)| fragment_matches(ctx, &found.0);
    let tiers = || sc.cache.as_deref()?.load_segment_tiered(key);
    // The transport verifies the digest; `fits` shape-checks the
    // fragment against the plan. Any failure falls back to rendering.
    let remote = || {
        let cost = segment_cost(ctx.run.plan, ctx.seg, ctx.run.catalog.plan_context());
        let frag = sc
            .remote
            .as_deref()?
            .render_remote(ctx.seg_index, key, cost)?;
        Some((Arc::new(frag), Origin::Remote))
    };
    // A failed store (disk full, permissions) only costs the next run a
    // re-render; never fail the query for it.
    let store = |frag: &Fragment| {
        if let Some(cache) = sc.cache.as_deref() {
            let _ = cache.store_segment(key, frag);
        }
    };
    if let Some((frag, origin)) = tiers().filter(fits).or_else(|| remote().filter(fits)) {
        // A remote fragment is persisted so the coordinator's own tiers
        // warm up for the next query.
        if origin == Origin::Remote {
            store(&frag);
        }
        return Ok(reused(&frag, origin));
    }
    let out = fresh()?;
    if sc.cache.is_some() {
        let (params, dur) = (ctx.run.plan.out_params, ctx.run.plan.frame_dur);
        // An unfragmentable render (shouldn't happen for a clean one) is
        // not stored.
        if let Ok(frag) = Fragment::new(params, dur, out.packets.clone()) {
            store(&frag);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{execute, ExecOptions};
    use crate::remote::RemoteRenderer;
    use crate::render_cache::{RenderCache, SegmentCacheCtx};
    use crate::scheduler::tests::setup;
    use crate::Catalog;
    use v2v_container::VideoStream;
    use v2v_plan::PhysicalPlan;

    const KEY: u64 = 0x5e6;

    #[derive(Debug)]
    struct Canned(Fragment);

    impl RemoteRenderer for Canned {
        fn render_remote(&self, _seg: usize, key: u64, _cost: f64) -> Option<Fragment> {
            (key == KEY).then(|| self.0.clone())
        }
    }

    fn temp_cache(tag: &str) -> Arc<RenderCache> {
        let dir = std::env::temp_dir().join(format!("v2v_sched_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Arc::new(RenderCache::open(dir, 0).unwrap().with_mem_tier(1 << 20))
    }

    fn run(
        catalog: &Catalog,
        plan: &PhysicalPlan,
        sc: SegmentCacheCtx,
    ) -> (VideoStream, CacheStats) {
        let opts = ExecOptions {
            segment_cache: Some(Arc::new(sc)),
            ..Default::default()
        };
        let (out, stats, _) = execute(plan, catalog, &opts).unwrap();
        (out, stats.cache)
    }

    /// Drives the one lookup chain through every origin and checks the
    /// attribution each has always reported.
    #[test]
    fn every_origin_attributes_as_before_and_yields_the_same_bytes() {
        let (catalog, plan) = setup(1);
        let ctx = |cache: Option<&Arc<RenderCache>>| SegmentCacheCtx {
            cache: cache.cloned(),
            keys: vec![Some(KEY)],
            ..Default::default()
        };
        let cache = temp_cache("tiers");

        // Fresh: nothing reused, and the segment is stored exactly once,
        // by `render_segment`. The disk run below reads that entry back.
        let (fresh, stats) = run(&catalog, &plan, ctx(Some(&cache)));
        assert_eq!(stats, CacheStats::default());
        assert_eq!(cache.entries(), 1);
        let bytes = fresh.byte_size();
        let same = |out: &VideoStream| assert_eq!(out.content_digest(), fresh.content_digest());

        // Disk (the read admits the fragment to memory), then memory.
        let disk = CacheStats {
            segment_hits: 1,
            bytes_reused: bytes,
            ..Default::default()
        };
        for want in [
            disk,
            CacheStats {
                mem_hits: 1,
                ..disk
            },
        ] {
            let (out, stats) = run(&catalog, &plan, ctx(Some(&cache)));
            assert_eq!(stats, want);
            same(&out);
        }

        // Remote: every local tier misses, the hook answers, and the
        // fragment is stored.
        let frag = cache.load_segment(KEY).unwrap();
        let cold = temp_cache("remote");
        let sc = SegmentCacheCtx {
            remote: Some(Arc::new(Canned(frag))),
            ..ctx(Some(&cold))
        };
        let (out, stats) = run(&catalog, &plan, sc);
        let remote = CacheStats {
            remote_segments: 1,
            bytes_reused: bytes,
            ..Default::default()
        };
        assert_eq!(stats, remote);
        same(&out);
        assert_eq!(cold.entries(), 1);
        for c in [cache, cold] {
            let _ = std::fs::remove_dir_all(c.dir());
        }
    }
}
