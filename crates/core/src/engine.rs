//! The embeddable V2V engine.

use crate::observe::{AnalyzeReport, ExplainReport, RunTrace};
use crate::{ErrorKind, V2vError};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;
use v2v_codec::Packet;
use v2v_container::{Fragment, VideoStream};
use v2v_data::{Database, Query};
use v2v_exec::{
    execute, execute_naive, execute_streaming_with, Catalog, ExecOptions, ExecStats, RenderCache,
    SegmentCacheCtx, StageTimes,
};
use v2v_obs::{SpanRecord, SpanSink, TRACE_SCHEMA_VERSION};
use v2v_plan::{
    explain_logical, explain_physical, lower_spec, optimize_traced, select_variants,
    OptimizerConfig, PhysicalPlan, PlanStats, PlanTrace, SegPlan, SourceDigests, VariantPolicy,
};
use v2v_spec::{check_spec_with_udfs, CheckReport, Spec};

/// Engine configuration: which parts of the V2V optimization story run.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Plan-level rewrites (stream copy, smart cut, sharding).
    pub optimizer: OptimizerConfig,
    /// Runtime options (parallel segment execution, worker count — which
    /// also picks the sequential or pipelined render loop — and the
    /// shared decoded-GOP cache size via `gop_cache_frames`).
    pub exec: ExecOptions,
    /// Apply data-dependent rewrites before planning (§IV-C).
    pub data_rewrites: bool,
    /// Persistent render cache shared across runs (and across engines —
    /// the serving layer hands every worker the same `Arc`). `None`
    /// disables segment reuse. Ignored while a fault
    /// injector is configured: degraded output must never be persisted.
    pub render_cache: Option<Arc<RenderCache>>,
    /// Remote segment dispatch hook (the serving coordinator installs
    /// its worker pool here): keyed whole segments that miss every
    /// local tier are offered to the hook before rendering in-process.
    /// `None` (the default) keeps execution fully local. Like the cache
    /// tiers, ignored while a fault injector is configured.
    pub remote: Option<Arc<dyn v2v_exec::RemoteRenderer>>,
    /// How render reads choose among attached storage variants
    /// (`v2v-store`): `Auto` (default) picks the cheapest
    /// decode-sufficient variant per segment, `Disabled` always reads
    /// originals, `Force(kind)` pins one kind where legal. A no-op
    /// unless variants are attached to the catalog. Never affects plan
    /// fingerprints, cache keys, or output bytes.
    pub variants: VariantPolicy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            optimizer: OptimizerConfig::default(),
            exec: ExecOptions::default(),
            data_rewrites: true,
            render_cache: None,
            remote: None,
            variants: VariantPolicy::Auto,
        }
    }
}

/// Everything a run produces besides the video itself.
#[derive(Debug)]
pub struct RunReport {
    /// The synthesized video.
    pub output: VideoStream,
    /// Static-check results (per-video requirements, warnings).
    pub check: CheckReport,
    /// Execution cost accounting.
    pub stats: ExecStats,
    /// Optimizer bookkeeping (empty for unoptimized runs).
    pub plan_stats: PlanStats,
    /// Operator sites specialized by the data-dependent rewriter.
    pub dde_rewrites: usize,
    /// Wall-clock execution time (excludes planning).
    pub wall: Duration,
    /// Structured error report: one entry per segment that failed
    /// and was recovered, skipped, or substituted under the configured
    /// [`ErrorPolicy`](v2v_exec::ErrorPolicy). Empty on clean runs (and
    /// always empty under `Abort`, where the first failure aborts the
    /// run instead of landing here).
    pub errors: Vec<v2v_exec::SegmentFault>,
}

/// Latency profile of a streaming run.
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamingStats {
    /// Wall time from executor start until the first packet reached the
    /// sink (zero when nothing was sunk).
    pub time_to_first_packet: Duration,
    /// Wall time from executor start until the last packet reached the
    /// sink.
    pub total: Duration,
}

/// A spec carried through bind → specialize → check → plan, ready to
/// execute. Produced by [`V2vEngine::prepare`]; holds the plan's
/// per-segment keys, so a worker can check a dispatched segment's key
/// against its own plan before rendering it.
pub struct PreparedRun {
    physical: PhysicalPlan,
    check: CheckReport,
    plan_trace: PlanTrace,
    dde_rewrites: usize,
    /// Per-segment fragment keys, aligned with `physical.segments`;
    /// empty when the plan is not content-addressable (UDF programs) or
    /// a fault injector is active.
    keys: Vec<Option<u64>>,
    spans: SpanSink,
}

impl PreparedRun {
    /// Per-segment fragment keys (aligned with the physical plan's
    /// segments; `None` marks an unkeyable segment; empty when the plan
    /// has no cache identity).
    pub fn segment_keys(&self) -> &[Option<u64>] {
        &self.keys
    }

    /// The static-check report for the prepared spec.
    pub fn check(&self) -> &CheckReport {
        &self.check
    }

    /// The optimized physical plan (the serving layer profiles source
    /// access shapes from it for store compaction).
    pub fn plan(&self) -> &PhysicalPlan {
        &self.physical
    }
}

/// The V2V engine: binds data, rewrites, checks, plans, and executes
/// specs against a catalog (and an optional relational database for
/// `sql:` data-array locators).
pub struct V2vEngine {
    catalog: Catalog,
    database: Database,
    config: EngineConfig,
}

impl V2vEngine {
    /// An engine over a catalog with default configuration.
    pub fn new(catalog: Catalog) -> V2vEngine {
        V2vEngine {
            catalog,
            database: Database::new(),
            config: EngineConfig::default(),
        }
    }

    /// Attaches a relational database for `sql:` locators.
    pub fn with_database(mut self, database: Database) -> V2vEngine {
        self.database = database;
        self
    }

    /// Overrides the configuration.
    pub fn with_config(mut self, config: EngineConfig) -> V2vEngine {
        self.config = config;
        self
    }

    /// The bound catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable catalog access (bind more sources).
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// Resolves the spec's locators into the catalog:
    ///
    /// * data arrays — `sql:<query>` runs against the attached database;
    ///   other locators are JSON annotation paths; names already bound in
    ///   the catalog win over both;
    /// * videos — names already bound win; otherwise the locator is read
    ///   as an `.svc` file;
    /// * overlay images — each constant path an `Overlay` or `OverlayAt`
    ///   names; paths already bound win; otherwise the path is read as a
    ///   PPM file.
    pub fn bind(&mut self, spec: &Spec) -> Result<(), V2vError> {
        let windows = spec.array_windows();
        for (name, locator) in &spec.data_arrays {
            if self.catalog.arrays().contains_key(name) {
                continue;
            }
            let array = if let Some(sql) = locator.strip_prefix("sql:") {
                // Bounded materialization (§IV-B): pull only the time
                // window the spec actually reads, trading storage for
                // compute at fine grain.
                Query::parse(sql).and_then(|q| match windows.get(name) {
                    Some((lo, hi)) => {
                        v2v_data::materialize_bounded(&q, &self.database, "timestamp", *lo, *hi)
                    }
                    None => q.materialize(&self.database),
                })
            } else {
                v2v_data::json::load_annotations(locator)
            };
            let array = array.map_err(|source| {
                let message = format!("data binding failed for '{name}'");
                V2vError::with_source(ErrorKind::NotFound, message, source)
            })?;
            self.catalog.add_array(name.clone(), array);
        }
        for (name, locator) in &spec.videos {
            if self.catalog.video(name).is_none() {
                self.catalog
                    .add_video(name.clone(), V2vEngine::read_video(name, locator)?);
            }
        }
        let mut images = Vec::new();
        spec.render.referenced_images(&mut images);
        for path in images {
            if self.catalog.image(&path).is_none() {
                let image = v2v_frame::ppm::read_ppm(&path).map_err(|e| {
                    let message = format!("cannot read overlay image '{path}'");
                    V2vError::with_source(ErrorKind::NotFound, message, e)
                })?;
                self.catalog.add_image(path, image);
            }
        }
        Ok(())
    }

    /// Reads the `.svc` file a video locator names: the one reader behind
    /// [`bind`](V2vEngine::bind) and the serving daemon's shared catalog,
    /// so both answer a missing or unreadable file with the same error.
    pub fn read_video(name: &str, locator: &str) -> Result<VideoStream, V2vError> {
        v2v_container::read_svc(locator).map_err(|e| {
            let message = format!("cannot resolve video '{name}' from locator '{locator}'");
            V2vError::with_source(ErrorKind::NotFound, message, e)
        })
    }

    /// Applies the data-dependent rewriter (pass 1 of the two-pass
    /// execution), returning the specialized spec. Pass-through spans
    /// shorter than half an output GOP are not split — too short to
    /// enable a stream copy, they would only fragment the plan.
    pub fn specialize(&self, spec: &Spec) -> (Spec, usize) {
        if self.config.data_rewrites {
            let min_run = u64::from(spec.output.gop_size / 2).max(1);
            crate::dde::rewrite_spec_with_min_run(spec, self.catalog.arrays(), min_run)
        } else {
            (spec.clone(), 0)
        }
    }

    /// Checks, plans, and optimizes a (bound, specialized) spec.
    pub fn plan(&self, spec: &Spec) -> Result<(PhysicalPlan, CheckReport), V2vError> {
        let (physical, check, _) = self.plan_traced(spec)?;
        Ok((physical, check))
    }

    /// Statically checks a bound spec against the catalog's sources and
    /// UDF registry.
    fn check(&self, spec: &Spec) -> Result<CheckReport, V2vError> {
        let sources = self.catalog.source_infos();
        check_spec_with_udfs(spec, &sources, self.catalog.udf_registry()).map_err(|errors| {
            let errors: Vec<String> = errors.iter().map(ToString::to_string).collect();
            let message = format!("spec check failed: {}", errors.join("; "));
            V2vError::new(ErrorKind::Plan, message)
        })
    }

    /// [`plan`](V2vEngine::plan), also returning the optimizer's rewrite
    /// trace (one event per rule application).
    fn plan_traced(&self, spec: &Spec) -> Result<(PhysicalPlan, CheckReport, PlanTrace), V2vError> {
        let check = self.check(spec)?;
        let logical = lower_spec(spec)?;
        let ctx = self.catalog.plan_context();
        let (mut physical, trace) = optimize_traced(&logical, ctx, &self.config.optimizer)?;
        // Storage-variant selection runs after all plan rewrites: it
        // only retargets render reads, so the plan's shape and cache
        // keys are already final.
        select_variants(&mut physical, ctx, self.config.variants);
        Ok((physical, check, trace))
    }

    /// Computes the plan's canonical cache identity: its per-segment
    /// fragment keys. Empty when a fault injector is active (degraded
    /// output must never be shared or persisted) or the plan is not
    /// cacheable (UDF programs have no content-addressable identity).
    /// Independent of whether a disk cache is configured — a worker's
    /// key check needs the keys even without one.
    /// Recorded as the `identity` span, with the number of arrays read
    /// and of array entries hashed on this call.
    fn plan_identity(&self, plan: &PhysicalPlan, spans: &SpanSink) -> Vec<Option<u64>> {
        let fault_active = self
            .config
            .exec
            .fault
            .as_deref()
            .is_some_and(|f| !f.is_empty());
        if fault_active {
            return Vec::new();
        }
        let timer = spans.start("identity");
        let (digests, entries_hashed) = self.source_digests(plan);
        let keys = if v2v_plan::cacheable(plan, &digests) {
            v2v_plan::segment_keys(plan, &digests)
        } else {
            Vec::new()
        };
        timer
            .attr("arrays", digests.array_entries.len())
            .attr("entries_hashed", entries_hashed)
            .finish();
        keys
    }

    /// Content digests of every source the plan reads, with the number
    /// of array entries hashed to get them: per-video stream digests
    /// with their committed-GOP prefix index, and per-entry digests of
    /// the arrays the plan's programs look up (so segment keys fold only
    /// the entries their windows can reach). Both are memoised on the
    /// source and shared by its clones, so only a source's first use
    /// hashes it, and arrays no program reads are never hashed.
    fn source_digests(&self, plan: &PhysicalPlan) -> (SourceDigests, usize) {
        let mut referenced: BTreeSet<&str> = BTreeSet::new();
        for seg in &plan.segments {
            match &seg.plan {
                SegPlan::StreamCopy { video, .. } => {
                    referenced.insert(video);
                }
                SegPlan::Render { inputs, .. } => {
                    for clip in inputs {
                        referenced.insert(&clip.video);
                    }
                }
            }
        }
        let mut digests = SourceDigests::default();
        for name in referenced {
            if let Some(stream) = self.catalog.video(name) {
                digests
                    .videos
                    .insert(name.to_string(), v2v_plan::VideoDigest::of(stream));
            }
        }
        let mut entries_hashed = 0;
        for name in v2v_plan::referenced_arrays(plan) {
            if let Some(array) = self.catalog.arrays().get(&name) {
                if !array.digests_known() {
                    entries_hashed += array.len();
                }
                digests.array_entries.insert(name, array.entry_digests());
            }
        }
        (digests, entries_hashed)
    }

    /// Full pipeline: bind → specialize → check → plan → execute.
    pub fn run(&mut self, spec: &Spec) -> Result<RunReport, V2vError> {
        let (report, _) = self.run_traced(spec)?;
        Ok(report)
    }

    /// [`run`](V2vEngine::run), also returning the observability
    /// artifact: rewrite trace, per-segment execution trace and
    /// pipeline-stage spans, serializable as one JSON document (the
    /// CLI's `--trace` flag).
    pub fn run_traced(&mut self, spec: &Spec) -> Result<(RunReport, RunTrace), V2vError> {
        let prepared = self.front_half(spec, self.reuse_configured())?;
        self.run_prepared(prepared)
    }

    /// The front half of [`run_traced`](V2vEngine::run_traced): bind →
    /// specialize → check → plan, always with the plan's segment keys,
    /// because a worker's `/render-segment` checks the dispatched key
    /// against them whether or not it has a reuse tier of its own.
    /// [`run_prepared`](V2vEngine::run_prepared) finishes the job.
    pub fn prepare(&mut self, spec: &Spec) -> Result<PreparedRun, V2vError> {
        self.front_half(spec, true)
    }

    /// The one front half behind every entry point: bind → specialize →
    /// check → plan, each under its span. The plan's cache identity is
    /// computed only on request: [`prepare`](V2vEngine::prepare) always
    /// asks, a one-shot or streaming run asks only when
    /// [`reuse_configured`](V2vEngine::reuse_configured) — nothing else
    /// would read it, and a source's first digest reads all its bytes
    /// ([`VideoStream::content_digest`](v2v_container::VideoStream::content_digest);
    /// later ones are lookups) — and `explain` never does.
    fn front_half(&mut self, spec: &Spec, identity: bool) -> Result<PreparedRun, V2vError> {
        let spans = SpanSink::new();
        let timer = spans.start("bind");
        self.bind(spec)?;
        timer.finish();
        let timer = spans.start("specialize");
        let (specialized, dde_rewrites) = self.specialize(spec);
        timer.finish();
        let timer = spans.start("plan");
        let (physical, check, plan_trace) = self.plan_traced(&specialized)?;
        timer
            .attr("segments", physical.segments.len())
            .attr("rewrites", plan_trace.events.len())
            .finish();
        let keys = if identity {
            self.plan_identity(&physical, &spans)
        } else {
            Vec::new()
        };
        Ok(PreparedRun {
            physical,
            check,
            plan_trace,
            dde_rewrites,
            keys,
            spans,
        })
    }

    /// True when some reuse tier (render cache, remote dispatch) is
    /// configured, i.e. something reads a plan's cache identity.
    fn reuse_configured(&self) -> bool {
        let c = &self.config;
        c.render_cache.is_some() || c.remote.is_some()
    }

    /// The options a plan with these segment keys executes under: the
    /// configured ones plus, when the plan is keyed (`keys` non-empty)
    /// and a reuse tier is configured, the segment-cache context wiring
    /// the tiers to the keys. `remote` admits the dispatch hook.
    fn exec_options(&self, keys: Vec<Option<u64>>, remote: bool) -> ExecOptions {
        let c = &self.config;
        let mut opts = c.exec.clone();
        opts.segment_cache = (self.reuse_configured() && !keys.is_empty()).then(|| {
            Arc::new(SegmentCacheCtx {
                cache: c.render_cache.clone(),
                keys,
                remote: c.remote.clone().filter(|_| remote),
            })
        });
        opts
    }

    /// Executes a [`PreparedRun`]: execution under the plan's segment
    /// keys (every keyed segment looked up in the reuse tiers first),
    /// span and trace assembly. A repeated query is an all-segment-hit
    /// run: zero frames decoded, zero encoded.
    pub fn run_prepared(
        &mut self,
        prepared: PreparedRun,
    ) -> Result<(RunReport, RunTrace), V2vError> {
        self.run_prepared_with(prepared, None)
    }

    /// [`run_prepared`](V2vEngine::run_prepared) with an optional
    /// packet sink: the one back half. With a sink, packets reach it in
    /// presentation order as output GOPs and segments complete, and the
    /// trace records when the first one did.
    fn run_prepared_with(
        &mut self,
        prepared: PreparedRun,
        sink: Option<&mut dyn FnMut(&Packet)>,
    ) -> Result<(RunReport, RunTrace), V2vError> {
        let (physical, spans) = (&prepared.physical, &prepared.spans);
        let timer = spans.start("execute");
        let exec_start_ns = spans.now_ns();
        let opts = self.exec_options(prepared.keys, true);
        let (output, exec_trace, wall) = match sink {
            Some(sink) => execute_streaming_with(physical, &self.catalog, &opts, sink)?,
            None => execute(physical, &self.catalog, &opts)?,
        };
        timer
            .attr("frames", output.len())
            .attr("faults", exec_trace.totals.faults_injected)
            .attr("fault_retries", exec_trace.totals.retries)
            .attr("parts_skipped", exec_trace.totals.parts_skipped)
            .attr("parts_substituted", exec_trace.totals.parts_substituted)
            .finish();
        // Synthetic per-stage spans: the scheduler's pipeline stages run
        // overlapped across worker threads, so these carry summed *busy*
        // time (anchored at the execute span's start), not exclusive wall
        // intervals.
        let stage = exec_trace
            .segments
            .iter()
            .fold(StageTimes::default(), |acc, s| acc.merge(s.stage));
        for (name, dur_ns) in [
            ("exec.stage.decode", stage.decode_ns),
            ("exec.stage.compose", stage.compose_ns),
            ("exec.stage.encode", stage.encode_ns),
        ] {
            spans.record(SpanRecord {
                name: name.into(),
                start_ns: exec_start_ns,
                dur_ns,
                attrs: vec![("busy".into(), "true".into())],
            });
        }
        let report = RunReport {
            output,
            check: prepared.check,
            stats: exec_trace.totals,
            plan_stats: physical.stats,
            dde_rewrites: prepared.dde_rewrites,
            wall,
            errors: exec_trace.errors.clone(),
        };
        let trace = RunTrace {
            schema_version: TRACE_SCHEMA_VERSION,
            dde_rewrites: prepared.dde_rewrites as u64,
            plan_stats: physical.stats,
            rewrites: prepared.plan_trace,
            exec: exec_trace,
            spans: spans.take(),
        };
        Ok((report, trace))
    }

    /// Renders exactly one segment of a prepared plan and returns it as
    /// a zero-based [`Fragment`] — the worker half of the
    /// coordinator/worker protocol.
    ///
    /// The carved sub-plan preserves the parent plan's domain instants
    /// ([`PhysicalPlan::carve_segment`]), and every render evaluates
    /// programs at absolute domain instants with a fresh encoder per
    /// output GOP, so the fragment's packets are byte-identical to what
    /// a full local run would encode for that segment. The engine's own
    /// cache tiers are consulted and warmed through the normal
    /// segment-cache path, so a worker that renders the same key twice
    /// serves the repeat from its cache.
    pub fn render_segment_fragment(
        &mut self,
        prepared: &PreparedRun,
        seg_index: usize,
    ) -> Result<(Fragment, ExecStats), V2vError> {
        let sub = prepared.physical.carve_segment(seg_index).ok_or_else(|| {
            let count = prepared.physical.segments.len();
            let message =
                format!("segment index {seg_index} out of range for a {count}-segment plan");
            V2vError::new(ErrorKind::InvalidRequest, message)
        })?;
        // The carved plan has one segment at index 0; hand it the
        // parent's key (segment keys are position-independent, so the
        // carve preserves the content address). Never admit the remote
        // hook here — a worker must not re-dispatch.
        let key = prepared.keys.get(seg_index).copied().flatten();
        let opts = self.exec_options(key.map(Some).into_iter().collect(), false);
        let (output, exec_trace, _) = execute(&sub, &self.catalog, &opts)?;
        Ok((Fragment::from_stream(&output), exec_trace.totals))
    }

    /// Full pipeline with on-demand streaming delivery: packets reach
    /// `sink` in presentation order, one output GOP at a time as each is
    /// encoded (whole segments on one worker or under a degraded-mode
    /// error policy), so playback can begin long before synthesis
    /// finishes (paper §I: "begin playback within seconds"). Delivery is the only difference from
    /// [`run`](V2vEngine::run): a streaming run reads and warms the
    /// same reuse tiers, and a repeated query streams from the cache.
    pub fn run_streaming(
        &mut self,
        spec: &Spec,
        mut sink: impl FnMut(&Packet),
    ) -> Result<(RunReport, StreamingStats), V2vError> {
        let prepared = self.front_half(spec, self.reuse_configured())?;
        let (report, trace) = self.run_prepared_with(prepared, Some(&mut sink))?;
        let streaming = StreamingStats {
            time_to_first_packet: Duration::from_nanos(trace.exec.first_packet_ns.unwrap_or(0)),
            total: report.wall,
        };
        Ok((report, streaming))
    }

    /// Runs the unoptimized plan (naive operator-at-a-time execution, no
    /// data rewrites) — the baseline arm of the paper's evaluation.
    pub fn run_unoptimized(&mut self, spec: &Spec) -> Result<RunReport, V2vError> {
        self.bind(spec)?;
        let check = self.check(spec)?;
        let logical = lower_spec(spec)?;
        let (output, stats, wall) = execute_naive(&logical, &self.catalog)?;
        Ok(RunReport {
            output,
            check,
            stats,
            plan_stats: PlanStats::default(),
            dde_rewrites: 0,
            wall,
            errors: Vec::new(),
        })
    }

    /// Explains a spec without executing it: both plan renderings (the
    /// Fig. 2 pair) plus the optimizer's rewrite trace.
    pub fn explain(&mut self, spec: &Spec) -> Result<ExplainReport, V2vError> {
        let prepared = self.front_half(spec, false)?;
        explain_report(spec, &prepared)
    }

    /// `EXPLAIN ANALYZE`: plans *and runs* the spec, returning the plan
    /// annotated with the measured per-operator execution metrics (the
    /// output video is discarded). No cache identity is computed, so
    /// the run is always measured, never answered from a reuse tier.
    pub fn explain_analyze(&mut self, spec: &Spec) -> Result<AnalyzeReport, V2vError> {
        let prepared = self.front_half(spec, false)?;
        let explain = explain_report(spec, &prepared)?;
        let (report, trace) = self.run_prepared(prepared)?;
        Ok(AnalyzeReport {
            explain,
            exec: trace.exec,
            output_frames: report.output.len() as u64,
        })
    }
}

/// The `explain` view of a front half: the unoptimized logical plan of
/// the spec as written beside the optimized physical plan.
fn explain_report(spec: &Spec, prepared: &PreparedRun) -> Result<ExplainReport, V2vError> {
    Ok(ExplainReport {
        logical: explain_logical(&lower_spec(spec)?),
        physical: explain_physical(&prepared.physical),
        trace: prepared.plan_trace.clone(),
        plan_stats: prepared.physical.stats,
        dde_rewrites: prepared.dde_rewrites as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use v2v_codec::CodecParams;
    use v2v_container::StreamWriter;
    use v2v_data::{Table, Value};
    use v2v_frame::{marker, BoxCoord, Frame, FrameType};
    use v2v_plan::PlanError;
    use v2v_spec::builder::bounding_box;
    use v2v_spec::{OutputSettings, SpecBuilder};
    use v2v_time::{r, Rational};

    fn marked_stream(n: usize, gop: u32) -> VideoStream {
        let ty = FrameType::gray8(64, 32);
        let params = CodecParams::new(ty, gop, 0);
        let mut w = StreamWriter::new(params, Rational::ZERO, r(1, 30));
        for i in 0..n {
            let mut f = Frame::black(ty);
            marker::embed(&mut f, i as u32);
            w.push_frame(&f).unwrap();
        }
        w.finish().unwrap()
    }

    fn output() -> OutputSettings {
        OutputSettings {
            frame_ty: FrameType::gray8(64, 32),
            frame_dur: r(1, 30),
            gop_size: 30,
            quantizer: 0,
        }
    }

    fn engine_with_video() -> V2vEngine {
        let mut catalog = Catalog::new();
        catalog.add_video("a", marked_stream(120, 30));
        V2vEngine::new(catalog)
    }

    #[test]
    fn end_to_end_run_and_baseline_agree() {
        let mut engine = engine_with_video();
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .append_clip("a", r(1, 1), r(2, 1))
            .build();
        let opt = engine.run(&spec).unwrap();
        let unopt = engine.run_unoptimized(&spec).unwrap();
        assert_eq!(opt.output.len(), 60);
        assert_eq!(unopt.output.len(), 60);
        let (fa, _) = opt.output.decode_range(0, 60).unwrap();
        let (fb, _) = unopt.output.decode_range(0, 60).unwrap();
        assert_eq!(fa, fb);
        assert!(opt.stats.packets_copied > 0);
        // The naive arm still paid a full decode+encode for the clip
        // (its only copies are the final concat splice of its own
        // intermediates).
        assert_eq!(unopt.stats.frames_encoded, 60);
        assert_eq!(opt.stats.frames_encoded, 0);
    }

    #[test]
    fn unencodable_output_settings_fail_before_rendering() {
        let mut engine = engine_with_video();
        let bad: [fn(&mut OutputSettings); 3] = [
            |o| o.frame_ty.width = 0,
            |o| o.frame_ty.height = 16385,
            |o| o.gop_size = 0,
        ];
        for mutate in bad {
            let mut out = output();
            mutate(&mut out);
            let spec = SpecBuilder::new(out)
                .video("a", "a.svc")
                .append_filtered("a", r(0, 1), r(1, 1), |e| v2v_spec::builder::blur(e, 1.0))
                .build();
            let err = engine.run(&spec).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::Plan, "{out:?}: {err}");
            let source = std::error::Error::source(&err).and_then(|s| s.downcast_ref());
            assert!(
                matches!(source, Some(PlanError::InvalidOutput(_))),
                "{out:?}: {err}"
            );
        }
    }

    #[test]
    fn dde_plus_optimizer_stream_copies_boxless_spans() {
        // Sparse detections: boxes only on frames 30..60 of a 120-frame
        // clip. After dde + optimization, the box-free spans stream-copy.
        let mut engine = engine_with_video();
        let mut bb = v2v_data::DataArray::new();
        for i in 30..60 {
            bb.insert(
                r(i, 30),
                Value::Boxes(vec![BoxCoord::new(0.2, 0.2, 0.3, 0.3, "z")]),
            );
        }
        engine.catalog_mut().add_array("bb", bb);
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .data_array("bb", "catalog")
            .append_filtered("a", r(0, 1), r(4, 1), |e| bounding_box(e, "bb"))
            .build();
        let report = engine.run(&spec).unwrap();
        assert_eq!(report.dde_rewrites, 1);
        assert!(
            report.stats.packets_copied >= 60,
            "box-free GOPs must copy: {:?}",
            report.stats
        );
        // And compare against dde-off: everything renders.
        let mut engine_off = engine_with_video();
        engine_off.catalog_mut().add_array("bb", {
            let mut bb = v2v_data::DataArray::new();
            for i in 30..60 {
                bb.insert(
                    r(i, 30),
                    Value::Boxes(vec![BoxCoord::new(0.2, 0.2, 0.3, 0.3, "z")]),
                );
            }
            bb
        });
        let cfg = EngineConfig {
            data_rewrites: false,
            ..Default::default()
        };
        let mut engine_off = V2vEngine {
            catalog: engine_off.catalog.clone(),
            database: Database::new(),
            config: cfg,
        };
        let report_off = engine_off.run(&spec).unwrap();
        assert_eq!(report_off.stats.packets_copied, 0);
        // Same frames either way.
        let (fa, _) = report.output.decode_range(0, report.output.len()).unwrap();
        let (fb, _) = report_off
            .output
            .decode_range(0, report_off.output.len())
            .unwrap();
        assert_eq!(fa, fb);
    }

    #[test]
    fn sql_locator_binds_from_database() {
        let mut t = Table::new(
            "video_objects",
            vec![
                "video".into(),
                "model".into(),
                "timestamp".into(),
                "frame_objects".into(),
            ],
        );
        for i in 0..30 {
            t.push_row(vec![
                Value::from("a"),
                Value::from("yolov5m"),
                Value::Rational(r(i, 30)),
                Value::Boxes(vec![]),
            ]);
        }
        let mut db = Database::new();
        db.add_table(t);
        let mut catalog = Catalog::new();
        catalog.add_video("a", marked_stream(60, 30));
        let mut engine = V2vEngine::new(catalog).with_database(db);
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .data_array(
                "bb",
                "sql:SELECT timestamp, frame_objects FROM video_objects \
                 WHERE video = 'a' AND model = 'yolov5m'",
            )
            .append_filtered("a", r(0, 1), r(1, 1), |e| bounding_box(e, "bb"))
            .build();
        let report = engine.run(&spec).unwrap();
        // All rows have empty boxes → dde collapses to a pure clip →
        // everything copies.
        assert!(report.dde_rewrites >= 1);
        assert_eq!(report.stats.frames_encoded, 0);
    }

    #[test]
    fn bad_sql_locator_reports_bind_error() {
        let mut engine = engine_with_video();
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .data_array("bb", "sql:SELEKT nope")
            .append_filtered("a", r(0, 1), r(1, 1), |e| bounding_box(e, "bb"))
            .build();
        let err = engine.run(&spec).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::NotFound, "{err}");
        let source = std::error::Error::source(&err).and_then(|s| s.downcast_ref());
        assert!(
            matches!(source, Some(v2v_data::DataError::SqlParse(_))),
            "{err}"
        );
    }

    #[test]
    fn check_failure_surfaces() {
        let mut engine = engine_with_video();
        // Clip past the end of the 4-second source.
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .append_clip("a", r(3, 1), r(5, 1))
            .build();
        let err = engine.run(&spec).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Plan, "{err}");
        assert!(std::error::Error::source(&err).is_none(), "{err}");
        assert!(err.to_string().contains("spec check failed"), "{err}");
    }

    #[test]
    fn explain_produces_both_plans() {
        let mut engine = engine_with_video();
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .append_clip("a", r(1, 1), r(2, 1))
            .build();
        let report = engine.explain(&spec).unwrap();
        assert!(report.logical.contains("Clip"));
        assert!(report.physical.contains("StreamCopy"));
        assert_eq!(report.trace.fired("stream_copy"), 1);
        let text = report.pretty();
        assert!(text.contains("unoptimized logical plan"));
        assert!(text.contains("stream_copy"));
    }

    #[test]
    fn explain_analyze_measures_the_run() {
        let mut engine = engine_with_video();
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .append_clip("a", r(1, 1), r(2, 1))
            .build();
        let report = engine.explain_analyze(&spec).unwrap();
        assert_eq!(report.output_frames, 60);
        assert_eq!(report.stats().packets_copied, 60);
        assert_eq!(report.stats().frames_encoded, 0);
        assert_eq!(report.exec.segments.len(), 1);
        assert_eq!(report.exec.segments[0].kind, "stream_copy");
        assert!(report.pretty().contains("measured execution"));
    }

    #[test]
    fn run_traced_artifact_matches_run() {
        let mut engine = engine_with_video();
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .append_clip("a", r(1, 1), r(2, 1))
            .build();
        let (report, trace) = engine.run_traced(&spec).unwrap();
        assert_eq!(trace.exec.totals, report.stats);
        assert_eq!(trace.rewrites.fired("stream_copy"), 1);
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
        for stage in [
            "bind",
            "specialize",
            "plan",
            "execute",
            "exec.stage.decode",
            "exec.stage.compose",
            "exec.stage.encode",
        ] {
            assert!(names.contains(&stage), "missing span {stage}: {names:?}");
        }
        // The artifact survives a JSON round trip unchanged.
        let back = crate::observe::RunTrace::from_json(&trace.to_json()).unwrap();
        assert_eq!(back, trace);
    }

    fn cached_engine(tag: &str) -> (V2vEngine, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("v2v_engine_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = EngineConfig {
            render_cache: Some(Arc::new(RenderCache::open(&dir, 0).unwrap())),
            ..Default::default()
        };
        (engine_with_video().with_config(config), dir)
    }

    /// One blurred second of `a` per entry of `starts` — each its own
    /// render segment, so specs sharing a start share that segment.
    fn blur_spec(starts: &[i64]) -> Spec {
        let mut b = SpecBuilder::new(output()).video("a", "a.svc");
        for &from in starts {
            b = b.append_filtered("a", r(from, 1), r(1, 1), |e| {
                v2v_spec::builder::blur(e, 1.0)
            });
        }
        b.build()
    }

    #[test]
    fn streaming_runs_read_and_warm_the_render_cache() {
        let spec = blur_spec(&[0, 2]);
        let batch = engine_with_video().run(&spec).unwrap();
        let (mut engine, dir) = cached_engine("stream");
        let mut runs = Vec::new();
        for _ in 0..2 {
            let mut sunk = Vec::new();
            let (report, _) = engine
                .run_streaming(&spec, |p| sunk.push(p.clone()))
                .unwrap();
            assert_eq!(
                report.output.content_digest(),
                batch.output.content_digest()
            );
            assert_eq!(sunk, report.output.packets(), "every packet, in order");
            runs.push(report.stats);
        }
        assert_eq!(runs[0].cache.segment_hits, 0);
        assert_eq!(runs[0].frames_encoded, 60);
        // The repeat is an all-segment hit: both blurred seconds come
        // out of the cache, nothing is decoded or encoded.
        assert_eq!(runs[1].cache.segment_hits, 2);
        assert_eq!(runs[1].frames_decoded, 0);
        assert_eq!(runs[1].frames_encoded, 0);
        // A different query sharing the first second: its shared
        // segment comes out of the warmed cache, the other renders.
        let overlap = blur_spec(&[0, 3]);
        let (report, _) = engine.run_streaming(&overlap, |_| {}).unwrap();
        assert_eq!(report.stats.cache.segment_hits, 1, "{:?}", report.stats);
        assert_eq!(report.stats.frames_encoded, 30);
        let cold = engine_with_video().run(&overlap).unwrap();
        assert_eq!(report.output.content_digest(), cold.output.content_digest());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn overlay_images_bind_from_their_files_and_are_never_cached() {
        use v2v_frame::Plane;
        use v2v_spec::{Arg, DataExpr, RenderExpr, TransformOp};
        let (mut engine, dir) = cached_engine("overlay");
        let path = dir.join("patch.ppm").to_string_lossy().into_owned();
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .append_filtered("a", r(0, 1), r(1, 1), |e| {
                let num = |v: f64| Arg::Data(DataExpr::constant(v));
                let args = vec![
                    Arg::Frame(e),
                    Arg::Data(DataExpr::constant(path.as_str())),
                    num(0.25),
                    num(0.25),
                    num(1.0),
                ];
                RenderExpr::transform(TransformOp::OverlayAt, args)
            })
            .build();
        // Each level is written to the file, then rendered by a fresh
        // engine over the one persistent render cache.
        for level in [200, 40] {
            let patch =
                Frame::from_planes(FrameType::rgb24(8, 8), vec![Plane::filled(24, 8, level)])
                    .unwrap();
            v2v_frame::ppm::write_ppm(&patch, &path).unwrap();
            let report = engine.run(&spec).unwrap();
            assert_eq!(report.stats.cache.segment_hits, 0, "never keyed");
            let (frames, _) = report.output.decode_range(0, 1).unwrap();
            let luma = patch.to_yuv420p().plane(0).get(0, 0);
            assert_eq!(frames[0].plane(0).get(16, 8), luma, "level {level}");
            engine = engine_with_video().with_config(engine.config.clone());
        }
        // A missing image fails at bind, like a missing video.
        std::fs::remove_file(&path).unwrap();
        let err = engine.bind(&spec).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::NotFound, "{err}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn identity_is_computed_only_where_something_reads_it() {
        let spec = blur_spec(&[0]);
        let mut plain = engine_with_video();
        let streaming = plain.front_half(&spec, plain.reuse_configured()).unwrap();
        assert!(streaming.segment_keys().is_empty());
        assert_eq!(identity_attrs(&streaming), None);
        // Nor does a one-shot `run`: with no reuse tier, the source is
        // never digested — not even once.
        let source = plain.catalog().video("a").expect("bound").clone();
        plain.run(&spec).unwrap();
        plain.run_streaming(&spec, |_| {}).unwrap();
        assert!(!source.digests_known());
        let prepared = plain.prepare(&spec).unwrap();
        assert!(!prepared.segment_keys().is_empty());
        assert!(source.digests_known());
        assert_eq!(identity_attrs(&prepared), Some((0, 0)));

        let (mut cached, dir) = cached_engine("identity");
        let streaming = cached.front_half(&spec, cached.reuse_configured()).unwrap();
        assert_eq!(streaming.segment_keys(), prepared.segment_keys());
        assert_eq!(
            cached.prepare(&spec).unwrap().segment_keys(),
            prepared.segment_keys()
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    /// The `identity` span's `(arrays, entries_hashed)`, if the run
    /// computed its identity.
    fn identity_attrs(run: &PreparedRun) -> Option<(usize, usize)> {
        let span = run
            .spans
            .take()
            .into_iter()
            .find(|s| s.name == "identity")?;
        let attr = |key: &str| {
            let (_, v) = span.attrs.iter().find(|(k, _)| k == key).expect("attr");
            v.parse().expect("a count")
        };
        Some((attr("arrays"), attr("entries_hashed")))
    }

    /// `a`'s catalog with a box on each of its 120 frames in `bb`, and a
    /// spec drawing them over its first second.
    fn boxed_catalog_and_spec() -> (Catalog, Spec) {
        let mut catalog = engine_with_video().catalog().clone();
        let boxes = Value::Boxes(vec![BoxCoord::new(0.2, 0.2, 0.3, 0.3, "z")]);
        catalog.add_array("bb", (0..120).map(|i| (r(i, 30), boxes.clone())).collect());
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .data_array("bb", "catalog")
            .append_filtered("a", r(0, 1), r(1, 1), |e| bounding_box(e, "bb"))
            .build();
        (catalog, spec)
    }

    /// Engines over clones of one catalog (the daemon's per-request
    /// snapshots) share each array's entry digests: the first `prepare`
    /// hashes them into the memo every clone sees, the second hashes
    /// nothing and reads the same allocation.
    #[test]
    fn engines_cloned_from_one_catalog_share_array_digests() {
        let (catalog, spec) = boxed_catalog_and_spec();
        let mut first = V2vEngine::new(catalog.clone());
        let mut second = V2vEngine::new(catalog.clone());
        let cold = first.prepare(&spec).unwrap();
        assert_eq!(identity_attrs(&cold), Some((1, 120)));
        assert!(catalog.arrays()["bb"].digests_known());
        let warm = second.prepare(&spec).unwrap();
        assert_eq!(identity_attrs(&warm), Some((1, 0)));
        assert_eq!(warm.segment_keys(), cold.segment_keys());
        let digests = |c: &Catalog| c.arrays()["bb"].entry_digests();
        assert!(Arc::ptr_eq(
            &digests(first.catalog()),
            &digests(second.catalog())
        ));
        assert!(Arc::ptr_eq(&digests(first.catalog()), &digests(&catalog)));
    }

    /// A plan whose programs look nothing up digests no array, however
    /// many the catalog binds.
    #[test]
    fn a_plan_reading_no_array_digests_none() {
        let (catalog, _) = boxed_catalog_and_spec();
        let mut engine = V2vEngine::new(catalog);
        let prepared = engine.prepare(&blur_spec(&[0])).unwrap();
        assert!(!prepared.segment_keys().is_empty());
        assert_eq!(identity_attrs(&prepared), Some((0, 0)));
        assert!(!engine.catalog().arrays()["bb"].digests_known());
    }

    #[test]
    fn sql_binding_is_time_bounded() {
        // The table spans 4 s; the spec reads only [0, 1) s: bind must
        // materialize the window, not the whole query (§IV-B bounded
        // materialization).
        let mut t = Table::new(
            "video_objects",
            vec![
                "video".into(),
                "model".into(),
                "timestamp".into(),
                "frame_objects".into(),
            ],
        );
        for i in 0..120 {
            t.push_row(vec![
                Value::from("a"),
                Value::from("yolov5m"),
                Value::Rational(r(i, 30)),
                Value::Boxes(vec![]),
            ]);
        }
        let mut db = Database::new();
        db.add_table(t);
        let mut catalog = Catalog::new();
        catalog.add_video("a", marked_stream(120, 30));
        let mut engine = V2vEngine::new(catalog).with_database(db);
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .data_array(
                "bb",
                "sql:SELECT timestamp, frame_objects FROM video_objects WHERE video = 'a'",
            )
            .append_filtered("a", r(0, 1), r(1, 1), |e| bounding_box(e, "bb"))
            .build();
        engine.bind(&spec).unwrap();
        let bound = &engine.catalog().arrays()["bb"];
        assert_eq!(bound.len(), 30, "only the read window materializes");
        assert!(bound.contains(r(29, 30)));
        assert!(!bound.contains(r(30, 30)));
    }
}
