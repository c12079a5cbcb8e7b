#![warn(missing_docs)]

//! `v2v-serve` — a concurrent query service over the V2V engine.
//!
//! The paper frames V2V as an interactive system: analysts issue video
//! queries and expect playable results in seconds. This crate provides
//! the serving layer that makes repeated and overlapping queries cheap:
//! a std-only HTTP/1.1 daemon (the sandbox has no HTTP dependency; see
//! [`http`] for the subset spoken) that runs each `POST /query` through
//! the traced engine, with
//!
//! * **admission control** — at most `max_concurrent` renders run at
//!   once; excess requests wait in a bounded FIFO and are rejected with
//!   `429 Too Many Requests` + `retry-after` when the queue is full;
//!   the time a request spends waiting for admission is reported as
//!   `queue_wait_ns` in its `x-v2v-stats` header, separate from render
//!   time;
//! * **multi-query work sharing** — three tiers above per-request
//!   execution (see [`share`]): a request whose canonical plan
//!   fingerprint matches a render already in flight coalesces into it
//!   via the [`InflightRegistry`] and receives
//!   the same bytes (`inflight_hits` in its stats); concurrent
//!   *overlapping* queries share a daemon-wide
//!   [`FragmentFlight`], so each common
//!   segment renders exactly once (`shared_segment_hits`); and a
//!   byte-budgeted in-memory fragment tier
//!   ([`MemTier`](v2v_exec::MemTier)) on the render cache answers hot
//!   repeats without touching disk (`mem_hits`);
//! * **a shared persistent render cache** — all workers share one
//!   [`RenderCache`], so a repeated query is answered by splicing
//!   cached container bytes (zero decode) and an overlapping query
//!   reuses every segment it shares with earlier ones (see
//!   `v2v_plan::fingerprint` for key derivation);
//! * **observability** — `GET /metrics` serves a
//!   [`MetricsSnapshot`](v2v_obs::MetricsSnapshot) aggregated across
//!   requests, `GET /status` the live admission, sharing, and cache
//!   picture.
//!
//! Routes:
//!
//! | route | body | response |
//! |---|---|---|
//! | `POST /query` | spec JSON | `.svc` container bytes; `x-v2v-stats` header carries the run's [`ExecStats`] JSON |
//! | `POST /subscribe` | spec JSON | long-lived stream of delta records (see [`sub`]) |
//! | `POST /append/<name>` | sealed `.svc` of new GOPs | appends to the named live catalog video |
//! | `POST /append-data/<name>` | `[{"t": ..., "value": ...}]` | appends entries to the named data array |
//! | `GET /status` | — | admission + cache state JSON (plus a `store` block when a variant store is configured) |
//! | `GET /metrics` | — | metrics snapshot JSON |
//! | `GET /store` | — | variant manifests + observed access profiles (see [`store_svc`]) |
//! | `POST /store/materialize/<name>/<kind>` | — | transcode + attach one variant now |
//! | `POST /store/drop/<name>/<kind>` | — | drop one variant |
//! | `POST /store/pin/<name>/<kind>` | `{"pinned": bool}` | pin/unpin against compaction |
//! | `POST /store/compact` | — | run one compaction pass now |
//!
//! **Live sources and subscriptions.** The catalog is mutable at
//! runtime: `POST /append/<name>` splices freshly-encoded GOPs onto a
//! bound video (`/append-data/` does the same for detection arrays) and
//! bumps a catalog version every subscription watches. A `/subscribe`
//! request registers a spec; the daemon clamps its time domain to the
//! currently *servable* prefix ([`v2v_spec::servable_domain`]),
//! renders it through the normal admission/sharing/cluster path, and
//! pushes the changed output suffix as a delta record. On every
//! append, only segments whose inputs actually changed re-render — the
//! prefix-incremental source digests keep clean segment keys stable,
//! so the render cache answers the rest (`sub.*` and `exec.cache.*`
//! metrics make the dirty-only behavior observable). The digests are
//! incremental in cost as well as in value: a source is hashed once,
//! whichever request first asks, and the stream an append swaps in
//! resumes from the old one's digest state
//! ([`VideoStream::concat`](v2v_container::VideoStream::concat)), so
//! the next request hashes the appended GOPs only.
//!
//! Query errors map the [`ErrorKind`] taxonomy onto status codes:
//! `invalid_request`/`plan` → 400, `not_found` → 404, `corrupt_data` →
//! 422, everything else → 500; the body is a structured
//! `{"error": {kind, message}}` object. 429 rejections additionally
//! carry the live queue picture (`queue_depth`, `queue_limit`,
//! `retry_after_secs`) in the error body.

pub mod cluster;
pub mod http;
pub mod share;
pub mod store_svc;
pub mod sub;

use cluster::{PoolRemote, WorkerPool};
use http::{read_request, write_response, Request, Response};
use share::{follower_outcome, InflightRegistry, QueryOutcome, SharedError};
use std::collections::BTreeMap;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use v2v_core::{EngineConfig, ErrorKind, PreparedRun, V2vEngine, V2vError};
use v2v_data::Database;
use v2v_exec::{Catalog, Claim, ExecStats, FlightGuard, FragmentFlight, RenderCache};
use v2v_obs::{Counter, Gauge, Histogram, Registry};
use v2v_spec::Spec;
use v2v_store::{profile_plan, AccessProfile, SourceStore};

/// Which side of the scale-out protocol this daemon plays.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ServeRole {
    /// The coordinator: accepts `POST /query`, carves admitted plans at
    /// segment boundaries, and (when [`ServeConfig::workers`] is
    /// non-empty) dispatches keyed segments to workers.
    #[default]
    Frontend,
    /// A worker: the slim role exposing only `POST /render-segment`,
    /// `GET /fragment/<key>`, `GET /status`, and `GET /metrics`.
    /// Workers never dispatch further — fan-out is one level deep.
    Worker,
}

impl ServeRole {
    fn name(self) -> &'static str {
        match self {
            ServeRole::Frontend => "frontend",
            ServeRole::Worker => "worker",
        }
    }
}

/// Serving configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Renders admitted simultaneously (minimum 1).
    pub max_concurrent: usize,
    /// Requests allowed to wait for admission beyond the running ones;
    /// requests past the queue are rejected with 429.
    pub queue_depth: usize,
    /// `retry-after` seconds advertised on 429 responses.
    pub retry_after_secs: u64,
    /// Coalesce identical in-flight requests and share overlapping
    /// segments between concurrent renders (on by default). Turning
    /// this off makes every request execute independently — the
    /// baseline arm benchmarks compare against.
    pub work_sharing: bool,
    /// Coordinator or worker (see [`ServeRole`]).
    pub role: ServeRole,
    /// Worker addresses (`host:port`) this coordinator dispatches
    /// segments to. Empty means everything renders locally. Ignored in
    /// the worker role.
    pub workers: Vec<String>,
    /// Engine configuration every job runs under. Set
    /// `engine.render_cache` to share a persistent cache across jobs.
    pub engine: EngineConfig,
    /// Adaptive physical storage: when set, the daemon opens a
    /// [`SourceStore`] at the given root, attaches every valid variant
    /// to the catalog at startup, profiles each prepared query, and
    /// compacts variants under the byte budget (see [`store_svc`]).
    pub store: Option<StoreServeConfig>,
}

/// Variant-store settings for a serving daemon.
#[derive(Clone, Debug)]
pub struct StoreServeConfig {
    /// Store root directory (`<root>/<source>/<kind>.svc` + manifests).
    pub root: PathBuf,
    /// Total bytes of managed variants the compactor may hold;
    /// `u64::MAX` disables eviction.
    pub budget_bytes: u64,
    /// Background compaction cadence; `Duration::ZERO` disables the
    /// background thread (passes still run via `POST /store/compact`).
    pub compact_interval: Duration,
}

impl StoreServeConfig {
    /// A store at `root` with an unbounded budget and no background
    /// compaction thread.
    pub fn at(root: impl Into<PathBuf>) -> StoreServeConfig {
        StoreServeConfig {
            root: root.into(),
            budget_bytes: u64::MAX,
            compact_interval: Duration::ZERO,
        }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_concurrent: 2,
            queue_depth: 16,
            retry_after_secs: 1,
            work_sharing: true,
            role: ServeRole::Frontend,
            workers: Vec::new(),
            engine: EngineConfig::default(),
            store: None,
        }
    }
}

/// Admission gate: a counting semaphore with a bounded wait queue.
struct JobGate {
    max: usize,
    depth: usize,
    state: Mutex<GateState>,
    freed: Condvar,
}

#[derive(Default)]
struct GateState {
    active: usize,
    queued: usize,
}

impl JobGate {
    fn new(max: usize, depth: usize) -> JobGate {
        JobGate {
            max: max.max(1),
            depth,
            state: Mutex::new(GateState::default()),
            freed: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, GateState> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Blocks until admitted; `false` means the queue was full and the
    /// request must be rejected.
    fn enter(&self) -> bool {
        let mut st = self.lock();
        if st.active < self.max {
            st.active += 1;
            return true;
        }
        if st.queued >= self.depth {
            return false;
        }
        st.queued += 1;
        while st.active >= self.max {
            st = self
                .freed
                .wait(st)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        st.queued -= 1;
        st.active += 1;
        true
    }

    fn leave(&self) {
        let mut st = self.lock();
        st.active = st.active.saturating_sub(1);
        drop(st);
        self.freed.notify_one();
    }

    fn snapshot(&self) -> (usize, usize) {
        let st = self.lock();
        (st.active, st.queued)
    }
}

/// Metric handles resolved once at startup. `Registry` lookups take a
/// map lock per call; on the warm path at high client counts those
/// lookups (a dozen per request) serialized otherwise-independent
/// requests, so the hot counters are resolved here and each update is
/// a single uncontended atomic add.
struct Metrics {
    requests: Arc<Counter>,
    jobs_done: Arc<Counter>,
    jobs_failed: Arc<Counter>,
    jobs_rejected: Arc<Counter>,
    inflight_hits: Arc<Counter>,
    segments_rendered: Arc<Counter>,
    active_jobs: Arc<Gauge>,
    job_wall_ns: Arc<Histogram>,
    queue_wait_ns: Arc<Histogram>,
    sub_active: Arc<Gauge>,
    sub_deltas: Arc<Counter>,
    sub_frames_pushed: Arc<Counter>,
    sub_renders: Arc<Counter>,
    sub_appends: Arc<Counter>,
    store_smart_cut: Arc<Counter>,
    store_scan: Arc<Counter>,
    store_preview: Arc<Counter>,
    store_materializations: Arc<Counter>,
    store_drops: Arc<Counter>,
    exec: ExecMetrics,
}

/// Pre-resolved `exec.*` counters mirrored from each run's stats.
struct ExecMetrics {
    frames_decoded: Arc<Counter>,
    frames_encoded: Arc<Counter>,
    bytes_decoded: Arc<Counter>,
    packets_copied: Arc<Counter>,
    result_hits: Arc<Counter>,
    segment_hits: Arc<Counter>,
    evictions: Arc<Counter>,
    bytes_reused: Arc<Counter>,
    inflight_hits: Arc<Counter>,
    shared_segment_hits: Arc<Counter>,
    mem_hits: Arc<Counter>,
    remote_segments: Arc<Counter>,
}

impl Metrics {
    fn new(registry: &Registry) -> Metrics {
        Metrics {
            requests: registry.counter("serve.requests"),
            jobs_done: registry.counter("serve.jobs_done"),
            jobs_failed: registry.counter("serve.jobs_failed"),
            jobs_rejected: registry.counter("serve.jobs_rejected"),
            inflight_hits: registry.counter("serve.inflight_hits"),
            segments_rendered: registry.counter("serve.segments_rendered"),
            active_jobs: registry.gauge("serve.active_jobs"),
            job_wall_ns: registry.histogram("serve.job_wall_ns"),
            queue_wait_ns: registry.histogram("serve.queue_wait_ns"),
            sub_active: registry.gauge("sub.active"),
            sub_deltas: registry.counter("sub.deltas"),
            sub_frames_pushed: registry.counter("sub.frames_pushed"),
            sub_renders: registry.counter("sub.renders"),
            sub_appends: registry.counter("sub.appends"),
            store_smart_cut: registry.counter("store.reads.smart_cut"),
            store_scan: registry.counter("store.reads.scan"),
            store_preview: registry.counter("store.reads.preview"),
            store_materializations: registry.counter("store.materializations"),
            store_drops: registry.counter("store.drops"),
            exec: ExecMetrics {
                frames_decoded: registry.counter("exec.frames_decoded"),
                frames_encoded: registry.counter("exec.frames_encoded"),
                bytes_decoded: registry.counter("exec.bytes_decoded"),
                packets_copied: registry.counter("exec.packets_copied"),
                result_hits: registry.counter("exec.cache.result_hits"),
                segment_hits: registry.counter("exec.cache.segment_hits"),
                evictions: registry.counter("exec.cache.evictions"),
                bytes_reused: registry.counter("exec.cache.bytes_reused"),
                inflight_hits: registry.counter("exec.cache.inflight_hits"),
                shared_segment_hits: registry.counter("exec.cache.shared_segment_hits"),
                mem_hits: registry.counter("exec.cache.mem_hits"),
                remote_segments: registry.counter("exec.remote.segments"),
            },
        }
    }
}

/// State shared by the accept loop and every connection thread.
struct Shared {
    /// The live source catalog. `POST /append*` routes take the write
    /// lock for the duration of one splice; queries clone a snapshot
    /// under the read lock (cheap: streams are `Arc`-backed).
    catalog: RwLock<Catalog>,
    /// Bumped on every successful append; subscriptions sleep on
    /// [`Shared::catalog_grew`] until it moves.
    catalog_version: Mutex<u64>,
    catalog_grew: Condvar,
    /// Set when the server is stopping; wakes subscription waits.
    stopping: AtomicBool,
    database: Database,
    config: ServeConfig,
    gate: JobGate,
    registry: Registry,
    metrics: Metrics,
    /// Whole-response single-flight by plan fingerprint.
    inflight: InflightRegistry,
    /// Segment-level publish/subscribe shared by every engine this
    /// daemon builds, so overlapping renders produce each common
    /// segment exactly once.
    flight: Arc<FragmentFlight>,
    /// The worker pool, present on a frontend with configured workers.
    pool: Option<Arc<WorkerPool>>,
    /// Live subscriptions; the `sub.active` gauge is set from this (a
    /// gauge cannot add atomically).
    subs_active: AtomicU64,
    /// The variant store, when [`ServeConfig::store`] is configured.
    store: Option<Arc<SourceStore>>,
    /// Accumulated access profiles since startup, by source name — the
    /// compactor's demand signal.
    profiles: Mutex<BTreeMap<String, AccessProfile>>,
    /// Compaction passes run; the only store counter with no metric.
    store_compactions: AtomicU64,
}

impl Shared {
    fn catalog_snapshot(&self) -> Catalog {
        self.catalog
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone()
    }

    fn version_lock(&self) -> std::sync::MutexGuard<'_, u64> {
        self.catalog_version
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn version(&self) -> u64 {
        *self.version_lock()
    }

    fn bump_version(&self) {
        *self.version_lock() += 1;
        self.catalog_grew.notify_all();
    }
}

/// The query service: holds the sources and configuration, then
/// [`start`](V2vServer::start)s the daemon.
pub struct V2vServer {
    catalog: Catalog,
    database: Database,
    config: ServeConfig,
}

impl V2vServer {
    /// A server over a catalog with default configuration.
    pub fn new(catalog: Catalog) -> V2vServer {
        V2vServer {
            catalog,
            database: Database::new(),
            config: ServeConfig::default(),
        }
    }

    /// Attaches a relational database for `sql:` locators.
    #[must_use]
    pub fn with_database(mut self, database: Database) -> V2vServer {
        self.database = database;
        self
    }

    /// Overrides the configuration.
    #[must_use]
    pub fn with_config(mut self, config: ServeConfig) -> V2vServer {
        self.config = config;
        self
    }

    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop on a background thread.
    pub fn start(self, addr: &str) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let gate = JobGate::new(self.config.max_concurrent, self.config.queue_depth);
        let pool = match (self.config.role, self.config.workers.is_empty()) {
            (ServeRole::Frontend, false) => Some(Arc::new(WorkerPool::new(&self.config.workers)?)),
            _ => None,
        };
        let registry = Registry::new();
        let metrics = Metrics::new(&registry);
        // Open the variant store and attach every valid variant before
        // the catalog becomes shared: startup recovery is just a
        // re-attach, and digest-mismatched variants are skipped.
        let mut catalog = self.catalog;
        let store = match &self.config.store {
            Some(cfg) => {
                let store = SourceStore::open(&cfg.root)
                    .map_err(|e| std::io::Error::other(e.to_string()))?;
                store
                    .attach(&mut catalog)
                    .map_err(|e| std::io::Error::other(e.to_string()))?;
                Some(Arc::new(store))
            }
            None => None,
        };
        let shared = Arc::new(Shared {
            catalog: RwLock::new(catalog),
            catalog_version: Mutex::new(0),
            catalog_grew: Condvar::new(),
            stopping: AtomicBool::new(false),
            database: self.database,
            config: self.config,
            gate,
            registry,
            metrics,
            inflight: InflightRegistry::new(),
            flight: Arc::new(FragmentFlight::new()),
            pool,
            subs_active: AtomicU64::new(0),
            store,
            profiles: Mutex::new(BTreeMap::new()),
            store_compactions: AtomicU64::new(0),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let accept_shared = Arc::clone(&shared);
        let accept_stop = Arc::clone(&stop);
        let join = std::thread::spawn(move || {
            accept_loop(&listener, &accept_shared, &accept_stop);
        });
        let compact_interval = shared
            .config
            .store
            .as_ref()
            .map(|c| c.compact_interval)
            .unwrap_or(Duration::ZERO);
        let compact_join = if shared.store.is_some() && compact_interval > Duration::ZERO {
            let compact_shared = Arc::clone(&shared);
            Some(std::thread::spawn(move || {
                store_svc::compaction_loop(&compact_shared, compact_interval);
            }))
        } else {
            None
        };
        Ok(ServerHandle {
            addr: local,
            stop,
            join: Some(join),
            compact_join,
            shared,
        })
    }
}

/// A running daemon. Dropping (or [`stop`](ServerHandle::stop)ping) the
/// handle shuts the accept loop down; in-flight connections finish on
/// their own threads.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
    compact_join: Option<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Completed / failed / rejected job counts so far.
    pub fn job_counts(&self) -> (u64, u64, u64) {
        let m = &self.shared.metrics;
        (
            m.jobs_done.get(),
            m.jobs_failed.get(),
            m.jobs_rejected.get(),
        )
    }

    /// Stops the accept loop and joins it. Subscription threads see the
    /// stop through `Shared::stopping` and close their streams.
    pub fn stop(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.stopping.store(true, Ordering::SeqCst);
        self.shared.catalog_grew.notify_all();
        // Unblock the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
        if let Some(join) = self.compact_join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, stop: &Arc<AtomicBool>) {
    loop {
        let conn = listener.accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok((stream, _)) = conn else { continue };
        let shared = Arc::clone(shared);
        std::thread::spawn(move || {
            handle_connection(stream, &shared);
        });
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = stream;
    let resp = match read_request(&mut reader) {
        Ok(req) => {
            // Subscriptions own their connection: the response body is
            // open-ended, so they bypass the one-shot write below.
            if req.method == "POST"
                && req.path == "/subscribe"
                && shared.config.role != ServeRole::Worker
            {
                shared.metrics.requests.inc();
                handle_subscribe(&req, reader, writer, shared);
                return;
            }
            route(&req, shared)
        }
        Err(e) => error_response(400, "invalid_request", &format!("bad request: {e}")),
    };
    let _ = write_response(&mut writer, &resp);
}

fn route(req: &Request, shared: &Shared) -> Response {
    shared.metrics.requests.inc();
    let worker = shared.config.role == ServeRole::Worker;
    match (req.method.as_str(), req.path.as_str()) {
        // The worker role is slim by contract: it renders segments for
        // coordinators, it does not accept top-level queries.
        ("POST", "/query") if !worker => handle_query(req, shared),
        ("POST", "/render-segment") => handle_render_segment(req, shared),
        ("POST", path) if path.strip_prefix("/append/").is_some() && !worker => {
            handle_append(path, req, shared)
        }
        ("POST", path) if path.strip_prefix("/append-data/").is_some() && !worker => {
            handle_append_data(path, req, shared)
        }
        ("GET", path) if path.strip_prefix("/fragment/").is_some() => handle_fragment(path, shared),
        ("GET", "/store") if !worker => store_svc::handle_store_ls(shared),
        ("POST", "/store/compact") if !worker => store_svc::handle_store_compact(shared),
        ("POST", path) if path.strip_prefix("/store/").is_some() && !worker => {
            store_svc::handle_store_admin(path, req, shared)
        }
        ("GET", "/status") => handle_status(shared),
        ("GET", "/metrics") => Response::json(200, &shared.registry.snapshot()),
        ("GET", _) | ("POST", _) => {
            error_response(404, "not_found", &format!("no route {}", req.path))
        }
        (m, _) => error_response(405, "invalid_request", &format!("method {m} not allowed")),
    }
}

/// `POST /append/<name>`: splices a sealed `.svc` of freshly-encoded
/// GOPs onto the named catalog video (or binds it fresh), then wakes
/// every subscription. The appended stream must continue the existing
/// grid — same codec parameters, first instant exactly one frame after
/// the current last — and must start at a keyframe, the same invariants
/// [`v2v_container::LiveWriter`] enforces on disk.
fn handle_append(path: &str, req: &Request, shared: &Shared) -> Response {
    let name = path.strip_prefix("/append/").unwrap_or_default();
    if name.is_empty() {
        return error_response(
            400,
            "invalid_request",
            "missing video name in /append/<name>",
        );
    }
    let new = match v2v_container::svc_from_bytes(&req.body) {
        Ok(s) => s,
        Err(e) => return error_response(422, "corrupt_data", &format!("append container: {e}")),
    };
    if new.is_empty() {
        return error_response(400, "invalid_request", "appended container holds no frames");
    }
    let mut catalog = shared
        .catalog
        .write()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let total = match catalog.video(name).cloned() {
        Some(existing) => {
            // `concat` restamps whatever it is given; the continuity
            // check is ours. An append stamped anywhere but one frame
            // past the current end is a client bug (replay, reorder),
            // not a growth event.
            let expected = existing.start()
                + existing.frame_dur() * v2v_time::Rational::from_int(existing.len() as i64);
            if new.start() != expected {
                return error_response(
                    422,
                    "corrupt_data",
                    &format!(
                        "append starts at {} but '{name}' continues at {expected}",
                        new.start()
                    ),
                );
            }
            let joined = match v2v_container::VideoStream::concat(&[existing.as_ref(), &new]) {
                Ok(j) => j,
                Err(e) => {
                    return error_response(
                        422,
                        "corrupt_data",
                        &format!("append does not continue '{name}': {e}"),
                    )
                }
            };
            let n = joined.len();
            catalog.add_video(name, joined);
            n
        }
        None => {
            let n = new.len();
            catalog.add_video(name, new);
            n
        }
    };
    drop(catalog);
    shared.metrics.sub_appends.inc();
    shared.bump_version();
    Response::json(
        200,
        &serde_json::json!({"video": name, "frames": total, "version": shared.version()}),
    )
}

/// `POST /append-data/<name>`: appends `[{"t": <sec|[n,d]>, "value":
/// ...}]` entries to the named detection array and wakes
/// subscriptions. Values use the annotation conventions
/// ([`v2v_data::Value::from_json`]).
fn handle_append_data(path: &str, req: &Request, shared: &Shared) -> Response {
    let name = path.strip_prefix("/append-data/").unwrap_or_default();
    if name.is_empty() {
        return error_response(
            400,
            "invalid_request",
            "missing array name in /append-data/<name>",
        );
    }
    let entries: Vec<serde_json::Value> = match serde_json::from_slice(&req.body) {
        Ok(e) => e,
        Err(e) => return error_response(400, "invalid_request", &format!("append-data body: {e}")),
    };
    let mut parsed = Vec::with_capacity(entries.len());
    for (i, entry) in entries.iter().enumerate() {
        let t = entry.get("t").and_then(parse_instant);
        let Some(t) = t else {
            return error_response(
                400,
                "invalid_request",
                &format!("entry {i}: 't' must be a number or [num, den]"),
            );
        };
        let Some(value) = entry.get("value") else {
            return error_response(
                400,
                "invalid_request",
                &format!("entry {i}: missing 'value'"),
            );
        };
        parsed.push((t, v2v_data::Value::from_json(value)));
    }
    let count = parsed.len();
    let mut catalog = shared
        .catalog
        .write()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let array = catalog.arrays_mut().entry(name.to_string()).or_default();
    for (t, v) in parsed {
        array.insert(t, v);
    }
    let total = array.len();
    drop(catalog);
    shared.metrics.sub_appends.inc();
    shared.bump_version();
    Response::json(
        200,
        &serde_json::json!({"array": name, "appended": count, "entries": total}),
    )
}

/// Reads a JSON instant: a number of seconds or an exact `[num, den]`.
fn parse_instant(v: &serde_json::Value) -> Option<v2v_time::Rational> {
    if let Some([n, d]) = v.as_array().map(Vec::as_slice) {
        return v2v_time::Rational::checked_new(n.as_i64()?, d.as_i64()?).ok();
    }
    v.as_i64().map(v2v_time::Rational::from_int)
}

/// A coordinator's request: render one keyed segment of the embedded
/// spec and return the fragment in wire framing.
#[derive(serde::Deserialize)]
struct RenderSegmentRequest {
    /// The full spec of the coordinator's query.
    spec: Spec,
    /// Index of the segment to render in the prepared physical plan.
    seg_index: usize,
    /// Expected fragment key (hex), cross-checked against the plan the
    /// worker derives — a mismatch means coordinator and worker do not
    /// agree on the plan and the dispatch must not be trusted.
    key: String,
}

fn handle_render_segment(req: &Request, shared: &Shared) -> Response {
    let parsed: RenderSegmentRequest = match serde_json::from_slice(&req.body) {
        Ok(p) => p,
        Err(e) => {
            return error_response(400, "invalid_request", &format!("bad render request: {e}"))
        }
    };
    let Ok(key) = u64::from_str_radix(&parsed.key, 16) else {
        return error_response(400, "invalid_request", "key is not a hex u64");
    };
    let mut prepared = match prepare_query(&parsed.spec, shared) {
        Ok(p) => p,
        Err(e) => return error_of(&e),
    };
    // The segment key is content-derived, so equality proves both sides
    // planned the same segment over the same sources.
    if prepared.run.segment_keys().get(parsed.seg_index).copied() != Some(Some(key)) {
        return error_response(
            422,
            "corrupt_data",
            &format!(
                "segment {} key mismatch: worker plan disagrees with coordinator",
                parsed.seg_index
            ),
        );
    }
    let Some((result, _)) = admitted(shared, || {
        prepared
            .engine
            .render_segment_fragment(&prepared.run, parsed.seg_index)
    }) else {
        return overload_response(shared);
    };
    match result {
        Ok((frag, stats)) => {
            shared.metrics.segments_rendered.inc();
            record_exec_metrics(&shared.metrics.exec, &stats);
            fragment_response(key, &frag)
        }
        Err(e) => error_of(&e.into()),
    }
}

/// Serves a cached fragment by key, in wire framing. Lets peers fetch
/// already-rendered segments without re-rendering; a miss is a plain
/// 404 (the caller renders or dispatches instead).
fn handle_fragment(path: &str, shared: &Shared) -> Response {
    let hex = path.strip_prefix("/fragment/").unwrap_or_default();
    let Ok(key) = u64::from_str_radix(hex, 16) else {
        return error_response(400, "invalid_request", "fragment key is not a hex u64");
    };
    let Some(cache) = shared.config.engine.render_cache.as_ref() else {
        return error_response(404, "not_found", "no render cache configured");
    };
    match cache.load_segment_tiered(key) {
        Some((frag, _tier)) => fragment_response(key, &frag),
        None => error_response(404, "not_found", &format!("no fragment {key:016x}")),
    }
}

/// A fragment in wire framing, as both fragment routes answer.
fn fragment_response(key: u64, frag: &v2v_container::Fragment) -> Response {
    match v2v_container::fragment_to_wire(key, frag) {
        Ok(bytes) => Response::new(200, "application/octet-stream", bytes),
        Err(e) => error_response(500, "internal", &format!("fragment encode: {e}")),
    }
}

/// `POST /subscribe`: registers a spec and pushes incremental results
/// over the long-lived connection.
///
/// Protocol: the body is spec JSON exactly as `POST /query` takes it.
/// On acceptance the response head carries
/// `content-type: application/x-v2v-delta` and **no** content-length;
/// the body is then a sequence of delta records (see [`sub`]) until
/// the client disconnects, the server stops, or a render fails.
///
/// Each refresh clamps the spec's time domain to the servable prefix
/// ([`v2v_spec::servable_domain`]) of a catalog snapshot, renders it
/// through the normal admission/sharing/cluster path (so unchanged
/// segments come out of the render cache), and pushes the suffix from
/// the output keyframe at-or-before the divergence. The cumulative
/// client-side stream after record `n` is byte-identical to a cold
/// `POST /query` of the same spec at the same source length.
fn handle_subscribe(
    req: &Request,
    mut reader: BufReader<TcpStream>,
    mut writer: TcpStream,
    shared: &Shared,
) {
    // Bind once up front so an unservable spec (missing file, bad SQL)
    // is a proper error response, not an empty stream.
    let spec = match parse_spec(&req.body).and_then(|s| bound_infos(&s, shared).map(|_| s)) {
        Ok(s) => s,
        Err(e) => {
            let _ = write_response(&mut writer, &error_of(&e));
            return;
        }
    };
    // Accepted: switch to the open-ended delta stream.
    if write!(
        writer,
        "HTTP/1.1 200 OK\r\ncontent-type: {}\r\nconnection: close\r\n\r\n",
        sub::DELTA_CONTENT_TYPE
    )
    .and_then(|()| writer.flush())
    .is_err()
    {
        return;
    }
    let before = shared.subs_active.fetch_add(1, Ordering::Relaxed);
    shared.metrics.sub_active.set(before + 1);
    subscription_loop(&spec, &mut reader, &mut writer, shared);
    let before = shared.subs_active.fetch_sub(1, Ordering::Relaxed);
    shared.metrics.sub_active.set(before - 1);
}

/// Binds `spec`'s sources over a catalog snapshot and returns the
/// source availability the servable-domain clamp consumes.
fn bound_infos(
    spec: &Spec,
    shared: &Shared,
) -> Result<std::collections::BTreeMap<String, v2v_spec::SourceInfo>, V2vError> {
    let mut engine =
        V2vEngine::new(shared.catalog_snapshot()).with_database(shared.database.clone());
    engine.bind(spec).map_err(V2vError::from)?;
    Ok(engine.catalog().source_infos())
}

/// The watcher/render/push cycle of one subscription.
fn subscription_loop(
    spec: &Spec,
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    shared: &Shared,
) {
    let mut cumulative: Option<v2v_container::VideoStream> = None;
    let mut last_domain: Option<v2v_time::TimeSet> = None;
    let mut seq = 0u64;
    loop {
        if shared.stopping.load(Ordering::SeqCst) {
            return;
        }
        let seen = shared.version();
        let infos = match bound_infos(spec, shared) {
            Ok(i) => i,
            Err(_) => return, // a source vanished mid-subscription
        };
        let clamped = v2v_spec::servable_domain(spec, &infos);
        let dirty =
            !clamped.is_empty() && last_domain.as_ref().map_or(true, |d| !d.set_eq(&clamped));
        if dirty {
            let mut clamped_spec = spec.clone();
            clamped_spec.time_domain = clamped.clone();
            let Ok(mut prepared) = prepare_query(&clamped_spec, shared) else {
                return;
            };
            let Some((result, _)) = admitted(shared, || prepared.engine.run_prepared(prepared.run))
            else {
                // Saturated: back off, leave last_domain unset so the
                // next cycle retries the same refresh.
                std::thread::sleep(Duration::from_secs(shared.config.retry_after_secs.max(1)));
                continue;
            };
            let Ok((report, _trace)) = result else {
                return; // render failure terminates the stream
            };
            shared.metrics.sub_renders.inc();
            record_exec_metrics(&shared.metrics.exec, &report.stats);
            if let Some((from, delta)) = sub::delta_between(cumulative.as_ref(), &report.output) {
                let svc = match v2v_container::svc_to_bytes(&delta) {
                    Ok(b) => b,
                    Err(_) => return,
                };
                let header = sub::DeltaHeader {
                    seq,
                    from_frame: from as u64,
                    frames: delta.len() as u64,
                    svc_len: svc.len() as u64,
                    version: seen,
                };
                if sub::write_delta(writer, &header, &svc).is_err() {
                    return; // client gone
                }
                seq += 1;
                shared.metrics.sub_deltas.inc();
                shared.metrics.sub_frames_pushed.add(delta.len() as u64);
            }
            cumulative = Some(report.output);
            last_domain = Some(clamped);
        }
        // Sleep until the catalog grows (or the server stops); poll the
        // client socket each interval so an abandoned subscription does
        // not linger forever.
        let mut v = shared.version_lock();
        while *v == seen {
            if shared.stopping.load(Ordering::SeqCst) {
                return;
            }
            let (guard, timed_out) = shared
                .catalog_grew
                .wait_timeout(v, Duration::from_millis(250))
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            v = guard;
            if timed_out.timed_out() {
                drop(v);
                if client_disconnected(reader) {
                    return;
                }
                v = shared.version_lock();
            }
        }
    }
}

/// `true` when the subscription's client has closed its end. Clients
/// send nothing after the request, so any `read` returning 0 is a
/// disconnect; a timeout means the peer is simply quiet.
fn client_disconnected(reader: &mut BufReader<TcpStream>) -> bool {
    let stream = reader.get_ref();
    if stream
        .set_read_timeout(Some(Duration::from_millis(1)))
        .is_err()
    {
        return true;
    }
    let mut probe = [0u8; 1];
    match reader.get_mut().read(&mut probe) {
        Ok(0) => true,
        Ok(_) => false, // stray bytes: tolerate
        Err(e) => !matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
    }
}

fn handle_status(shared: &Shared) -> Response {
    let (active, queued) = shared.gate.snapshot();
    let m = &shared.metrics;
    let cache = shared.config.engine.render_cache.as_ref().map(|c| {
        let mem = c.mem_tier().map(|m| {
            serde_json::json!({
                "entries": m.entries(),
                "bytes_held": m.bytes_held(),
                "budget_bytes": m.budget_bytes(),
                "hits": m.hits(),
                "promotions": m.promotions(),
                "evictions": m.evictions(),
            })
        });
        serde_json::json!({
            "entries": c.entries(),
            "bytes_held": c.bytes_held(),
            "budget_bytes": c.budget_bytes(),
            "evictions": c.evictions(),
            "mem": mem,
        })
    });
    Response::json(
        200,
        &serde_json::json!({
            "role": shared.config.role.name(),
            "active": active,
            "queued": queued,
            "max_concurrent": shared.config.max_concurrent,
            "queue_depth": shared.config.queue_depth,
            "jobs_done": m.jobs_done.get(),
            "jobs_failed": m.jobs_failed.get(),
            "jobs_rejected": m.jobs_rejected.get(),
            "queue_wait": {
                "count": m.queue_wait_ns.count(),
                "total_ns": m.queue_wait_ns.sum(),
                "max_ns": m.queue_wait_ns.max(),
            },
            "sharing": {
                "enabled": shared.config.work_sharing,
                "inflight": shared.inflight.inflight(),
                "waiting": shared.inflight.waiting(),
                "inflight_hits": shared.inflight.shared(),
                "segments_published": shared.flight.published(),
                "segment_hits": shared.flight.shared(),
            },
            "subscriptions": {
                "active": shared.subs_active.load(Ordering::Relaxed),
                "deltas": m.sub_deltas.get(),
                "frames_pushed": m.sub_frames_pushed.get(),
                "renders": m.sub_renders.get(),
                "appends": m.sub_appends.get(),
                "catalog_version": shared.version(),
            },
            "pool": shared.pool.as_ref().map(|p| p.status_json()),
            "cache": cache,
            "store": store_svc::status_block(shared),
        }),
    )
}

/// A parsed, planned query waiting to execute: the engine it was
/// prepared on (carrying the daemon's shared cache and fragment
/// flight) plus the prepared plan.
struct PreparedQuery {
    engine: V2vEngine,
    run: PreparedRun,
}

fn handle_query(req: &Request, shared: &Shared) -> Response {
    // Parse and plan before admission: planning is cheap next to
    // rendering, and the plan fingerprint is what lets an identical
    // in-flight render absorb this request without a slot.
    let prepared = match parse_spec(&req.body).and_then(|spec| prepare_query(&spec, shared)) {
        Ok(p) => p,
        Err(e) => {
            shared.metrics.jobs_failed.inc();
            return error_of(&e);
        }
    };
    if shared.config.work_sharing {
        if let Some(fp) = prepared.run.fingerprint() {
            return match shared.inflight.claim(fp) {
                Claim::Owner(guard) => run_admitted(shared, prepared, Some(guard)),
                Claim::Shared(outcome) => respond_follower(shared, &follower_outcome(outcome)),
            };
        }
    }
    run_admitted(shared, prepared, None)
}

/// The one admitted-render sequence, shared by `/query`,
/// `/render-segment` and subscription refreshes: takes an admission
/// slot (waiting in the bounded queue), runs `job`, and gives the slot
/// back, keeping `serve.queue_wait_ns`, the `serve.active_jobs` gauge
/// and `serve.job_wall_ns` in step. Returns the job's value and the
/// time it waited for admission, or `None` when the queue was full and
/// the job did not run.
fn admitted<T>(shared: &Shared, job: impl FnOnce() -> T) -> Option<(T, u64)> {
    let metrics = &shared.metrics;
    let waiting = Instant::now();
    if !shared.gate.enter() {
        return None;
    }
    let queue_wait_ns = waiting.elapsed().as_nanos() as u64;
    metrics.queue_wait_ns.record(queue_wait_ns);
    metrics.active_jobs.set(shared.gate.snapshot().0 as u64);
    let started = Instant::now();
    let out = job();
    shared.gate.leave();
    metrics.active_jobs.set(shared.gate.snapshot().0 as u64);
    metrics
        .job_wall_ns
        .record(started.elapsed().as_nanos() as u64);
    Some((out, queue_wait_ns))
}

/// Executes an admitted `/query` and (when leading a flight) publishes
/// the outcome — success, failure, or the 429 itself — to every
/// coalesced follower.
fn run_admitted(
    shared: &Shared,
    prepared: PreparedQuery,
    guard: Option<FlightGuard<'_, u64, QueryOutcome>>,
) -> Response {
    let Some((result, queue_wait_ns)) = admitted(shared, || execute_prepared(prepared)) else {
        if let Some(guard) = guard {
            guard.publish(Err(SharedError {
                status: 429,
                kind: "overloaded".into(),
                message: "admission queue full".into(),
            }));
        }
        return overload_response(shared);
    };
    match result {
        Ok((bytes, stats)) => {
            shared.metrics.jobs_done.inc();
            record_exec_metrics(&shared.metrics.exec, &stats);
            // The body is copied only for followers that still hold the
            // published one; a render nobody joined moves it.
            let body = match guard {
                Some(guard) => {
                    let bytes = Arc::new(bytes);
                    guard.publish(Ok((Arc::clone(&bytes), stats)));
                    Arc::try_unwrap(bytes).unwrap_or_else(|held| (*held).clone())
                }
                None => bytes,
            };
            Response::new(200, "application/octet-stream", body)
                .header("x-v2v-stats", stats_header(&stats, queue_wait_ns))
        }
        Err(e) => {
            shared.metrics.jobs_failed.inc();
            if let Some(guard) = guard {
                guard.publish(Err(SharedError {
                    status: status_for(e.kind()),
                    kind: e.kind().name().into(),
                    message: e.to_string(),
                }));
            }
            error_of(&e)
        }
    }
}

/// Answers a request from the outcome of the identical in-flight
/// render it coalesced into. The body is byte-for-byte the leader's;
/// the stats carry only the sharing markers (this request did no
/// work).
fn respond_follower(shared: &Shared, outcome: &QueryOutcome) -> Response {
    shared.metrics.inflight_hits.inc();
    match outcome {
        Ok((bytes, _)) => {
            shared.metrics.jobs_done.inc();
            let mut stats = ExecStats::default();
            stats.cache.inflight_hits = 1;
            stats.cache.bytes_reused = bytes.len() as u64;
            record_exec_metrics(&shared.metrics.exec, &stats);
            Response::new(200, "application/octet-stream", bytes.as_ref().clone())
                .header("x-v2v-stats", stats_header(&stats, 0))
        }
        Err(e) if e.status == 429 => overload_response(shared),
        Err(e) => {
            shared.metrics.jobs_failed.inc();
            error_response(e.status, &e.kind, &e.message)
        }
    }
}

/// Parses a request body as spec JSON.
fn parse_spec(body: &[u8]) -> Result<Spec, V2vError> {
    let text = std::str::from_utf8(body)
        .map_err(|e| V2vError::new(ErrorKind::InvalidRequest, format!("spec not UTF-8: {e}")))?;
    Spec::from_json(text)
        .map_err(|e| V2vError::new(ErrorKind::InvalidRequest, format!("bad spec: {e}")))
}

/// Plans one spec on a fresh engine over the shared sources (the
/// catalog clone is cheap: streams are `Arc`-backed). The engine is
/// wired to the daemon-wide fragment flight so its segments share with
/// every concurrent render.
fn prepare_query(spec: &Spec, shared: &Shared) -> Result<PreparedQuery, V2vError> {
    let mut config = shared.config.engine.clone();
    if shared.config.work_sharing {
        config.work_share = Some(Arc::clone(&shared.flight));
    }
    if let Some(pool) = &shared.pool {
        // Coordinator: keyed segments of this query may render on
        // workers. The spec rides along so each dispatch is
        // self-describing.
        if let Ok(value) = serde_json::to_value(spec) {
            config.remote = Some(Arc::new(PoolRemote::new(Arc::clone(pool), value)));
        }
    }
    let mut engine = V2vEngine::new(shared.catalog_snapshot())
        .with_database(shared.database.clone())
        .with_config(config);
    if let Some(store) = &shared.store {
        // Sources named by locator bind lazily into this query's
        // engine catalog, not the shared one — bind now (prepare's own
        // bind is an idempotent no-op after this) and attach whatever
        // variants the store holds for them. Attach failures degrade
        // to the original: variants are advisory, never load-bearing.
        engine.bind(spec)?;
        let _ = store.attach(engine.catalog_mut());
    }
    let run = engine.prepare(spec)?;
    if shared.store.is_some() {
        // Feed the compactor: classify this plan's source reads by
        // access shape (smart-cut / scan / preview).
        let profiles = profile_plan(run.plan(), &engine.catalog().plan_context());
        store_svc::record_profiles(shared, &profiles);
    }
    Ok(PreparedQuery { engine, run })
}

/// Executes a prepared query and serializes the result container.
fn execute_prepared(mut prepared: PreparedQuery) -> Result<(Vec<u8>, ExecStats), V2vError> {
    let (report, _trace) = prepared.engine.run_prepared(prepared.run)?;
    let bytes = v2v_container::svc_to_bytes(&report.output)?;
    Ok((bytes, report.stats))
}

/// The `x-v2v-stats` header value: the run's [`ExecStats`] JSON with
/// the admission wait injected alongside, so clients can split queue
/// time from render time.
fn stats_header(stats: &ExecStats, queue_wait_ns: u64) -> String {
    let mut value = serde_json::to_value(stats).unwrap_or_default();
    if let serde_json::Value::Object(map) = &mut value {
        map.insert("queue_wait_ns".into(), queue_wait_ns.into());
    }
    serde_json::to_string(&value).unwrap_or_default()
}

/// Mirrors one run's [`ExecStats`] into the server-lifetime registry
/// through the pre-resolved handles (no per-counter map lookups).
fn record_exec_metrics(exec: &ExecMetrics, stats: &ExecStats) {
    exec.frames_decoded.add(stats.frames_decoded);
    exec.frames_encoded.add(stats.frames_encoded);
    exec.bytes_decoded.add(stats.bytes_decoded);
    exec.packets_copied.add(stats.packets_copied);
    exec.result_hits.add(stats.cache.result_hits);
    exec.segment_hits.add(stats.cache.segment_hits);
    exec.evictions.add(stats.cache.evictions);
    exec.bytes_reused.add(stats.cache.bytes_reused);
    exec.inflight_hits.add(stats.cache.inflight_hits);
    exec.shared_segment_hits
        .add(stats.cache.shared_segment_hits);
    exec.mem_hits.add(stats.cache.mem_hits);
    exec.remote_segments.add(stats.cache.remote_segments);
}

/// Maps the error taxonomy onto HTTP status codes.
fn status_for(kind: ErrorKind) -> u16 {
    match kind {
        ErrorKind::InvalidRequest | ErrorKind::Plan => 400,
        ErrorKind::NotFound => 404,
        ErrorKind::CorruptData => 422,
        ErrorKind::Io | ErrorKind::Udf | ErrorKind::Internal => 500,
    }
}

/// The error response for a classified engine or request failure.
fn error_of(e: &V2vError) -> Response {
    error_response(status_for(e.kind()), e.kind().name(), &e.to_string())
}

fn error_response(status: u16, kind: &str, message: &str) -> Response {
    Response::json(
        status,
        &serde_json::json!({"error": {"kind": kind, "message": message}}),
    )
}

/// The structured body of a 429: the standard error object plus the
/// live queue picture, so a client can tell a transient spike from a
/// saturated daemon.
fn overload_body(queued: usize, queue_limit: usize, retry_after_secs: u64) -> serde_json::Value {
    serde_json::json!({"error": {
        "kind": "overloaded",
        "message": "admission queue full",
        "queue_depth": queued,
        "queue_limit": queue_limit,
        "retry_after_secs": retry_after_secs,
    }})
}

/// Books one rejected job and builds its 429.
fn overload_response(shared: &Shared) -> Response {
    shared.metrics.jobs_rejected.inc();
    let (_, queued) = shared.gate.snapshot();
    Response::json(
        429,
        &overload_body(
            queued,
            shared.config.queue_depth,
            shared.config.retry_after_secs,
        ),
    )
    .header("retry-after", shared.config.retry_after_secs.to_string())
}

/// Convenience: open (or create) a persistent render cache for a
/// serving config.
pub fn open_cache(
    dir: impl AsRef<std::path::Path>,
    budget_bytes: u64,
) -> std::io::Result<Arc<RenderCache>> {
    RenderCache::open(dir, budget_bytes).map(Arc::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use http::client;
    use v2v_codec::CodecParams;
    use v2v_container::{StreamWriter, VideoStream};
    use v2v_frame::{marker, Frame, FrameType};
    use v2v_spec::{builder::blur, OutputSettings, SpecBuilder};
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

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_video("a", marked_stream(120, 30));
        c
    }

    /// A blur over the first `secs` seconds of "a".
    fn blur_spec(secs: i64) -> Spec {
        let output = OutputSettings {
            frame_ty: FrameType::gray8(64, 32),
            frame_dur: r(1, 30),
            gop_size: 30,
            quantizer: 0,
        };
        SpecBuilder::new(output)
            .video("a", "a.svc")
            .append_filtered("a", r(0, 1), r(secs, 1), |e| blur(e, 1.0))
            .build()
    }

    fn spec_json() -> String {
        blur_spec(1).to_json()
    }

    #[test]
    fn serves_query_status_and_metrics() {
        let mut handle = V2vServer::new(catalog()).start("127.0.0.1:0").unwrap();
        let addr = handle.addr();

        let resp = client::post_query(addr, spec_json().as_bytes()).unwrap();
        assert_eq!(
            resp.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&resp.body)
        );
        let stream = v2v_container::svc_from_bytes(&resp.body).unwrap();
        assert_eq!(stream.len(), 30);
        let stats: ExecStats =
            serde_json::from_str(resp.header_value("x-v2v-stats").unwrap()).unwrap();
        assert_eq!(stats.frames_encoded, 30);

        // queue_wait is reported separately from render time.
        let header: serde_json::Value =
            serde_json::from_str(resp.header_value("x-v2v-stats").unwrap()).unwrap();
        assert!(header
            .get("queue_wait_ns")
            .and_then(|x| x.as_u64())
            .is_some());

        let status = client::request(addr, "GET", "/status", b"").unwrap();
        assert_eq!(status.status, 200);
        let v: serde_json::Value = serde_json::from_slice(&status.body).unwrap();
        assert_eq!(v.get("jobs_done").and_then(|x| x.as_u64()), Some(1));
        let wait = v.get("queue_wait").expect("queue_wait block");
        assert_eq!(wait.get("count").and_then(|x| x.as_u64()), Some(1));
        let sharing = v.get("sharing").expect("sharing block");
        assert_eq!(sharing.get("enabled").and_then(|x| x.as_bool()), Some(true));
        assert_eq!(sharing.get("inflight").and_then(|x| x.as_u64()), Some(0));

        let metrics = client::request(addr, "GET", "/metrics", b"").unwrap();
        let snap: v2v_obs::MetricsSnapshot = serde_json::from_slice(&metrics.body).unwrap();
        assert_eq!(snap.counter("serve.jobs_done"), 1);
        assert_eq!(snap.counter("exec.frames_encoded"), 30);

        handle.stop();
    }

    /// Regression: `serve.active_jobs` was set on admission only (an
    /// idle daemon read >= 1 for ever), and only `/query` kept the
    /// admission accounting at all.
    #[test]
    fn every_admitted_render_is_accounted_and_the_gauge_returns_to_zero() {
        use v2v_obs::MetricValue;
        let handle = V2vServer::new(catalog()).start("127.0.0.1:0").unwrap();
        let addr = handle.addr();
        assert_eq!(
            client::post_query(addr, spec_json().as_bytes())
                .unwrap()
                .status,
            200
        );

        let spec = Spec::from_json(&spec_json()).unwrap();
        let key = V2vEngine::new(catalog())
            .prepare(&spec)
            .unwrap()
            .segment_keys()[0]
            .unwrap();
        let body = serde_json::json!({"spec": spec, "seg_index": 0, "key": format!("{key:016x}")});
        let resp = client::request(addr, "POST", "/render-segment", body.to_string().as_bytes());
        assert_eq!(resp.unwrap().status, 200);

        // One refresh: the first delta is written after its render left
        // the gate.
        let mut stream =
            client::open_stream(addr, "POST", "/subscribe", spec_json().as_bytes()).unwrap();
        assert!(sub::read_delta(&mut stream.reader).unwrap().is_some());

        let metrics = client::request(addr, "GET", "/metrics", b"").unwrap();
        let snap: v2v_obs::MetricsSnapshot = serde_json::from_slice(&metrics.body).unwrap();
        let count = |name: &str| match snap.metrics.get(name) {
            Some(MetricValue::Histogram(h)) => h.count,
            other => panic!("{name}: {other:?}"),
        };
        assert_eq!(count("serve.job_wall_ns"), 3);
        assert_eq!(count("serve.queue_wait_ns"), 3);
        let Some(MetricValue::Gauge(active, high_water)) = snap.metrics.get("serve.active_jobs")
        else {
            panic!("no serve.active_jobs gauge");
        };
        assert_eq!((*active, *high_water), (0, 1));
    }

    /// Every object key under `v`, as sorted dotted paths.
    fn key_paths(v: &serde_json::Value) -> Vec<String> {
        fn walk(v: &serde_json::Value, prefix: &str, out: &mut Vec<String>) {
            for (k, child) in v.as_object().into_iter().flatten() {
                let path = format!("{prefix}{k}");
                walk(child, &format!("{path}."), out);
                out.push(path);
            }
        }
        let mut out = Vec::new();
        walk(v, "", &mut out);
        out.sort();
        out
    }

    #[test]
    fn observability_key_sets_are_pinned() {
        // Dashboards, the benchmark and the golden traces read these
        // names; a refactor of the counters behind them must not move
        // one. The lists were recorded from the parent of the PR that
        // deleted the daemon's shadow counters.
        let dir = store_tempdir("keys");
        let cache = RenderCache::open(&dir, 1 << 20)
            .unwrap()
            .with_mem_tier(1 << 20);
        let mut config = ServeConfig::default();
        config.engine.render_cache = Some(Arc::new(cache));
        let handle = V2vServer::new(catalog())
            .with_config(config)
            .start("127.0.0.1:0")
            .unwrap();
        let addr = handle.addr();
        let resp = client::post_query(addr, spec_json().as_bytes()).unwrap();
        assert_eq!(resp.status, 200);
        let get = |path: &str| -> serde_json::Value {
            serde_json::from_slice(&client::request(addr, "GET", path, b"").unwrap().body).unwrap()
        };
        let stats = serde_json::from_str(resp.header_value("x-v2v-stats").unwrap()).unwrap();
        let got = [
            key_paths(&get("/status")),
            key_paths(&get("/metrics")),
            key_paths(&stats),
        ];
        let want = [STATUS_KEYS, METRICS_KEYS, STATS_KEYS];
        for (got, want) in got.iter().zip(want) {
            assert_eq!(got, &want.split_whitespace().collect::<Vec<_>>());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    const STATUS_KEYS: &str = "\
        active cache cache.budget_bytes cache.bytes_held cache.entries cache.evictions \
        cache.mem cache.mem.budget_bytes cache.mem.bytes_held cache.mem.entries \
        cache.mem.evictions cache.mem.hits cache.mem.promotions jobs_done jobs_failed \
        jobs_rejected max_concurrent pool queue_depth queue_wait queue_wait.count \
        queue_wait.max_ns queue_wait.total_ns queued role sharing sharing.enabled \
        sharing.inflight sharing.inflight_hits sharing.segment_hits \
        sharing.segments_published sharing.waiting store subscriptions subscriptions.active \
        subscriptions.appends subscriptions.catalog_version subscriptions.deltas \
        subscriptions.frames_pushed subscriptions.renders";
    const METRICS_KEYS: &str = "\
        metrics metrics.exec.bytes_decoded metrics.exec.bytes_decoded.Counter \
        metrics.exec.cache.bytes_reused metrics.exec.cache.bytes_reused.Counter \
        metrics.exec.cache.evictions metrics.exec.cache.evictions.Counter \
        metrics.exec.cache.inflight_hits metrics.exec.cache.inflight_hits.Counter \
        metrics.exec.cache.mem_hits metrics.exec.cache.mem_hits.Counter \
        metrics.exec.cache.result_hits metrics.exec.cache.result_hits.Counter \
        metrics.exec.cache.segment_hits metrics.exec.cache.segment_hits.Counter \
        metrics.exec.cache.shared_segment_hits \
        metrics.exec.cache.shared_segment_hits.Counter metrics.exec.frames_decoded \
        metrics.exec.frames_decoded.Counter metrics.exec.frames_encoded \
        metrics.exec.frames_encoded.Counter metrics.exec.packets_copied \
        metrics.exec.packets_copied.Counter metrics.exec.remote.segments \
        metrics.exec.remote.segments.Counter metrics.serve.active_jobs \
        metrics.serve.active_jobs.Gauge metrics.serve.inflight_hits \
        metrics.serve.inflight_hits.Counter metrics.serve.job_wall_ns \
        metrics.serve.job_wall_ns.Histogram metrics.serve.job_wall_ns.Histogram.buckets \
        metrics.serve.job_wall_ns.Histogram.count metrics.serve.job_wall_ns.Histogram.max \
        metrics.serve.job_wall_ns.Histogram.sum metrics.serve.jobs_done \
        metrics.serve.jobs_done.Counter metrics.serve.jobs_failed \
        metrics.serve.jobs_failed.Counter metrics.serve.jobs_rejected \
        metrics.serve.jobs_rejected.Counter metrics.serve.queue_wait_ns \
        metrics.serve.queue_wait_ns.Histogram metrics.serve.queue_wait_ns.Histogram.buckets \
        metrics.serve.queue_wait_ns.Histogram.count \
        metrics.serve.queue_wait_ns.Histogram.max metrics.serve.queue_wait_ns.Histogram.sum \
        metrics.serve.requests metrics.serve.requests.Counter \
        metrics.serve.segments_rendered metrics.serve.segments_rendered.Counter \
        metrics.store.drops metrics.store.drops.Counter metrics.store.materializations \
        metrics.store.materializations.Counter metrics.store.reads.preview \
        metrics.store.reads.preview.Counter metrics.store.reads.scan \
        metrics.store.reads.scan.Counter metrics.store.reads.smart_cut \
        metrics.store.reads.smart_cut.Counter metrics.sub.active metrics.sub.active.Gauge \
        metrics.sub.appends metrics.sub.appends.Counter metrics.sub.deltas \
        metrics.sub.deltas.Counter metrics.sub.frames_pushed \
        metrics.sub.frames_pushed.Counter metrics.sub.renders metrics.sub.renders.Counter";
    const STATS_KEYS: &str = "\
        bytes_copied bytes_decoded bytes_encoded cache cache.bytes_reused cache.evictions \
        cache.inflight_hits cache.mem_hits cache.remote_segments cache.result_hits \
        cache.segment_hits cache.shared_segment_hits faults_injected frames_decoded \
        frames_encoded frames_substituted gop_cache_hits gop_cache_misses packets_copied \
        parts_skipped parts_substituted queue_wait_ns retries seeks segments splits steals";

    #[test]
    fn bad_spec_maps_to_400_and_unknown_route_to_404() {
        let handle = V2vServer::new(catalog()).start("127.0.0.1:0").unwrap();
        let addr = handle.addr();
        let resp = client::post_query(addr, b"{ not json").unwrap();
        assert_eq!(resp.status, 400);
        let v: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
        let kind = v
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(|k| k.as_str());
        assert_eq!(kind, Some("invalid_request"));
        let resp = client::request(addr, "GET", "/nope", b"").unwrap();
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn missing_video_maps_to_404() {
        let handle = V2vServer::new(Catalog::new()).start("127.0.0.1:0").unwrap();
        let resp = client::post_query(handle.addr(), spec_json().as_bytes()).unwrap();
        // The spec names "a.svc", which does not exist on disk.
        assert_eq!(resp.status, 404);
    }

    fn store_tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "v2v_serve_store_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn store_config(root: &std::path::Path) -> ServeConfig {
        ServeConfig {
            store: Some(StoreServeConfig::at(root)),
            ..Default::default()
        }
    }

    #[test]
    fn store_routes_materialize_list_drop_and_leave_bytes_identical() {
        // Ground truth: the same query on a storeless daemon.
        let plain = V2vServer::new(catalog()).start("127.0.0.1:0").unwrap();
        let baseline = client::post_query(plain.addr(), spec_json().as_bytes()).unwrap();
        assert_eq!(baseline.status, 200);

        let dir = store_tempdir("routes");
        let handle = V2vServer::new(catalog())
            .with_config(store_config(&dir))
            .start("127.0.0.1:0")
            .unwrap();
        let addr = handle.addr();

        let resp = client::request(addr, "POST", "/store/materialize/a/dense", b"").unwrap();
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let v: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(v.get("covered_frames").and_then(|x| x.as_u64()), Some(120));

        // The attached dense variant must not change a single output
        // byte — variant choice is physical, not logical.
        let with_variant = client::post_query(addr, spec_json().as_bytes()).unwrap();
        assert_eq!(with_variant.status, 200);
        assert_eq!(with_variant.body, baseline.body);

        let ls = client::request(addr, "GET", "/store", b"").unwrap();
        assert_eq!(ls.status, 200);
        let v: serde_json::Value = serde_json::from_slice(&ls.body).unwrap();
        let attached = v.get("attached").expect("attached block");
        assert!(
            attached.get("a").is_some(),
            "dense variant should be attached: {v}"
        );
        assert!(v.get("managed_bytes").and_then(|x| x.as_u64()).unwrap_or(0) > 0);

        // The status page carries the same block.
        let status = client::request(addr, "GET", "/status", b"").unwrap();
        let v: serde_json::Value = serde_json::from_slice(&status.body).unwrap();
        let store = v.get("store").expect("store block");
        assert_eq!(
            store.get("materializations").and_then(|x| x.as_u64()),
            Some(1)
        );

        // Pin, then drop (admin drop is forced and removes even pinned).
        let pin =
            client::request(addr, "POST", "/store/pin/a/dense", b"{\"pinned\":true}").unwrap();
        assert_eq!(pin.status, 200);
        let drop = client::request(addr, "POST", "/store/drop/a/dense", b"").unwrap();
        assert_eq!(drop.status, 200);
        let v: serde_json::Value = serde_json::from_slice(&drop.body).unwrap();
        assert_eq!(v.get("dropped").and_then(|x| x.as_bool()), Some(true));

        // Unknown source and bad kind map to 404.
        let resp = client::request(addr, "POST", "/store/materialize/nope/dense", b"").unwrap();
        assert_eq!(resp.status, 404);
        let resp = client::request(addr, "POST", "/store/materialize/a/bogus", b"").unwrap();
        assert_eq!(resp.status, 404);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn storeless_daemon_404s_store_routes() {
        let handle = V2vServer::new(catalog()).start("127.0.0.1:0").unwrap();
        let resp = client::request(handle.addr(), "GET", "/store", b"").unwrap();
        assert_eq!(resp.status, 404);
        let resp = client::request(handle.addr(), "POST", "/store/compact", b"").unwrap();
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn compaction_drops_unwanted_variants_and_restart_reattaches_held_ones() {
        let dir = store_tempdir("compact");
        {
            let handle = V2vServer::new(catalog())
                .with_config(store_config(&dir))
                .start("127.0.0.1:0")
                .unwrap();
            let addr = handle.addr();
            let resp = client::request(addr, "POST", "/store/materialize/a/dense", b"").unwrap();
            assert_eq!(resp.status, 200);
            let resp = client::request(addr, "POST", "/store/materialize/a/archive", b"").unwrap();
            assert_eq!(resp.status, 200);
            // Pin archive so it survives the pass; dense has no demand
            // behind it (no queries ran) and must be dropped.
            let resp = client::request(addr, "POST", "/store/pin/a/archive", b"").unwrap();
            assert_eq!(resp.status, 200);
            let resp = client::request(addr, "POST", "/store/compact", b"").unwrap();
            assert_eq!(resp.status, 200);
            let v: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
            let actions = v.get("actions").and_then(|a| a.as_array()).unwrap();
            assert!(
                actions.iter().any(|a| {
                    a.get("kind").and_then(|k| k.as_str()) == Some("dense")
                        && a.get("op").and_then(|o| o.as_str()) == Some("drop")
                }),
                "idle dense variant should be compacted away: {v}"
            );
            assert!(
                !actions
                    .iter()
                    .any(|a| a.get("kind").and_then(|k| k.as_str()) == Some("archive")),
                "pinned archive must survive: {v}"
            );
        }
        // A fresh daemon over the same root recovers the surviving
        // variant at startup.
        let handle = V2vServer::new(catalog())
            .with_config(store_config(&dir))
            .start("127.0.0.1:0")
            .unwrap();
        let ls = client::request(handle.addr(), "GET", "/store", b"").unwrap();
        let v: serde_json::Value = serde_json::from_slice(&ls.body).unwrap();
        let kinds = v
            .get("attached")
            .and_then(|a| a.get("a"))
            .and_then(|k| k.as_array())
            .cloned()
            .unwrap_or_default();
        assert_eq!(kinds.len(), 1, "{v}");
        assert_eq!(kinds[0].as_str(), Some("archive"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn queries_feed_access_profiles() {
        let dir = store_tempdir("profiles");
        let handle = V2vServer::new(catalog())
            .with_config(store_config(&dir))
            .start("127.0.0.1:0")
            .unwrap();
        let addr = handle.addr();
        let resp = client::post_query(addr, spec_json().as_bytes()).unwrap();
        assert_eq!(resp.status, 200);
        let ls = client::request(addr, "GET", "/store", b"").unwrap();
        let v: serde_json::Value = serde_json::from_slice(&ls.body).unwrap();
        let profile = v
            .get("profiles")
            .and_then(|p| p.get("a"))
            .cloned()
            .unwrap_or_default();
        let total = profile
            .get("smart_cut")
            .and_then(|x| x.as_u64())
            .unwrap_or(0)
            + profile.get("scan").and_then(|x| x.as_u64()).unwrap_or(0)
            + profile.get("preview").and_then(|x| x.as_u64()).unwrap_or(0);
        assert!(total > 0, "query should classify reads: {v}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn full_queue_rejects_with_retry_after() {
        // max_concurrent 1 and queue 0: while one render holds the
        // slot, a second is rejected outright. The first request is a
        // long render; the probe races it, so retry until we observe
        // the 429 (or the first finishes and both succeed — then force
        // the gate directly).
        let gate = JobGate::new(1, 0);
        assert!(gate.enter());
        assert!(!gate.enter(), "queue of 0 must reject while busy");
        gate.leave();
        assert!(gate.enter());
        gate.leave();

        // And over HTTP: hold the gate by saturating it with a real
        // request from another thread is racy, so instead check the
        // response shape with queue_depth 0 and max_concurrent forced
        // through config on a contrived busy server.
        let config = ServeConfig {
            max_concurrent: 1,
            queue_depth: 0,
            // Identical specs would coalesce instead of contending;
            // this test is about the admission gate, so share nothing.
            work_sharing: false,
            ..Default::default()
        };
        let handle = V2vServer::new(catalog())
            .with_config(config)
            .start("127.0.0.1:0")
            .unwrap();
        let addr = handle.addr();
        // Saturate from background threads; at least one response of
        // the burst should be a 429 unless renders finish instantly —
        // accept either, but verify 429s carry the full header + body
        // contract when seen.
        let mut saw_429 = false;
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let spec = spec_json();
                std::thread::spawn(move || client::post_query(addr, spec.as_bytes()).unwrap())
            })
            .collect();
        for h in handles {
            let resp = h.join().unwrap();
            if resp.status == 429 {
                saw_429 = true;
                assert_eq!(resp.header_value("retry-after"), Some("1"));
                let v: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
                let err = v.get("error").expect("error object");
                assert_eq!(err.get("kind").and_then(|k| k.as_str()), Some("overloaded"));
                assert_eq!(err.get("queue_depth").and_then(|x| x.as_u64()), Some(0));
                assert_eq!(err.get("queue_limit").and_then(|x| x.as_u64()), Some(0));
                assert_eq!(
                    err.get("retry_after_secs").and_then(|x| x.as_u64()),
                    Some(1)
                );
            } else {
                assert_eq!(resp.status, 200);
            }
        }
        // Not asserting saw_429: timing-dependent. But the counter and
        // the responses must agree.
        let (_done, _failed, rejected) = handle.job_counts();
        assert_eq!(saw_429, rejected > 0);
    }

    #[test]
    fn queued_requests_complete_in_fifo_order_eventually() {
        let config = ServeConfig {
            max_concurrent: 1,
            queue_depth: 16,
            ..Default::default()
        };
        let handle = V2vServer::new(catalog())
            .with_config(config)
            .start("127.0.0.1:0")
            .unwrap();
        let addr = handle.addr();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let spec = spec_json();
                std::thread::spawn(move || client::post_query(addr, spec.as_bytes()).unwrap())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap().status, 200);
        }
        let (done, failed, rejected) = handle.job_counts();
        assert_eq!((done, failed, rejected), (4, 0, 0));
    }

    #[test]
    fn overload_body_reports_queue_state() {
        let body = overload_body(3, 16, 2);
        let err = body.get("error").unwrap();
        assert_eq!(err.get("kind").and_then(|k| k.as_str()), Some("overloaded"));
        assert_eq!(err.get("queue_depth").and_then(|x| x.as_u64()), Some(3));
        assert_eq!(err.get("queue_limit").and_then(|x| x.as_u64()), Some(16));
        assert_eq!(
            err.get("retry_after_secs").and_then(|x| x.as_u64()),
            Some(2)
        );
        assert!(err.get("message").is_some());
    }

    #[test]
    fn identical_concurrent_requests_return_identical_bytes() {
        // Whether a request leads, coalesces, or lands after the flight
        // drained, every response must carry the same container bytes
        // and count as a completed job.
        let config = ServeConfig {
            max_concurrent: 1,
            ..Default::default()
        };
        let handle = V2vServer::new(catalog())
            .with_config(config)
            .start("127.0.0.1:0")
            .unwrap();
        let addr = handle.addr();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let spec = spec_json();
                std::thread::spawn(move || client::post_query(addr, spec.as_bytes()).unwrap())
            })
            .collect();
        let mut bodies = Vec::new();
        let mut coalesced = 0u64;
        for h in handles {
            let resp = h.join().unwrap();
            assert_eq!(resp.status, 200);
            let header: serde_json::Value =
                serde_json::from_str(resp.header_value("x-v2v-stats").unwrap()).unwrap();
            coalesced += header
                .get("cache")
                .and_then(|c| c.get("inflight_hits"))
                .and_then(|x| x.as_u64())
                .unwrap_or(0);
            bodies.push(resp.body);
        }
        assert!(bodies.windows(2).all(|w| w[0] == w[1]));
        let (done, failed, rejected) = handle.job_counts();
        assert_eq!((done, failed, rejected), (4, 0, 0));
        // Coalesced responses (if the race produced any) are mirrored
        // in the status sharing block.
        let status = client::request(addr, "GET", "/status", b"").unwrap();
        let v: serde_json::Value = serde_json::from_slice(&status.body).unwrap();
        assert_eq!(
            v.get("sharing")
                .and_then(|s| s.get("inflight_hits"))
                .and_then(|x| x.as_u64()),
            Some(coalesced)
        );
    }
    #[test]
    fn append_extends_the_source_identity_instead_of_recomputing_it() {
        let whole = marked_stream(150, 30);
        let cut = |from: usize, to: usize| {
            let at = whole.pts_of(from).unwrap();
            let packets = whole.copy_packet_range(from, to, at).unwrap();
            VideoStream::new(*whole.params(), at, whole.frame_dur(), packets).unwrap()
        };
        let mut live = Catalog::new();
        live.add_video("a", cut(0, 120));
        let live = V2vServer::new(live).start("127.0.0.1:0").unwrap();
        let source = |h: &ServerHandle| h.shared.catalog_snapshot().video("a").unwrap().clone();

        // The first request pays the source's digest, once for every
        // snapshot the daemon will ever hand a per-request engine.
        let before = prepare_query(&blur_spec(4), &live.shared).unwrap().run;
        let head = source(&live);
        assert!(head.digests_known());

        let tail = v2v_container::svc_to_bytes(&cut(120, 150)).unwrap();
        let ack = client::request(live.addr(), "POST", "/append/a", &tail).unwrap();
        assert_eq!(ack.status, 200, "{}", String::from_utf8_lossy(&ack.body));
        let grown = source(&live);
        assert_eq!(grown.len(), 150);
        assert!(
            !grown.digests_known(),
            "the append digests nothing under the catalog write lock"
        );

        // Every segment of the old query is clean: same keys, same
        // fingerprint, and the grown index extends the old one.
        let after = prepare_query(&blur_spec(4), &live.shared).unwrap().run;
        assert_eq!(after.fingerprint(), before.fingerprint());
        assert_eq!(after.segment_keys(), before.segment_keys());
        let (old, new) = (head.digest_index(), grown.digest_index());
        assert_eq!(new[..old.len()], old[..]);

        // And a query into the appended second is keyed exactly as on a
        // daemon that was started over the whole source.
        let mut fresh = Catalog::new();
        fresh.add_video("a", whole);
        let fresh = V2vServer::new(fresh).start("127.0.0.1:0").unwrap();
        let on_live = prepare_query(&blur_spec(5), &live.shared).unwrap().run;
        let on_fresh = prepare_query(&blur_spec(5), &fresh.shared).unwrap().run;
        assert!(on_live.fingerprint().is_some());
        assert_eq!(on_live.fingerprint(), on_fresh.fingerprint());
        assert_eq!(on_live.segment_keys(), on_fresh.segment_keys());
        assert_eq!(source(&fresh).digest_index(), new);
    }
}
