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
//! * **segment reuse across queries** — identical or *overlapping*
//!   queries share their keyed segments through the render cache: a
//!   render is stored before its run gives its admission slot back, so
//!   a query admitted later splices it, and a byte-budgeted in-memory
//!   fragment tier ([`MemTier`](v2v_exec::MemTier)) answers hot repeats
//!   without touching disk (`mem_hits`). Concurrent misses of one key
//!   each render it, with identical bytes, at most `max_concurrent` at
//!   once. A result is its segments: each run splices its own stream
//!   copies around them;
//! * **a shared persistent render cache** — all workers share one
//!   [`RenderCache`](v2v_exec::RenderCache), so a repeated query splices all its
//!   cached segments (zero decode) and an overlapping query
//!   reuses every segment it shares with earlier ones (see
//!   `v2v_plan::fingerprint` for key derivation);
//! * **observability** — `GET /metrics` serves a
//!   [`MetricsSnapshot`](v2v_obs::MetricsSnapshot) aggregated across
//!   requests, `GET /status` the live admission, subscription and
//!   cache picture.
//!
//! Routes:
//!
//! | route | body | response |
//! |---|---|---|
//! | `POST /query` | spec JSON | `.svc` container bytes; `x-v2v-stats` header carries the run's [`ExecStats`] JSON |
//! | `POST /subscribe` | spec JSON | long-lived stream of delta records (see [`sub`]) |
//! | `POST /append/<name>` | sealed `.svc` of new GOPs | extends the named catalog video — pre-registered, appended, or bound by locator — or creates it |
//! | `POST /append-data/<name>` | `[{"t": ..., "value": ...}]` | appends entries to the named data array |
//! | `GET /status` | — | admission + cache state JSON (plus a `store` block when a variant store is configured) |
//! | `GET /metrics` | — | metrics snapshot JSON |
//! | `GET /store` | — | variant manifests + observed access profiles (see [`store_svc`]) |
//! | `POST /store/materialize/<name>/<kind>` | — | transcode + attach one variant now |
//! | `POST /store/drop/<name>/<kind>` | — | drop one variant |
//! | `POST /store/pin/<name>/<kind>` | `{"pinned": bool}` | pin/unpin against compaction |
//! | `POST /store/compact` | — | run one compaction pass now |
//!
//! **Binding.** The shared catalog is the one owner of what a video
//! name means. Before planning, every `/query`, `/render-segment`,
//! `/subscribe` and subscription refresh binds each video its spec
//! names that the catalog lacks: the locator is read once, outside any
//! lock, and inserted (with the name's stored variants) only if the
//! name is still absent. A name binds once per daemon, as on one
//! long-lived [`V2vEngine`] (names already bound win), stays resident,
//! and from then on grows only through `/append`. A spec naming a
//! locator-bound video by another locator is refused with 400
//! `invalid_request`; pre-registered and appended names ignore the
//! spec's locator. Data arrays stay per request: a `sql:` array is
//! windowed to the spec.
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
//! the next request hashes the appended GOPs only. A data array's entry
//! digests are shared the same way, and `/append-data` past its last
//! instant hashes the appended entries only.
//!
//! Query errors map the [`ErrorKind`] taxonomy onto status codes:
//! `invalid_request`/`plan` → 400, `not_found` → 404, `corrupt_data` →
//! 422, everything else → 500; the body is a structured
//! `{"error": {kind, message}}` object. 429 rejections additionally
//! carry the live queue picture (`queue_depth`, `queue_limit`,
//! `retry_after_secs`) in the error body.

mod append;
pub mod cluster;
pub mod http;
pub mod store_svc;
pub mod sub;

use cluster::{PoolRemote, WorkerPool};
use http::{read_request, write_response, DeadlineStream, Request, Response};
use std::collections::BTreeMap;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use v2v_core::{EngineConfig, ErrorKind, PreparedRun, V2vEngine, V2vError};
use v2v_data::Database;
use v2v_exec::{Catalog, ExecStats};
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
    /// `GET /status`, and `GET /metrics`.
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

/// Locks `mutex`, recovering the guard if a panicking holder poisoned
/// it: every value the daemon keeps under a mutex stays consistent
/// between statements.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Seconds a 429 asks the client to wait (`retry-after` header and
/// body), and a saturated subscription's back-off before it retries.
const RETRY_AFTER_SECS: u64 = 1;

/// Wall-clock budget for reading one request's head and body. A client
/// that has not sent its whole request by then gets a 408 and is
/// closed, so a stalled peer cannot hold a handler thread for ever.
const REQUEST_READ_DEADLINE: Duration = Duration::from_secs(10);

/// Serving configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Renders admitted simultaneously (minimum 1).
    pub max_concurrent: usize,
    /// Requests allowed to wait for admission beyond the running ones;
    /// requests past the queue are rejected with 429.
    pub queue_depth: usize,
    /// No effect (nothing in the daemon reads it); kept only because the
    /// repo benchmark reads it; remove with ROADMAP direction 3 step 0.
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
    /// to the catalog at startup and to each name as it binds, profiles
    /// each prepared query, and compacts variants under the byte budget
    /// (see [`store_svc`]).
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
            work_sharing: true,
            role: ServeRole::Frontend,
            workers: Vec::new(),
            engine: EngineConfig::default(),
            store: None,
        }
    }
}

/// Admission gate: a counting semaphore with a bounded wait queue. It
/// owns the `serve.active_jobs` gauge, which it sets on every entry and
/// release.
struct JobGate {
    max: usize,
    depth: usize,
    state: Mutex<GateState>,
    freed: Condvar,
    active_jobs: Arc<Gauge>,
}

#[derive(Default)]
struct GateState {
    active: usize,
    queued: usize,
}

/// An admission slot, given back when dropped — also when the job
/// holding it panics, so a failed render cannot leak its slot.
struct Slot<'a>(&'a JobGate);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let gate = self.0;
        let mut st = lock(&gate.state);
        st.active = st.active.saturating_sub(1);
        gate.active_jobs.set(st.active as u64);
        drop(st);
        gate.freed.notify_one();
    }
}

impl JobGate {
    fn new(max: usize, depth: usize, active_jobs: Arc<Gauge>) -> JobGate {
        JobGate {
            max: max.max(1),
            depth,
            state: Mutex::new(GateState::default()),
            freed: Condvar::new(),
            active_jobs,
        }
    }

    /// Blocks until admitted; `None` means the queue was full and the
    /// request must be rejected.
    fn enter(&self) -> Option<Slot<'_>> {
        let mut st = lock(&self.state);
        if st.active >= self.max {
            if st.queued >= self.depth {
                return None;
            }
            st.queued += 1;
            while st.active >= self.max {
                st = self
                    .freed
                    .wait(st)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
            st.queued -= 1;
        }
        st.active += 1;
        self.active_jobs.set(st.active as u64);
        Some(Slot(self))
    }

    fn snapshot(&self) -> (usize, usize) {
        let st = lock(&self.state);
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
    segments_rendered: Arc<Counter>,
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
    /// The `exec.*` counters mirrored from each run's stats, in
    /// [`ExecStats::counters`] order.
    exec: Vec<Arc<Counter>>,
}

impl Metrics {
    fn new(registry: &Registry) -> Metrics {
        Metrics {
            requests: registry.counter("serve.requests"),
            jobs_done: registry.counter("serve.jobs_done"),
            jobs_failed: registry.counter("serve.jobs_failed"),
            jobs_rejected: registry.counter("serve.jobs_rejected"),
            segments_rendered: registry.counter("serve.segments_rendered"),
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
            exec: ExecStats::default()
                .counters()
                .iter()
                .map(|&(name, _)| registry.counter(name))
                .collect(),
        }
    }
}

/// State shared by the accept loop and every connection thread.
struct Shared {
    /// The live source catalog, the one owner of what a video name
    /// means: requests bind names it lacks into it (see
    /// [`bind_videos`]), `POST /append*` routes take the write lock for
    /// the duration of one splice, and queries clone a snapshot under
    /// the read lock (cheap: streams and data arrays are `Arc`-backed).
    catalog: RwLock<Catalog>,
    /// The locator each locator-bound video was read from. Inserted
    /// under the catalog write lock together with the stream, so no
    /// request sees a locator-bound name without its locator.
    locators: Mutex<BTreeMap<String, String>>,
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
    /// [`REQUEST_READ_DEADLINE`], unless a test shortened it.
    read_deadline: Duration,
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
    fn catalog_read(&self) -> RwLockReadGuard<'_, Catalog> {
        self.catalog
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn catalog_write(&self) -> RwLockWriteGuard<'_, Catalog> {
        self.catalog
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn version(&self) -> u64 {
        *lock(&self.catalog_version)
    }

    fn bump_version(&self) {
        *lock(&self.catalog_version) += 1;
        self.catalog_grew.notify_all();
    }
}

/// The query service: holds the sources and configuration, then
/// [`start`](V2vServer::start)s the daemon.
pub struct V2vServer {
    catalog: Catalog,
    database: Database,
    config: ServeConfig,
    read_deadline: Duration,
}

impl V2vServer {
    /// A server over a catalog with default configuration.
    pub fn new(catalog: Catalog) -> V2vServer {
        V2vServer {
            catalog,
            database: Database::new(),
            config: ServeConfig::default(),
            read_deadline: REQUEST_READ_DEADLINE,
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

    /// Shortens the request read deadline, so a test need not wait
    /// [`REQUEST_READ_DEADLINE`] out.
    #[cfg(test)]
    pub(crate) fn with_read_deadline(mut self, deadline: Duration) -> V2vServer {
        self.read_deadline = deadline;
        self
    }

    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop on a background thread.
    pub fn start(self, addr: &str) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let pool = match (self.config.role, self.config.workers.is_empty()) {
            (ServeRole::Frontend, false) => Some(Arc::new(WorkerPool::new(&self.config.workers)?)),
            _ => None,
        };
        let registry = Registry::new();
        let metrics = Metrics::new(&registry);
        let gate = JobGate::new(
            self.config.max_concurrent,
            self.config.queue_depth,
            registry.gauge("serve.active_jobs"),
        );
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
            locators: Mutex::new(BTreeMap::new()),
            catalog_version: Mutex::new(0),
            catalog_grew: Condvar::new(),
            stopping: AtomicBool::new(false),
            database: self.database,
            config: self.config,
            gate,
            registry,
            metrics,
            read_deadline: self.read_deadline,
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
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    // The head and the body are read under one wall-clock deadline.
    let deadline = Instant::now() + shared.read_deadline;
    let mut reader = BufReader::new(DeadlineStream::new(read_half, deadline));
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
                handle_subscribe(&req, writer, shared);
                return;
            }
            route(&req, shared)
        }
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
            ) =>
        {
            let message = format!(
                "request not received within {} ms",
                shared.read_deadline.as_millis()
            );
            error_response(408, "invalid_request", &message)
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
            append::handle_append(path, req, shared)
        }
        ("POST", path) if path.strip_prefix("/append-data/").is_some() && !worker => {
            append::handle_append_data(path, req, shared)
        }
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
            match v2v_container::fragment_to_wire(key, &frag) {
                Ok(bytes) => Response::new(200, "application/octet-stream", bytes),
                Err(e) => error_response(500, "internal", &format!("fragment encode: {e}")),
            }
        }
        Err(e) => error_of(&e.into()),
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
fn handle_subscribe(req: &Request, mut writer: TcpStream, shared: &Shared) {
    // Bind once up front, through the engine a query gets, so an
    // unservable spec (missing file, bad SQL) is a proper error
    // response, not an empty stream.
    let spec = match parse_spec(&req.body).and_then(|s| {
        request_engine(&s, shared)?.bind(&s)?;
        Ok(s)
    }) {
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
    subscription_loop(&spec, &mut writer, shared);
    let before = shared.subs_active.fetch_sub(1, Ordering::Relaxed);
    shared.metrics.sub_active.set(before - 1);
}

/// The watcher/render/push cycle of one subscription.
fn subscription_loop(spec: &Spec, writer: &mut TcpStream, shared: &Shared) {
    let mut cumulative: Option<v2v_container::VideoStream> = None;
    let mut last_domain: Option<v2v_time::TimeSet> = None;
    let mut seq = 0u64;
    loop {
        if shared.stopping.load(Ordering::SeqCst) {
            return;
        }
        let seen = shared.version();
        // Every video the spec names was bound up front, and bound
        // names stay, so the shared catalog answers the clamp.
        let clamped = v2v_spec::servable_domain(spec, &shared.catalog_read().source_infos());
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
                std::thread::sleep(Duration::from_secs(RETRY_AFTER_SECS));
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
        let mut v = lock(&shared.catalog_version);
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
                if client_disconnected(writer) {
                    return;
                }
                v = lock(&shared.catalog_version);
            }
        }
    }
}

/// `true` when the subscription's client has closed its end. Clients
/// send nothing after the request, so any `read` returning 0 is a
/// disconnect; a timeout means the peer is simply quiet.
fn client_disconnected(mut stream: &TcpStream) -> bool {
    if stream
        .set_read_timeout(Some(Duration::from_millis(1)))
        .is_err()
    {
        return true;
    }
    let mut probe = [0u8; 1];
    match stream.read(&mut probe) {
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
/// prepared on (carrying the daemon's shared cache) plus the prepared
/// plan.
struct PreparedQuery {
    engine: V2vEngine,
    run: PreparedRun,
}

fn handle_query(req: &Request, shared: &Shared) -> Response {
    // Parse and plan before admission, so a bad spec never takes a slot.
    let prepared = match parse_spec(&req.body).and_then(|spec| prepare_query(&spec, shared)) {
        Ok(p) => p,
        Err(e) => {
            shared.metrics.jobs_failed.inc();
            return error_of(&e);
        }
    };
    let Some((result, queue_wait_ns)) = admitted(shared, || execute_prepared(prepared)) else {
        return overload_response(shared);
    };
    match result {
        Ok((bytes, stats)) => {
            shared.metrics.jobs_done.inc();
            record_exec_metrics(&shared.metrics.exec, &stats);
            Response::new(200, "application/octet-stream", bytes)
                .header("x-v2v-stats", stats_header(&stats, queue_wait_ns))
        }
        Err(e) => {
            shared.metrics.jobs_failed.inc();
            error_of(&e)
        }
    }
}

/// The one admitted-render sequence, shared by `/query`,
/// `/render-segment` and subscription refreshes: takes an admission
/// slot (waiting in the bounded queue), runs `job`, and gives the slot
/// back, keeping `serve.queue_wait_ns`, the gate's `serve.active_jobs`
/// gauge and `serve.job_wall_ns` in step. Returns the job's value and the
/// time it waited for admission, or `None` when the queue was full and
/// the job did not run.
fn admitted<T>(shared: &Shared, job: impl FnOnce() -> T) -> Option<(T, u64)> {
    let metrics = &shared.metrics;
    let waiting = Instant::now();
    let slot = shared.gate.enter()?;
    let queue_wait_ns = waiting.elapsed().as_nanos() as u64;
    metrics.queue_wait_ns.record(queue_wait_ns);
    let started = Instant::now();
    let out = job();
    drop(slot);
    metrics
        .job_wall_ns
        .record(started.elapsed().as_nanos() as u64);
    Some((out, queue_wait_ns))
}

/// Parses a request body as spec JSON.
fn parse_spec(body: &[u8]) -> Result<Spec, V2vError> {
    let text = std::str::from_utf8(body)
        .map_err(|e| V2vError::new(ErrorKind::InvalidRequest, format!("spec not UTF-8: {e}")))?;
    Spec::from_json(text)
        .map_err(|e| V2vError::new(ErrorKind::InvalidRequest, format!("bad spec: {e}")))
}

/// Binds every video `spec` names that the shared catalog lacks, once
/// per daemon, exactly as on one long-lived [`V2vEngine`]: names
/// already bound win. Each missing locator is read (and its store
/// variants loaded) outside any lock, then inserted under the write
/// lock only if the name is still absent. A bind changes no existing
/// binding, so it does not bump the catalog version.
fn bind_videos(spec: &Spec, shared: &Shared) -> Result<(), V2vError> {
    for (name, locator) in &spec.videos {
        if shared.catalog_read().video(name).is_some() {
            continue;
        }
        let stream = V2vEngine::read_video(name, locator)?;
        // Variants are advisory: a store failure degrades to the original.
        let store = shared.store.as_ref();
        let variants = store.and_then(|s| s.load_variants(name, &stream).ok());
        let mut catalog = shared.catalog_write();
        if catalog.video(name).is_none() {
            catalog.add_video(name.clone(), stream);
            if let Some((loaded, _)) = variants {
                v2v_store::attach_variants(&mut catalog, name, loaded);
            }
            lock(&shared.locators).insert(name.clone(), locator.clone());
        }
    }
    // A locator-bound name must be named by its own locator (compared as
    // strings), or the spec would silently get the other file.
    // Pre-registered and appended names have none: a spec's is ignored.
    let locators = lock(&shared.locators);
    for (name, locator) in &spec.videos {
        if let Some(bound) = locators.get(name).filter(|bound| *bound != locator) {
            let message = format!("video '{name}' is bound to locator '{bound}', not '{locator}'");
            return Err(V2vError::new(ErrorKind::InvalidRequest, message));
        }
    }
    Ok(())
}

/// A fresh engine for one request, over a snapshot of the shared
/// catalog taken after [`bind_videos`] (the clone is cheap: streams and
/// data arrays are `Arc`-backed, and share their digest memos with the
/// snapshot), so its own `bind` finds every video bound and only
/// materializes the data arrays the catalog lacks — those stay per
/// request, since a `sql:` array is windowed to the spec.
fn request_engine(spec: &Spec, shared: &Shared) -> Result<V2vEngine, V2vError> {
    bind_videos(spec, shared)?;
    let mut config = shared.config.engine.clone();
    if let Some(pool) = &shared.pool {
        // Coordinator: keyed segments of this query may render on
        // workers. The spec rides along so each dispatch is
        // self-describing.
        if let Ok(value) = serde_json::to_value(spec) {
            config.remote = Some(Arc::new(PoolRemote::new(Arc::clone(pool), value)));
        }
    }
    Ok(V2vEngine::new(shared.catalog_read().clone())
        .with_database(shared.database.clone())
        .with_config(config))
}

/// Plans one spec on its [`request_engine`].
fn prepare_query(spec: &Spec, shared: &Shared) -> Result<PreparedQuery, V2vError> {
    let mut engine = request_engine(spec, shared)?;
    let run = engine.prepare(spec)?;
    if shared.store.is_some() {
        // Feed the compactor: classify this plan's source reads by
        // access shape (smart-cut / scan / preview).
        let profiles = profile_plan(run.plan(), engine.catalog().plan_context());
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
fn record_exec_metrics(exec: &[Arc<Counter>], stats: &ExecStats) {
    for (counter, (_, value)) in exec.iter().zip(stats.counters()) {
        counter.add(value);
    }
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
fn overload_body(queued: usize, queue_limit: usize) -> serde_json::Value {
    serde_json::json!({"error": {
        "kind": "overloaded",
        "message": "admission queue full",
        "queue_depth": queued,
        "queue_limit": queue_limit,
        "retry_after_secs": RETRY_AFTER_SECS,
    }})
}

/// Books one rejected job and builds its 429.
fn overload_response(shared: &Shared) -> Response {
    shared.metrics.jobs_rejected.inc();
    let (_, queued) = shared.gate.snapshot();
    Response::json(429, &overload_body(queued, shared.config.queue_depth))
        .header("retry-after", RETRY_AFTER_SECS.to_string())
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
        blur_spec_of("a", "a.svc", secs)
    }

    /// A blur over the first `secs` seconds of video `name`, bound to
    /// `locator`.
    fn blur_spec_of(name: &str, locator: &str, secs: i64) -> Spec {
        let output = OutputSettings {
            frame_ty: FrameType::gray8(64, 32),
            frame_dur: r(1, 30),
            gop_size: 30,
            quantizer: 0,
        };
        SpecBuilder::new(output)
            .video(name, locator)
            .append_filtered(name, r(0, 1), r(secs, 1), |e| blur(e, 1.0))
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
        // one. The `exec.*` names of `/metrics` are
        // `ExecStats::counters`, the list run traces are built from.
        let dir = store_tempdir("keys");
        let cache = v2v_exec::RenderCache::open(&dir, 1 << 20)
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
        cache.mem.evictions cache.mem.hits jobs_done jobs_failed \
        jobs_rejected max_concurrent pool queue_depth queue_wait queue_wait.count \
        queue_wait.max_ns queue_wait.total_ns queued role store subscriptions \
        subscriptions.active \
        subscriptions.appends subscriptions.catalog_version subscriptions.deltas \
        subscriptions.frames_pushed subscriptions.renders";
    const METRICS_KEYS: &str = "\
        metrics metrics.exec.bytes_copied metrics.exec.bytes_copied.Counter \
        metrics.exec.bytes_decoded metrics.exec.bytes_decoded.Counter \
        metrics.exec.bytes_encoded metrics.exec.bytes_encoded.Counter \
        metrics.exec.cache.bytes_reused metrics.exec.cache.bytes_reused.Counter \
        metrics.exec.cache.evictions metrics.exec.cache.evictions.Counter \
        metrics.exec.cache.mem_hits metrics.exec.cache.mem_hits.Counter \
        metrics.exec.cache.segment_hits metrics.exec.cache.segment_hits.Counter \
        metrics.exec.faults.frames_substituted \
        metrics.exec.faults.frames_substituted.Counter metrics.exec.faults.injected \
        metrics.exec.faults.injected.Counter metrics.exec.faults.parts_skipped \
        metrics.exec.faults.parts_skipped.Counter metrics.exec.faults.parts_substituted \
        metrics.exec.faults.parts_substituted.Counter metrics.exec.faults.retries \
        metrics.exec.faults.retries.Counter metrics.exec.frames_decoded \
        metrics.exec.frames_decoded.Counter metrics.exec.frames_encoded \
        metrics.exec.frames_encoded.Counter metrics.exec.gop_cache_hits \
        metrics.exec.gop_cache_hits.Counter metrics.exec.gop_cache_misses \
        metrics.exec.gop_cache_misses.Counter metrics.exec.packets_copied \
        metrics.exec.packets_copied.Counter metrics.exec.remote.segments \
        metrics.exec.remote.segments.Counter metrics.exec.seeks metrics.exec.seeks.Counter \
        metrics.exec.segments metrics.exec.segments.Counter metrics.serve.active_jobs \
        metrics.serve.active_jobs.Gauge metrics.serve.job_wall_ns \
        metrics.serve.job_wall_ns.Histogram metrics.serve.job_wall_ns.Histogram.buckets \
        metrics.serve.job_wall_ns.Histogram.count metrics.serve.job_wall_ns.Histogram.max \
        metrics.serve.job_wall_ns.Histogram.sum metrics.serve.jobs_done \
        metrics.serve.jobs_done.Counter metrics.serve.jobs_failed \
        metrics.serve.jobs_failed.Counter metrics.serve.jobs_rejected \
        metrics.serve.jobs_rejected.Counter metrics.serve.queue_wait_ns \
        metrics.serve.queue_wait_ns.Histogram \
        metrics.serve.queue_wait_ns.Histogram.buckets \
        metrics.serve.queue_wait_ns.Histogram.count \
        metrics.serve.queue_wait_ns.Histogram.max \
        metrics.serve.queue_wait_ns.Histogram.sum metrics.serve.requests \
        metrics.serve.requests.Counter metrics.serve.segments_rendered \
        metrics.serve.segments_rendered.Counter metrics.store.drops \
        metrics.store.drops.Counter metrics.store.materializations \
        metrics.store.materializations.Counter metrics.store.reads.preview \
        metrics.store.reads.preview.Counter metrics.store.reads.scan \
        metrics.store.reads.scan.Counter metrics.store.reads.smart_cut \
        metrics.store.reads.smart_cut.Counter metrics.sub.active metrics.sub.active.Gauge \
        metrics.sub.appends metrics.sub.appends.Counter metrics.sub.deltas \
        metrics.sub.deltas.Counter metrics.sub.frames_pushed \
        metrics.sub.frames_pushed.Counter metrics.sub.renders metrics.sub.renders.Counter";
    const STATS_KEYS: &str = "\
        bytes_copied bytes_decoded bytes_encoded cache cache.bytes_reused cache.evictions \
        cache.mem_hits cache.remote_segments cache.result_hits \
        cache.segment_hits cache.shared_segment_hits faults_injected frames_decoded \
        frames_encoded frames_substituted gop_cache_hits gop_cache_misses packets_copied \
        parts_skipped parts_substituted queue_wait_ns retries seeks segments splits steals";

    /// Regression: a client that sent part of a request and then went
    /// quiet held its handler thread for ever. The read deadline now
    /// answers it 408 and closes it, while other connections are served.
    #[test]
    fn a_half_sent_request_gets_408_and_is_closed_after_the_read_deadline() {
        let handle = V2vServer::new(catalog())
            .with_read_deadline(Duration::from_millis(300))
            .start("127.0.0.1:0")
            .unwrap();
        let mut stalled = TcpStream::connect(handle.addr()).unwrap();
        stalled.write_all(b"GET /status HTTP/1.1\r\n").unwrap();
        let ok = client::request(handle.addr(), "GET", "/status", b"").unwrap();
        assert_eq!(ok.status, 200, "a second connection is served meanwhile");

        let started = Instant::now();
        stalled
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut answer = Vec::new();
        stalled
            .read_to_end(&mut answer)
            .expect("the daemon closes the stalled connection");
        assert!(started.elapsed() < Duration::from_secs(5));
        let text = String::from_utf8_lossy(&answer);
        assert!(
            text.starts_with("HTTP/1.1 408 Request Timeout\r\n"),
            "{text}"
        );
        let (_, body) = text.split_once("\r\n\r\n").expect("a whole response");
        let v: serde_json::Value = serde_json::from_str(body).unwrap();
        let kind = v.get("error").and_then(|e| e.get("kind"));
        assert_eq!(
            kind.and_then(|k| k.as_str()),
            Some("invalid_request"),
            "{v}"
        );
    }

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

    /// Output settings the codec cannot encode are a plan error (400)
    /// before anything renders; a zero width used to panic the render
    /// and drop the connection without a response.
    #[test]
    fn unencodable_output_settings_answer_400() {
        let handle = V2vServer::new(catalog()).start("127.0.0.1:0").unwrap();
        let bad: [fn(&mut OutputSettings); 3] = [
            |o| o.frame_ty.width = 0,
            |o| o.frame_ty.height = 16385,
            |o| o.gop_size = 0,
        ];
        for mutate in bad {
            let mut spec = blur_spec(1);
            mutate(&mut spec.output);
            let resp = client::post_query(handle.addr(), spec.to_json().as_bytes()).unwrap();
            assert_eq!(resp.status, 400, "{:?}", spec.output);
            let v: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
            let kind = v.get("error").and_then(|e| e.get("kind"));
            assert_eq!(kind.and_then(|k| k.as_str()), Some("plan"), "{v}");
        }
    }

    /// A blur σ whose kernel would take 24 GB answers 400 before anything
    /// is allocated (the daemon process used to abort), and the daemon
    /// answers the next query.
    #[test]
    fn oversized_blur_sigma_answers_400_and_daemon_serves_on() {
        let handle = V2vServer::new(catalog()).start("127.0.0.1:0").unwrap();
        let huge = SpecBuilder::new(blur_spec(1).output)
            .video("a", "a.svc")
            .append_filtered("a", r(0, 1), r(1, 1), |e| blur(e, 1e9))
            .build();
        let resp = client::post_query(handle.addr(), huge.to_json().as_bytes()).unwrap();
        assert_eq!(resp.status, 400, "{}", String::from_utf8_lossy(&resp.body));
        let v: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
        let kind = v.get("error").and_then(|e| e.get("kind"));
        assert_eq!(
            kind.and_then(|k| k.as_str()),
            Some("invalid_request"),
            "{v}"
        );
        let ok = client::post_query(handle.addr(), spec_json().as_bytes()).unwrap();
        assert_eq!(ok.status, 200, "{}", String::from_utf8_lossy(&ok.body));
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

    /// Regression: a job that panicked while admitted kept its slot for
    /// good, so `max_concurrent` such renders wedged the daemon.
    #[test]
    fn a_panicking_job_gives_its_slot_back() {
        let active_jobs = Arc::new(Gauge::new());
        let gate = JobGate::new(1, 0, Arc::clone(&active_jobs));
        let panicked = std::panic::catch_unwind(|| {
            let _slot = gate.enter().expect("an idle gate admits");
            assert_eq!(active_jobs.get(), 1);
            panic!("render failed");
        });
        assert!(panicked.is_err());
        assert_eq!(gate.snapshot(), (0, 0));
        assert_eq!(active_jobs.get(), 0);
        assert!(gate.enter().is_some(), "the next job is admitted at once");
    }

    #[test]
    fn full_queue_rejects_with_retry_after() {
        // max_concurrent 1 and queue 0: while one render holds the
        // slot, a second is rejected outright. The first request is a
        // long render; the probe races it, so retry until we observe
        // the 429 (or the first finishes and both succeed — then force
        // the gate directly).
        let gate = JobGate::new(1, 0, Arc::new(Gauge::new()));
        let slot = gate.enter();
        assert!(slot.is_some());
        assert!(gate.enter().is_none(), "queue of 0 must reject while busy");
        drop(slot);
        assert!(gate.enter().is_some());

        // And over HTTP: hold the gate by saturating it with a real
        // request from another thread is racy, so instead check the
        // response shape with queue_depth 0 and max_concurrent forced
        // through config on a contrived busy server.
        let config = ServeConfig {
            max_concurrent: 1,
            queue_depth: 0,
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
        let body = overload_body(3, 16);
        let err = body.get("error").unwrap();
        assert_eq!(err.get("kind").and_then(|k| k.as_str()), Some("overloaded"));
        assert_eq!(err.get("queue_depth").and_then(|x| x.as_u64()), Some(3));
        assert_eq!(err.get("queue_limit").and_then(|x| x.as_u64()), Some(16));
        assert_eq!(
            err.get("retry_after_secs").and_then(|x| x.as_u64()),
            Some(RETRY_AFTER_SECS)
        );
        assert!(err.get("message").is_some());
    }

    #[test]
    fn identical_concurrent_requests_return_identical_bytes() {
        // However the runs interleave, every response must carry the
        // same container bytes and count as a completed job.
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
        for h in handles {
            let resp = h.join().unwrap();
            assert_eq!(resp.status, 200);
            bodies.push(resp.body);
        }
        assert!(bodies.windows(2).all(|w| w[0] == w[1]));
        let (done, failed, rejected) = handle.job_counts();
        assert_eq!((done, failed, rejected), (4, 0, 0));
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
        let source = |h: &ServerHandle| h.shared.catalog_read().video("a").unwrap().clone();

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

        // Every segment of the old query is clean: same keys, and the
        // grown index extends the old one.
        let after = prepare_query(&blur_spec(4), &live.shared).unwrap().run;
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
        assert!(!on_live.segment_keys().is_empty());
        assert_eq!(on_live.segment_keys(), on_fresh.segment_keys());
        assert_eq!(source(&fresh).digest_index(), new);
    }

    /// Frames `from..to` of a 150-frame marked source: a head the daemon
    /// binds, or the installment `/append` continues it with.
    fn cut_of_150(from: usize, to: usize) -> VideoStream {
        let whole = marked_stream(150, 30);
        let at = whole.pts_of(from).unwrap();
        let packets = whole.copy_packet_range(from, to, at).unwrap();
        VideoStream::new(*whole.params(), at, whole.frame_dur(), packets).unwrap()
    }

    /// Writes `stream` to a fresh fixture file and returns its path.
    fn fixture(dir: &std::path::Path, file: &str, stream: &VideoStream) -> String {
        std::fs::create_dir_all(dir).unwrap();
        let path = dir.join(file);
        v2v_container::write_svc(stream, &path).unwrap();
        path.to_string_lossy().into_owned()
    }

    fn query(addr: SocketAddr, spec: &Spec) -> http::Response {
        client::post_query(addr, spec.to_json().as_bytes()).unwrap()
    }

    /// The string at `path` under `v`, or `""`.
    fn str_at<'a>(v: &'a serde_json::Value, path: &[&str]) -> &'a str {
        let mut at = Some(v);
        for key in path {
            at = at.and_then(|x| x.get(key));
        }
        at.and_then(|x| x.as_str()).unwrap_or_default()
    }

    fn response_kind_and_message(resp: &http::Response) -> (String, String) {
        let v: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
        let field = |k: &str| str_at(&v, &["error", k]).to_string();
        (field("kind"), field("message"))
    }

    /// The `v2v serve` shape: an empty catalog binds a source by locator
    /// once, and keeps it — the second request neither re-reads the file
    /// (deleted by then) nor re-digests the stream.
    #[test]
    fn a_locator_bound_source_is_read_once_and_outlives_its_file() {
        let dir = store_tempdir("read_once");
        let path = fixture(&dir, "a.svc", &marked_stream(120, 30));
        let handle = V2vServer::new(Catalog::new()).start("127.0.0.1:0").unwrap();
        let spec = blur_spec_of("a", &path, 2);
        let first = query(handle.addr(), &spec);
        assert_eq!(
            first.status,
            200,
            "{}",
            String::from_utf8_lossy(&first.body)
        );
        let bound = handle.shared.catalog_read().video("a").unwrap().clone();
        assert!(
            bound.digests_known(),
            "the first request digests the shared stream"
        );

        std::fs::remove_file(&path).unwrap();
        let second = query(handle.addr(), &spec);
        assert_eq!(
            second.status,
            200,
            "{}",
            String::from_utf8_lossy(&second.body)
        );
        assert_eq!(second.body, first.body);
        let still = handle.shared.catalog_read().video("a").unwrap().clone();
        assert!(
            Arc::ptr_eq(&bound, &still),
            "one stream per name, not one per request"
        );
        assert_eq!(
            handle.shared.version(),
            0,
            "a bind changes no existing binding"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `/append` grows a locator-bound source instead of replacing it.
    #[test]
    fn append_extends_a_locator_bound_source() {
        let dir = store_tempdir("append_locator");
        let path = fixture(&dir, "a.svc", &cut_of_150(0, 120));
        let live = V2vServer::new(Catalog::new()).start("127.0.0.1:0").unwrap();
        let head = query(live.addr(), &blur_spec_of("a", &path, 4));
        assert_eq!(head.status, 200, "{}", String::from_utf8_lossy(&head.body));

        let tail = v2v_container::svc_to_bytes(&cut_of_150(120, 150)).unwrap();
        let ack = client::request(live.addr(), "POST", "/append/a", &tail).unwrap();
        assert_eq!(ack.status, 200, "{}", String::from_utf8_lossy(&ack.body));
        let ack: serde_json::Value = serde_json::from_slice(&ack.body).unwrap();
        assert_eq!(ack.get("frames").and_then(|x| x.as_u64()), Some(150));

        // The old range still answers with the same bytes, and the grown
        // range matches a cold daemon over the whole source.
        let again = query(live.addr(), &blur_spec_of("a", &path, 4));
        assert_eq!(
            again.status,
            200,
            "{}",
            String::from_utf8_lossy(&again.body)
        );
        assert_eq!(again.body, head.body);
        let grown = query(live.addr(), &blur_spec_of("a", &path, 5));
        assert_eq!(
            grown.status,
            200,
            "{}",
            String::from_utf8_lossy(&grown.body)
        );
        let mut whole = Catalog::new();
        whole.add_video("a", marked_stream(150, 30));
        let cold = V2vServer::new(whole).start("127.0.0.1:0").unwrap();
        let truth = query(cold.addr(), &blur_spec_of("a", &path, 5));
        assert_eq!(truth.status, 200);
        assert_eq!(grown.body, truth.body);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Variants attach when a name binds, not only at startup, so the
    /// store routes and the compactor see locator-bound sources.
    #[test]
    fn a_locator_bind_attaches_stored_variants() {
        let dir = store_tempdir("bind_attach");
        let source = marked_stream(120, 30);
        let path = fixture(&dir, "a.svc", &source);
        let root = dir.join("store");
        let dense = v2v_store::TranscodeSpec::for_kind(v2v_plan::VariantKind::Dense);
        SourceStore::open(&root)
            .unwrap()
            .materialize("a", &source, dense)
            .unwrap();
        let handle = V2vServer::new(Catalog::new())
            .with_config(store_config(&root))
            .start("127.0.0.1:0")
            .unwrap();
        let addr = handle.addr();
        let attached = || {
            let ls = client::request(addr, "GET", "/store", b"").unwrap();
            serde_json::from_slice::<serde_json::Value>(&ls.body)
                .unwrap()
                .get("attached")
                .cloned()
        };
        assert_eq!(attached(), Some(serde_json::json!({})));

        let resp = query(addr, &blur_spec_of("a", &path, 2));
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        assert_eq!(attached(), Some(serde_json::json!({"a": ["dense"]})));
        let plain = V2vServer::new(catalog()).start("127.0.0.1:0").unwrap();
        assert_eq!(resp.body, query(plain.addr(), &blur_spec(2)).body);

        let resp = client::request(addr, "POST", "/store/materialize/a/dense", b"").unwrap();
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A name bound from one locator is never served for another.
    #[test]
    fn a_bound_name_named_by_another_locator_is_refused() {
        let dir = store_tempdir("locator_conflict");
        let first = fixture(&dir, "first.svc", &marked_stream(120, 30));
        let other = fixture(&dir, "other.svc", &marked_stream(120, 10));
        let handle = V2vServer::new(Catalog::new()).start("127.0.0.1:0").unwrap();
        let bound = query(handle.addr(), &blur_spec_of("a", &first, 2));
        assert_eq!(bound.status, 200);

        let refused = query(handle.addr(), &blur_spec_of("a", &other, 2));
        assert_eq!(refused.status, 400);
        let (kind, message) = response_kind_and_message(&refused);
        assert_eq!(kind, "invalid_request");
        assert!(
            message.contains(&first) && message.contains(&other),
            "{message}"
        );

        let again = query(handle.addr(), &blur_spec_of("a", &first, 2));
        assert_eq!(again.status, 200);
        assert_eq!(again.body, bound.body, "the bound bytes are unchanged");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Pre-registered names keep ignoring the spec's locator.
    #[test]
    fn a_pre_registered_name_ignores_the_spec_locator() {
        let handle = V2vServer::new(catalog()).start("127.0.0.1:0").unwrap();
        for locator in ["a.svc", "elsewhere.svc"] {
            let resp = query(handle.addr(), &blur_spec_of("a", locator, 1));
            assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        }
    }

    /// A path-like source name never reaches outside the store root:
    /// `..` used to drop `<root>/../dense.svc` and rewrite
    /// `<root>/../manifest.json`.
    #[test]
    fn store_routes_refuse_a_path_like_source_name() {
        let dir = store_tempdir("decoy");
        let decoy = SourceStore::open(&dir).unwrap();
        let dense = v2v_store::TranscodeSpec::for_kind(v2v_plan::VariantKind::Dense);
        decoy
            .materialize("decoy", &marked_stream(30, 30), dense)
            .unwrap();
        let outside = dir.join("decoy");
        let before = std::fs::read(outside.join("manifest.json")).unwrap();
        let handle = V2vServer::new(catalog())
            .with_config(store_config(&outside.join("root")))
            .start("127.0.0.1:0")
            .unwrap();
        for route in [
            "/store/drop/../dense",
            "/store/pin/../dense",
            "/store/drop/./dense",
        ] {
            let resp = client::request(handle.addr(), "POST", route, b"").unwrap();
            assert_eq!(
                resp.status,
                400,
                "{route}: {}",
                String::from_utf8_lossy(&resp.body)
            );
        }
        assert!(
            outside.join("dense.svc").is_file(),
            "the decoy variant survives"
        );
        assert_eq!(
            std::fs::read(outside.join("manifest.json")).unwrap(),
            before
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A video bound under `..` is served, but the compactor reports its
    /// materialization as an error and writes nothing outside the root.
    #[test]
    fn a_source_named_dotdot_is_never_materialized() {
        let dir = store_tempdir("dotdot");
        let path = fixture(&dir.join("fixtures"), "a.svc", &marked_stream(120, 30));
        let outside = dir.join("outside");
        let root = outside.join("root");
        let handle = V2vServer::new(Catalog::new())
            .with_config(store_config(&root))
            .start("127.0.0.1:0")
            .unwrap();
        let resp = query(handle.addr(), &blur_spec_of("..", &path, 2));
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));

        let resp = client::request(handle.addr(), "POST", "/store/compact", b"").unwrap();
        assert_eq!(resp.status, 200);
        let v: serde_json::Value = serde_json::from_slice(&resp.body).unwrap();
        let actions = v.get("actions").and_then(|a| a.as_array()).unwrap();
        assert!(!actions.is_empty(), "the query's reads create demand: {v}");
        for action in actions {
            assert_eq!(str_at(action, &["source"]), "..", "{v}");
            assert_eq!(str_at(action, &["op"]), "materialize", "{v}");
            assert!(action.get("error").is_some(), "{v}");
        }
        let written: Vec<_> = std::fs::read_dir(&outside)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(written, ["root"], "nothing lands beside the root");
        assert_eq!(std::fs::read_dir(&root).unwrap().count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `/append-data` reads instants through the annotation reader, so
    /// fractional seconds land on the millisecond grid.
    #[test]
    fn append_data_reads_fractional_seconds() {
        let handle = V2vServer::new(catalog()).start("127.0.0.1:0").unwrap();
        let body = br#"[{"t": 1.5, "value": 3}, {"t": [1, 30], "value": 4}]"#;
        let resp = client::request(handle.addr(), "POST", "/append-data/bb", body).unwrap();
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let catalog = handle.shared.catalog_read();
        let array = &catalog.arrays()["bb"];
        assert_eq!(array.get(r(3, 2)), &v2v_data::Value::Int(3));
        assert_eq!(array.get(r(1, 30)), &v2v_data::Value::Int(4));
    }

    #[test]
    fn append_data_rejects_malformed_instants_with_the_entry_index() {
        let handle = V2vServer::new(catalog()).start("127.0.0.1:0").unwrap();
        for bad in [
            r#"{"t": null, "value": 1}"#,
            r#"{"t": true, "value": 1}"#,
            r#"{"t": {}, "value": 1}"#,
            r#"{"t": [1], "value": 1}"#,
            r#"{"t": [1, 0], "value": 1}"#,
            r#"{"t": [1.5, 2], "value": 1}"#,
            r#"{"t": "soon", "value": 1}"#,
            r#"{"value": 1}"#,
        ] {
            let body = format!(r#"[{{"t": 0, "value": 0}}, {bad}]"#);
            let resp = client::request(handle.addr(), "POST", "/append-data/bb", body.as_bytes());
            let resp = resp.unwrap();
            assert_eq!(resp.status, 400, "{bad}");
            let (kind, message) = response_kind_and_message(&resp);
            assert_eq!(kind, "invalid_request", "{bad}");
            assert!(message.starts_with("entry 1:"), "{bad}: {message}");
        }
        assert!(!handle.shared.catalog_read().arrays().contains_key("bb"));
    }

    /// One box per frame, drifting down with the frame index.
    fn box_at(frame: i64, x: f32) -> v2v_data::Value {
        let mut b = v2v_frame::BoxCoord::new(x, frame as f32 / 128.0, 0.25, 0.25, "z");
        b.confidence = 0.5;
        v2v_data::Value::Boxes(vec![b])
    }

    /// Two marked sources, `da` holding a box on frames `0..45` of `a`
    /// and `db` one on frames `0..60` of `b`.
    fn keyed_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_video("a", marked_stream(120, 30));
        c.add_video("b", marked_stream(90, 30));
        c.add_array("da", (0..45).map(|i| (r(i, 30), box_at(i, 0.25))).collect());
        c.add_array("db", (0..60).map(|i| (r(i, 30), box_at(i, 0.5))).collect());
        c
    }

    /// Two seconds each of: a blur reading no array, boxes from `da`
    /// over `a`, and a grid joining `a` boxed from `da` with `b` boxed
    /// from `db`.
    fn keyed_specs() -> [Spec; 3] {
        let builder = || {
            SpecBuilder::new(OutputSettings {
                frame_ty: FrameType::gray8(64, 32),
                frame_dur: r(1, 30),
                gop_size: 30,
                quantizer: 0,
            })
            .video("a", "a.svc")
            .video("b", "b.svc")
        };
        let at = |video: &str| v2v_spec::RenderExpr::FrameRef {
            video: video.into(),
            time: v2v_time::AffineTimeMap::IDENTITY,
        };
        let boxed = v2v_spec::builder::bounding_box;
        [
            builder().append_with(r(2, 1), |_| blur(at("a"), 1.0)),
            builder()
                .data_array("da", "da.json")
                .append_with(r(2, 1), |_| boxed(at("a"), "da")),
            builder()
                .data_array("da", "da.json")
                .data_array("db", "db.json")
                .append_with(r(2, 1), |_| {
                    v2v_spec::builder::grid4(
                        boxed(at("a"), "da"),
                        boxed(at("b"), "db"),
                        at("a"),
                        at("b"),
                    )
                }),
        ]
        .map(SpecBuilder::build)
    }

    /// A run's segment keys as hex, `-` for an unkeyed segment.
    fn hex_keys(run: &PreparedRun) -> Vec<String> {
        let hex = |k: &Option<u64>| k.map_or("-".into(), |k| format!("{k:016x}"));
        run.segment_keys().iter().map(hex).collect()
    }

    /// `da`'s boxes on `frames`, as `/append-data` takes them.
    fn da_entries(frames: std::ops::Range<i64>) -> (Vec<(Rational, v2v_data::Value)>, String) {
        let entries: Vec<_> = frames.map(|i| (r(i, 30), box_at(i, 0.25))).collect();
        let body = entries
            .iter()
            .map(|(t, v)| {
                let v2v_data::Value::Boxes(boxes) = v else {
                    unreachable!()
                };
                serde_json::json!({"t": [t.num(), t.den()], "value": boxes})
            })
            .collect::<Vec<_>>();
        (entries, serde_json::Value::from(body).to_string())
    }

    const BLUR_KEYS: &[&str] = &["4e52524eef653628"];
    const BOXES_KEYS: &[&str] = &["aadaa3c8b65beded", "dddd1834e4402165"];
    const JOIN_KEYS: &[&str] = &["56234a1122a5d8fb", "4bf33e80818713ea"];
    const BOXES_REKEYED: &[&str] = &["616663a9ba287b76"];

    /// Segment keys of specs with no array, one array and two arrays,
    /// before and after detections are appended past the boxes window
    /// (keys kept) and inside it (re-keyed), through a long-lived engine
    /// and through the daemon's per-request snapshots. The constants were
    /// computed by the digest-per-request implementation this memo
    /// replaced: identity may get cheaper, never different.
    #[test]
    fn segment_keys_are_pinned_across_array_appends() {
        let [blur, boxes, join] = keyed_specs();
        let mut engine = V2vEngine::new(keyed_catalog());
        let mut keys = |s: &Spec| hex_keys(&engine.prepare(s).unwrap());
        let found = [keys(&blur), keys(&boxes), keys(&join)];
        assert_eq!(found, [BLUR_KEYS, BOXES_KEYS, JOIN_KEYS]);
        let (past, past_body) = da_entries(60..66);
        let (inside, inside_body) = da_entries(45..50);
        for (t, v) in past {
            engine
                .catalog_mut()
                .arrays_mut()
                .get_mut("da")
                .unwrap()
                .insert(t, v);
        }
        assert_eq!(hex_keys(&engine.prepare(&boxes).unwrap()), BOXES_KEYS);
        for (t, v) in inside {
            engine
                .catalog_mut()
                .arrays_mut()
                .get_mut("da")
                .unwrap()
                .insert(t, v);
        }
        let rekeyed = hex_keys(&engine.prepare(&boxes).unwrap());
        assert_eq!(rekeyed, BOXES_REKEYED);

        let handle = V2vServer::new(keyed_catalog())
            .start("127.0.0.1:0")
            .unwrap();
        let daemon = |s: &Spec| hex_keys(&prepare_query(s, &handle.shared).unwrap().run);
        assert_eq!(
            [daemon(&blur), daemon(&boxes), daemon(&join)],
            [BLUR_KEYS, BOXES_KEYS, JOIN_KEYS]
        );
        let known = |name: &str| handle.shared.catalog_read().arrays()[name].digests_known();
        assert!(
            known("da") && known("db"),
            "per-request snapshots fill the shared memos"
        );
        for (body, expect) in [(past_body, BOXES_KEYS), (inside_body, BOXES_REKEYED)] {
            let resp = client::request(handle.addr(), "POST", "/append-data/da", body.as_bytes());
            assert_eq!(resp.unwrap().status, 200);
            // An append extends the memo; an insert before the last
            // entry drops it.
            assert_eq!(known("da"), expect == BOXES_KEYS);
            assert_eq!(daemon(&boxes), expect);
        }
    }
}
