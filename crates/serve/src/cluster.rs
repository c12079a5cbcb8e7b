//! Scale-out: sharded coordinator/worker execution.
//!
//! A coordinator daemon carves each admitted plan at the temporal-shard
//! boundaries the optimizer already emits and dispatches segments to a
//! pool of worker daemons, exchanging results as content-addressed
//! `seg-*.svf` fragments. The pieces:
//!
//! * [`WorkerPool`] — the worker set plus a consistent-hash ring over
//!   the segment fragment keys, so the same segment always lands on the
//!   same worker (its local render cache then answers repeats without
//!   re-rendering) and adding a worker moves only `1/n` of the
//!   keyspace;
//! * [`PoolRemote`] — the [`RemoteRenderer`] the coordinator installs
//!   into its engines: for each keyed segment it walks the ring order,
//!   POSTs `/render-segment` with a per-dispatch deadline derived from
//!   the plan's price ([`segment_cost`](v2v_plan::segment_cost)), verifies
//!   the returned fragment's wire framing + checksum against the
//!   expected key, and re-dispatches to the next worker on the ring
//!   when a worker dies mid-render or returns corrupt bytes.
//!
//! **Byte-identity.** A worker renders the carved single-segment
//! sub-plan with the same domain instants the coordinator would have
//! used (`PhysicalPlan::carve_segment` in `v2v-plan` preserves them),
//! so a remote fragment is byte-identical to a local
//! render and splices into the output exactly like a cache hit.
//! Everything on the wire is digest-checked: the fragment payload
//! carries its FNV-64 checksum and the wire frame carries the segment
//! key, so a corrupt or misrouted response is rejected and re-rendered,
//! never spliced.
//!
//! **Failure policy.** Every dispatch has a deadline
//! (`cost/1000` ms clamped to 1–30 s); on timeout, connection failure,
//! or a corrupt response the coordinator marks the worker dead and
//! tries the next distinct worker on the ring (bounded: at most
//! [`MAX_ATTEMPTS`] workers per segment). When every candidate fails
//! the segment falls back to local rendering — the pool accelerates
//! the coordinator but never gates it.

use crate::http::client;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use v2v_container::{fragment_from_wire, Fragment};
use v2v_exec::RemoteRenderer;

/// Virtual nodes per worker on the hash ring: enough to spread the
/// keyspace evenly across small pools without making ring walks slow.
const VNODES: u32 = 40;

/// Distinct workers tried per segment before falling back to a local
/// render (the first dispatch plus one re-dispatch).
pub const MAX_ATTEMPTS: usize = 2;

/// Minimum interval between dead-worker re-probe sweeps, and the
/// per-probe `GET /status` deadline. Cheap enough to piggyback on the
/// dispatch path (no dedicated health-check thread), long enough that a
/// flapping worker cannot turn every dispatch into a probe storm.
const REPROBE_INTERVAL: Duration = Duration::from_millis(250);

/// One worker in the pool.
#[derive(Debug)]
struct Worker {
    /// The address as configured (for status reporting).
    name: String,
    addr: SocketAddr,
    /// Cleared when a dispatch to this worker fails, set again when one
    /// succeeds. Dead workers are skipped on the ring walk but still
    /// receive one probe dispatch when they are the only candidates —
    /// a recovered worker rejoins the pool on its first success.
    alive: AtomicBool,
}

/// Lifetime dispatch counters for the pool, reported in the
/// coordinator's `/status` `pool` block.
#[derive(Debug, Default)]
pub struct PoolStats {
    /// Segment render requests sent to workers (every attempt counts).
    pub dispatched: AtomicU64,
    /// Attempts after the first for a segment: dispatches caused by a
    /// dead, slow, or corrupt-responding worker.
    pub re_dispatched: AtomicU64,
    /// Wire bytes received from workers (fragment responses).
    pub fragment_bytes_in: AtomicU64,
    /// Wire bytes sent to workers (render request bodies).
    pub fragment_bytes_out: AtomicU64,
    /// Cheap `GET /status` probes sent to dead workers by the
    /// dispatch-path re-probe sweep.
    pub probes: AtomicU64,
}

/// A fixed set of workers plus the consistent-hash ring that routes
/// segment keys to them.
#[derive(Debug)]
pub struct WorkerPool {
    workers: Vec<Worker>,
    /// `(ring point, worker index)`, sorted by point.
    ring: Vec<(u64, usize)>,
    /// Lifetime dispatch counters.
    pub stats: PoolStats,
    /// Anchor for [`Self::maybe_revive`]'s monotonic clock (an
    /// `Instant` is not atomic, so elapsed millis since this anchor
    /// are what the CAS gate trades in).
    probe_anchor: Instant,
    /// Elapsed millis (since `probe_anchor`) of the last re-probe
    /// sweep; `u64::MAX` while a sweep is running.
    last_probe_ms: AtomicU64,
}

impl WorkerPool {
    /// Builds a pool from `host:port` strings. Fails if any address
    /// does not resolve; an empty list yields an empty pool (callers
    /// should then skip remote dispatch entirely).
    pub fn new(addrs: &[String]) -> std::io::Result<WorkerPool> {
        let mut workers = Vec::with_capacity(addrs.len());
        for a in addrs {
            let addr = a.to_socket_addrs()?.next().ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("worker address '{a}' resolves to nothing"),
                )
            })?;
            workers.push(Worker {
                name: a.clone(),
                addr,
                alive: AtomicBool::new(true),
            });
        }
        let mut ring = Vec::with_capacity(workers.len() * VNODES as usize);
        for (i, w) in workers.iter().enumerate() {
            for v in 0..VNODES {
                // FNV-1a, the same hash the fragment keys use.
                let mut h = v2v_container::Fnv64::new();
                h.write(format!("{}#{v}", w.name).as_bytes());
                ring.push((h.finish(), i));
            }
        }
        ring.sort_unstable();
        Ok(WorkerPool {
            workers,
            ring,
            stats: PoolStats::default(),
            probe_anchor: Instant::now(),
            last_probe_ms: AtomicU64::new(0),
        })
    }

    /// Workers configured.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// True when no workers are configured.
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// Workers currently believed alive.
    pub fn alive(&self) -> usize {
        self.workers
            .iter()
            .filter(|w| w.alive.load(Ordering::Relaxed))
            .count()
    }

    /// Distinct worker indices in ring order starting at the successor
    /// of `key`: the segment's home worker first, then the failover
    /// order every coordinator agrees on.
    pub fn candidates(&self, key: u64) -> Vec<usize> {
        if self.ring.is_empty() {
            return Vec::new();
        }
        let start = self.ring.partition_point(|&(p, _)| p < key);
        let mut order = Vec::with_capacity(self.workers.len());
        for &(_, w) in self.ring.iter().cycle().skip(start).take(self.ring.len()) {
            if !order.contains(&w) {
                order.push(w);
                if order.len() == self.workers.len() {
                    break;
                }
            }
        }
        order
    }

    /// Re-probes dead workers with a cheap `GET /status`, flipping them
    /// alive on any answer. Piggybacked on the dispatch path (no
    /// dedicated health-check thread) and rate-limited to one sweep per
    /// `REPROBE_INTERVAL`, so a restarted worker rejoins the pool
    /// within one interval of the next dispatch instead of waiting to
    /// be the last-resort tail candidate of its own ring range.
    ///
    /// Without this, a worker that died while owning a "cold" ring
    /// range could stay dead forever: `render_remote` only probes dead
    /// workers after exhausting live candidates, and with
    /// [`MAX_ATTEMPTS`] = 2 a pool of three or more live workers never
    /// reaches the dead tail at all.
    pub fn maybe_revive(&self) {
        if self.workers.iter().all(|w| w.alive.load(Ordering::Relaxed)) {
            return;
        }
        let now_ms = self.probe_anchor.elapsed().as_millis() as u64;
        let last = self.last_probe_ms.load(Ordering::Relaxed);
        if now_ms.saturating_sub(last) < REPROBE_INTERVAL.as_millis() as u64 {
            return;
        }
        // One sweep at a time: the winner of the CAS probes, everyone
        // else dispatches without blocking on the probe I/O.
        if self
            .last_probe_ms
            .compare_exchange(last, u64::MAX, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        for w in &self.workers {
            if w.alive.load(Ordering::Relaxed) {
                continue;
            }
            self.stats.probes.fetch_add(1, Ordering::Relaxed);
            if let Ok(resp) =
                client::request_timeout(w.addr, "GET", "/status", b"", REPROBE_INTERVAL)
            {
                if resp.status == 200 {
                    w.alive.store(true, Ordering::Relaxed);
                }
            }
        }
        self.last_probe_ms.store(
            self.probe_anchor.elapsed().as_millis() as u64,
            Ordering::Release,
        );
    }

    /// The `pool` block of the coordinator's `/status` response.
    pub fn status_json(&self) -> serde_json::Value {
        serde_json::json!({
            "workers": self.len(),
            "alive": self.alive(),
            "dispatched": self.stats.dispatched.load(Ordering::Relaxed),
            "re_dispatched": self.stats.re_dispatched.load(Ordering::Relaxed),
            "fragment_bytes_in": self.stats.fragment_bytes_in.load(Ordering::Relaxed),
            "fragment_bytes_out": self.stats.fragment_bytes_out.load(Ordering::Relaxed),
            "probes": self.stats.probes.load(Ordering::Relaxed),
        })
    }
}

/// The coordinator-side [`RemoteRenderer`]: one per admitted query,
/// sharing the daemon-wide [`WorkerPool`]. Carries the query's spec
/// JSON so each dispatch is self-describing — workers are stateless
/// between requests and re-derive the identical plan from the spec.
#[derive(Debug)]
pub struct PoolRemote {
    pool: Arc<WorkerPool>,
    /// The spec as a JSON value, embedded in every dispatch.
    spec: serde_json::Value,
}

impl PoolRemote {
    /// A renderer dispatching `spec`'s segments over `pool`.
    pub fn new(pool: Arc<WorkerPool>, spec: serde_json::Value) -> PoolRemote {
        PoolRemote { pool, spec }
    }

    /// The per-dispatch deadline: proportional to the segment's price,
    /// clamped to a sane interactive range.
    fn deadline(cost: f64) -> Duration {
        let ms = (cost / 1000.0).clamp(1_000.0, 30_000.0);
        Duration::from_millis(ms as u64)
    }
}

impl RemoteRenderer for PoolRemote {
    fn render_remote(&self, seg_index: usize, key: u64, cost: f64) -> Option<Fragment> {
        let body = serde_json::to_vec(&serde_json::json!({
            "spec": self.spec,
            "seg_index": seg_index,
            "key": format!("{key:016x}"),
        }))
        .ok()?;
        let timeout = PoolRemote::deadline(cost);
        // Give restarted workers a way back in before partitioning:
        // the live/dead split below never dispatches to a dead worker
        // while enough live candidates remain, so without this sweep a
        // recovered worker would never see traffic again.
        self.pool.maybe_revive();
        let stats = &self.pool.stats;
        let candidates = self.pool.candidates(key);
        // Prefer live workers but keep dead ones at the tail as probes,
        // so a recovered worker is rediscovered without a health check.
        let (live, dead): (Vec<_>, Vec<_>) = candidates
            .into_iter()
            .filter_map(|w| self.pool.workers.get(w))
            .partition(|w| w.alive.load(Ordering::Relaxed));
        for (attempt, worker) in live.into_iter().chain(dead).take(MAX_ATTEMPTS).enumerate() {
            stats.dispatched.fetch_add(1, Ordering::Relaxed);
            if attempt > 0 {
                stats.re_dispatched.fetch_add(1, Ordering::Relaxed);
            }
            stats
                .fragment_bytes_out
                .fetch_add(body.len() as u64, Ordering::Relaxed);
            let resp = match client::request_timeout(
                worker.addr,
                "POST",
                "/render-segment",
                &body,
                timeout,
            ) {
                Ok(r) => r,
                Err(_) => {
                    worker.alive.store(false, Ordering::Relaxed);
                    continue;
                }
            };
            stats
                .fragment_bytes_in
                .fetch_add(resp.body.len() as u64, Ordering::Relaxed);
            if resp.status != 200 {
                // The worker answered, so it is alive — it just cannot
                // render this segment (plan mismatch, missing source).
                worker.alive.store(true, Ordering::Relaxed);
                continue;
            }
            match fragment_from_wire(&resp.body, key) {
                Ok(frag) => {
                    worker.alive.store(true, Ordering::Relaxed);
                    return Some(frag);
                }
                Err(_) => {
                    // Corrupt on the wire: never splice bad bytes; let
                    // the next candidate (or the local fallback) render.
                    worker.alive.store(false, Ordering::Relaxed);
                    continue;
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(n: usize) -> WorkerPool {
        let addrs: Vec<String> = (0..n).map(|i| format!("127.0.0.1:{}", 40000 + i)).collect();
        WorkerPool::new(&addrs).unwrap()
    }

    #[test]
    fn ring_routes_deterministically_and_covers_all_workers() {
        let p = pool(4);
        let mut seen = [0usize; 4];
        for key in 0..4096u64 {
            let order = p.candidates(key.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            assert_eq!(order.len(), 4, "ring walk yields every distinct worker");
            assert_eq!(
                order,
                p.candidates(key.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                "routing is deterministic"
            );
            seen[order[0]] += 1;
        }
        // Consistent hashing spreads home assignments across the pool;
        // with 40 vnodes each worker owns a meaningful share.
        for (i, &n) in seen.iter().enumerate() {
            assert!(n > 4096 / 20, "worker {i} owns too little: {n}/4096");
        }
    }

    #[test]
    fn ring_positions_are_pinned() {
        // Every coordinator must agree on the ring: a change to the
        // vnode hash would silently re-home every segment.
        let p = pool(4);
        let got: Vec<Vec<usize>> = (1..=6u64)
            .map(|k| p.candidates(k.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
            .collect();
        let pinned = [
            [2, 3, 1, 0],
            [3, 0, 1, 2],
            [1, 3, 0, 2],
            [0, 1, 2, 3],
            [3, 0, 1, 2],
            [2, 1, 3, 0],
        ];
        assert_eq!(got, pinned);
    }

    #[test]
    fn adding_a_worker_moves_only_part_of_the_keyspace() {
        let small = pool(3);
        let big = pool(4);
        let keys: Vec<u64> = (0..2048u64)
            .map(|k| k.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        let moved = keys
            .iter()
            .filter(|&&k| {
                let a = small.candidates(k)[0];
                let b = big.candidates(k)[0];
                // Worker indices are the same for shared addresses.
                a != b
            })
            .count();
        // Naive modulo hashing would move ~3/4 of keys; the ring moves
        // roughly 1/4 (the new worker's share). Allow generous slack.
        assert!(
            moved < keys.len() / 2,
            "too much keyspace moved: {moved}/{}",
            keys.len()
        );
        assert!(moved > 0, "the new worker must own something");
    }

    #[test]
    fn empty_pool_has_no_candidates() {
        let p = WorkerPool::new(&[]).unwrap();
        assert!(p.is_empty());
        assert!(p.candidates(7).is_empty());
    }

    #[test]
    fn deadline_tracks_cost_within_bounds() {
        assert_eq!(PoolRemote::deadline(0.0), Duration::from_secs(1));
        assert_eq!(PoolRemote::deadline(5_000_000.0), Duration::from_secs(5));
        assert_eq!(PoolRemote::deadline(1e12), Duration::from_secs(30));
    }

    #[test]
    fn reprobe_is_rate_limited_and_leaves_unreachable_workers_dead() {
        let p = Arc::new(pool(2));
        let remote = PoolRemote::new(Arc::clone(&p), serde_json::json!({}));
        assert!(remote.render_remote(0, 7, 0.0).is_none());
        assert_eq!(p.alive(), 0, "unreachable workers are marked dead");
        // Within the rate-limit window no probes fire...
        p.maybe_revive();
        assert_eq!(p.stats.probes.load(Ordering::Relaxed), 0);
        std::thread::sleep(Duration::from_millis(300));
        // ...after it, every dead worker gets one probe; with nothing
        // listening they all stay dead.
        p.maybe_revive();
        assert_eq!(p.stats.probes.load(Ordering::Relaxed), 2);
        assert_eq!(p.alive(), 0);
    }

    #[test]
    fn reprobe_revives_a_worker_that_answers_status() {
        // A port no other test in this binary touches: the sibling
        // tests rely on their 40000-range ports staying unbound.
        let p = Arc::new(WorkerPool::new(&["127.0.0.1:41997".to_string()]).unwrap());
        p.workers[0].alive.store(false, Ordering::Relaxed);
        // A plain TCP listener that speaks just enough HTTP: answer 200
        // to whatever arrives on each connection.
        let listener = std::net::TcpListener::bind(p.workers[0].addr);
        let Ok(listener) = listener else {
            return; // port taken on this machine: skip rather than flake
        };
        let stop = Arc::new(AtomicBool::new(false));
        let server = std::thread::spawn({
            let stop = Arc::clone(&stop);
            move || {
                for mut conn in listener.incoming().flatten() {
                    use std::io::{Read, Write};
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    let mut buf = [0u8; 1024];
                    let _ = conn.read(&mut buf);
                    let _ = conn.write_all(
                        b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\nconnection: close\r\n\r\n{}",
                    );
                }
            }
        });
        // A probe has one rate-limit interval to be answered; on a
        // loaded 2-core host the listener thread can miss that, so
        // allow a few sweeps before calling the worker dead.
        for _ in 0..5 {
            std::thread::sleep(Duration::from_millis(300));
            p.maybe_revive();
            if p.alive() == 1 {
                break;
            }
        }
        stop.store(true, Ordering::SeqCst);
        let _ = std::net::TcpStream::connect(p.workers[0].addr); // unblock accept
        server.join().unwrap();
        assert_eq!(p.alive(), 1, "an answering worker rejoins the pool");
    }

    #[test]
    fn dead_worker_pool_falls_back_to_none() {
        // Nothing listens on these ports; every dispatch fails fast and
        // render_remote reports None (the caller renders locally).
        let p = Arc::new(pool(2));
        let remote = PoolRemote::new(Arc::clone(&p), serde_json::json!({}));
        assert!(remote.render_remote(0, 99, 0.0).is_none());
        assert_eq!(p.stats.dispatched.load(Ordering::Relaxed), 2);
        assert_eq!(p.stats.re_dispatched.load(Ordering::Relaxed), 1);
        assert_eq!(p.alive(), 0);
    }
}
