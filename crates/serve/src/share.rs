//! Whole-response single-flight by canonical plan fingerprint.
//!
//! The daemon's outermost sharing tier: when a request's prepared plan
//! has the same fingerprint as a render already in flight, the request
//! does not run at all — it subscribes to the running one and receives
//! the same `.svc` bytes (or the same error). Equal fingerprints imply
//! byte-identical output over identical sources, so coalescing is
//! invisible to clients except in `ExecStats.cache.inflight_hits`.
//!
//! Leaders register **before** entering the admission gate, so
//! duplicates of a queued request coalesce too, and a burst of K
//! identical queries consumes one admission slot instead of K.
//!
//! The registry is the engine's [`SingleFlight`] one layer up —
//! leader/follower instead of owner/waiter, HTTP outcome instead of
//! fragment. This module only defines what is published.

use std::sync::Arc;
use v2v_exec::{ExecStats, SingleFlight};

/// The error half of a shared outcome: enough to rebuild the HTTP
/// response for every follower.
#[derive(Clone, Debug)]
pub struct SharedError {
    /// HTTP status the leader's run mapped to.
    pub status: u16,
    /// Error-taxonomy kind name (`not_found`, `overloaded`, …).
    pub kind: String,
    /// Human-readable message.
    pub message: String,
}

/// What a leader hands its followers: the serialized `.svc` bytes plus
/// the leader's stats, or the error the leader hit (including a 429 —
/// a rejected leader rejects its whole cohort, which is exactly the
/// back-pressure the gate intended).
pub type QueryOutcome = Result<(Arc<Vec<u8>>, ExecStats), SharedError>;

/// Registry of in-flight `POST /query` renders, keyed by plan
/// fingerprint.
pub type InflightRegistry = SingleFlight<u64, QueryOutcome>;

/// What a follower sees of a leader: the published outcome, or — when
/// the leader's guard dropped without publishing (a panic mid-render) —
/// an internal error, so the follower's client gets an answer, not a
/// hang.
pub fn follower_outcome(shared: Option<QueryOutcome>) -> QueryOutcome {
    shared.unwrap_or_else(|| {
        Err(SharedError {
            status: 500,
            kind: "internal".into(),
            message: "in-flight render aborted".into(),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use v2v_exec::Claim;

    /// Leads fingerprint 1, waits for `followers` to block, publishes
    /// `outcome` (or drops the guard on `None`), and returns what each
    /// follower saw.
    fn fan_out(followers: usize, outcome: Option<QueryOutcome>) -> Vec<QueryOutcome> {
        let reg = InflightRegistry::new();
        std::thread::scope(|scope| {
            let Claim::Owner(guard) = reg.claim(1) else {
                panic!("first joiner leads");
            };
            let handles: Vec<_> = (0..followers)
                .map(|_| {
                    scope.spawn(|| match reg.claim(1) {
                        Claim::Shared(shared) => follower_outcome(shared),
                        Claim::Owner(_) => panic!("a follower must not lead"),
                    })
                })
                .collect();
            while reg.waiting() < followers {
                std::thread::yield_now();
            }
            match outcome {
                Some(outcome) => guard.publish(outcome),
                None => drop(guard),
            }
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    fn failed(status: u16, kind: &str) -> QueryOutcome {
        Err(SharedError {
            status,
            kind: kind.into(),
            message: kind.into(),
        })
    }

    #[test]
    fn errors_fan_out_to_followers() {
        for seen in fan_out(2, Some(failed(404, "not_found"))) {
            assert_eq!(seen.unwrap_err().status, 404);
        }
    }

    #[test]
    fn rejected_leader_rejects_its_cohort() {
        let seen = fan_out(3, Some(failed(429, "overloaded")));
        assert_eq!(seen.len(), 3);
        for outcome in seen {
            let e = outcome.unwrap_err();
            assert_eq!((e.status, e.kind.as_str()), (429, "overloaded"));
        }
    }

    #[test]
    fn dropped_leader_maps_to_internal_error() {
        for seen in fan_out(2, None) {
            let e = seen.unwrap_err();
            assert_eq!((e.status, e.kind.as_str()), (500, "internal"));
        }
    }

    #[test]
    fn followers_receive_the_leaders_bytes() {
        let bytes = Arc::new(vec![7u8; 4]);
        let ok: QueryOutcome = Ok((Arc::clone(&bytes), ExecStats::default()));
        for seen in fan_out(2, Some(ok)) {
            assert!(
                Arc::ptr_eq(&seen.unwrap().0, &bytes),
                "no copy per follower"
            );
        }
    }
}
