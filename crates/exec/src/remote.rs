//! Remote segment rendering hook.
//!
//! The scheduler is deliberately ignorant of *how* a segment might be
//! rendered elsewhere — it only knows that, for a keyed whole render
//! segment that missed every local tier, it may ask a
//! [`RemoteRenderer`] before falling back to rendering in-process. The
//! serving layer implements the trait over its worker pool (consistent
//! hashing, per-dispatch deadlines, bounded re-dispatch); tests
//! implement it with canned fragments.

use v2v_container::Fragment;

/// A hook that can produce a segment's fragment from outside this
/// process.
///
/// Contract: a returned fragment must be **verified content** for
/// `key` — the implementation is responsible for digest-checking
/// whatever transport it used (see
/// [`v2v_container::fragment_from_wire`]). Returning `None` means "no
/// remote result, render locally"; the scheduler treats every `None`
/// as a graceful fallback, never an error.
pub trait RemoteRenderer: Send + Sync + std::fmt::Debug {
    /// Attempts to obtain the fragment for plan segment `seg_index`
    /// with content key `key`. `cost` is the segment's price
    /// ([`v2v_plan::segment_cost`] over the catalog's sources), which
    /// implementations may use to derive dispatch deadlines.
    fn render_remote(&self, seg_index: usize, key: u64, cost: f64) -> Option<Fragment>;
}
