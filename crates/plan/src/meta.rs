//! The source catalog the optimizer consults at plan time.
//!
//! The paper's optimizer decides stream copies and smart cuts from
//! container-level facts — codec parameters and the keyframe index —
//! without touching raster data. [`PlanContext`] hands the planner the
//! catalog's own streams, so those facts are read where they live:
//! [`VideoStream::params`], [`VideoStream::range`] and the stream's
//! keyframe index.

use crate::variant::{VariantKind, VariantSource};
use std::collections::BTreeMap;
use std::sync::Arc;
use v2v_container::VideoStream;

/// The optimizer's source catalog: every bound video and its attached
/// physical variants, shared with the executors that read them.
#[derive(Clone, Debug, Default)]
pub struct PlanContext {
    /// Video name → stream.
    pub sources: BTreeMap<String, Arc<VideoStream>>,
    /// Video name → attached physical variants (empty unless a variant
    /// store is attached to the catalog).
    pub variants: BTreeMap<String, BTreeMap<VariantKind, VariantSource>>,
}

impl PlanContext {
    /// An empty context.
    pub fn new() -> PlanContext {
        PlanContext::default()
    }

    /// Adds a source.
    pub fn with_source(mut self, name: impl Into<String>, stream: Arc<VideoStream>) -> PlanContext {
        self.sources.insert(name.into(), stream);
        self
    }

    /// Attaches a physical variant to a source.
    pub fn with_variant(
        mut self,
        name: impl Into<String>,
        kind: VariantKind,
        variant: VariantSource,
    ) -> PlanContext {
        self.variants
            .entry(name.into())
            .or_default()
            .insert(kind, variant);
        self
    }

    /// Looks up a source.
    pub fn source(&self, name: &str) -> Option<&Arc<VideoStream>> {
        self.sources.get(name)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use v2v_codec::{CodecParams, Packet};
    use v2v_frame::FrameType;
    use v2v_time::{r, Rational};

    fn ctx() -> PlanContext {
        let params = CodecParams::new(FrameType::yuv420p(64, 64), 4, 0);
        PlanContext::new().with_source("a", source(params, 20, 4, 0))
    }

    #[test]
    fn keyframe_queries() {
        // The planner's questions, asked of the stream's own index.
        let ctx = ctx();
        let s = ctx.source("a").unwrap();
        assert_eq!(s.keyframe_indices(), [0, 4, 8, 12, 16]);
        assert_eq!(s.keyframe_at_or_before(8), Some(8));
        assert_eq!(s.keyframe_at_or_before(9), Some(8));
        assert_eq!(s.next_keyframe_at_or_after(1), Some(4));
        assert_eq!(s.next_keyframe_at_or_after(5), Some(8));
        assert_eq!(s.next_keyframe_at_or_after(17), None);
        // Past the end: the last keyframe.
        assert_eq!(s.keyframe_at_or_before(20), Some(16));
    }

    #[test]
    fn grid_queries() {
        let ctx = ctx();
        let s = ctx.source("a").unwrap();
        assert_eq!(s.index_of(r(5, 30)), Some(5));
        assert_eq!(s.index_of(r(1, 7)), None);
        assert_eq!(s.range().count(), 20);
        assert!(ctx.source("b").is_none());
    }

    /// A `count`-frame source at 30 fps from 0 with a keyframe every
    /// `key_every` frames and `payload` bytes per packet. The payloads
    /// are zeros: the planner reads container facts, never pixels.
    pub(crate) fn source(
        params: CodecParams,
        count: u64,
        key_every: u64,
        payload: usize,
    ) -> Arc<VideoStream> {
        let packets = (0..count)
            .map(|k| Packet::new(r(k as i64, 30), k % key_every == 0, vec![0; payload].into()))
            .collect();
        Arc::new(VideoStream::new(params, Rational::ZERO, r(1, 30), packets).unwrap())
    }
}
