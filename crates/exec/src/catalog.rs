//! The execution catalog: binds spec names to actual streams and data.

use std::collections::BTreeMap;
use std::sync::Arc;
use v2v_container::VideoStream;
use v2v_data::DataArray;
use v2v_frame::Frame;
use v2v_plan::{PlanContext, VariantKind, VariantSource};
use v2v_spec::{check::SourceInfo, ArgKind, Spec, UdfRegistry};

/// Bound sources for one execution: videos, data arrays, overlay images.
///
/// The same catalog serves the checker (frame types + availability), the
/// optimizer (codec params + keyframe index), and the executors (packets
/// and pixels). Videos and their variants live in the [`PlanContext`]
/// the optimizer borrows, so planning reads the very streams execution
/// does. Streams are `Arc`-shared: cloning a catalog or handing it to
/// parallel segments never copies media.
#[derive(Clone, Default)]
pub struct Catalog {
    streams: PlanContext,
    arrays: BTreeMap<String, DataArray>,
    images: BTreeMap<String, Arc<Frame>>,
    udf_signatures: UdfRegistry,
    udf_kernels: BTreeMap<u16, Arc<dyn crate::apply::UdfKernel>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Binds a video stream to a name.
    pub fn add_video(&mut self, name: impl Into<String>, stream: VideoStream) -> &mut Catalog {
        self.streams.sources.insert(name.into(), Arc::new(stream));
        self
    }

    /// Binds an already-shared video stream.
    pub fn add_video_arc(
        &mut self,
        name: impl Into<String>,
        stream: Arc<VideoStream>,
    ) -> &mut Catalog {
        self.streams.sources.insert(name.into(), stream);
        self
    }

    /// Binds a data array to a name.
    pub fn add_array(&mut self, name: impl Into<String>, array: DataArray) -> &mut Catalog {
        self.arrays.insert(name.into(), array);
        self
    }

    /// Binds an overlay image to a locator string.
    pub fn add_image(&mut self, locator: impl Into<String>, image: Frame) -> &mut Catalog {
        self.images.insert(locator.into(), Arc::new(image));
        self
    }

    /// Registers a user-defined transformation: its static signature (for
    /// the checker) and its kernel (for the executors).
    pub fn register_udf(
        &mut self,
        id: u16,
        name: impl Into<String>,
        args: Vec<ArgKind>,
        kernel: Arc<dyn crate::apply::UdfKernel>,
    ) -> &mut Catalog {
        self.udf_signatures.register(id, name, args);
        self.udf_kernels.insert(id, kernel);
        self
    }

    /// The registered UDF signatures (checker input).
    pub fn udf_registry(&self) -> &UdfRegistry {
        &self.udf_signatures
    }

    /// The kernel for UDF `id`, if registered.
    pub fn udf_kernel(&self, id: u16) -> Option<Arc<dyn crate::apply::UdfKernel>> {
        self.udf_kernels.get(&id).cloned()
    }

    /// Looks up a video.
    pub fn video(&self, name: &str) -> Option<&Arc<VideoStream>> {
        self.streams.source(name)
    }

    /// Attaches a physical variant to an already-bound source. The
    /// caller is responsible for the decode-identity invariant: over
    /// `covered_frames`, the variant must decode frame-for-frame
    /// identical to the original (or to the conformed original, for
    /// proxies) — see `v2v-store`, which verifies content digests
    /// before attaching.
    pub fn add_variant(
        &mut self,
        name: impl Into<String>,
        kind: VariantKind,
        stream: Arc<VideoStream>,
        covered_frames: u64,
    ) -> &mut Catalog {
        self.streams
            .variants
            .entry(name.into())
            .or_default()
            .insert(
                kind,
                VariantSource {
                    stream,
                    covered_frames,
                },
            );
        self
    }

    /// Looks up an attached variant of a source.
    pub fn variant(&self, name: &str, kind: VariantKind) -> Option<&VariantSource> {
        self.streams.variants.get(name)?.get(&kind)
    }

    /// Detaches one variant; returns `true` if it was attached.
    pub fn remove_variant(&mut self, name: &str, kind: VariantKind) -> bool {
        let Some(set) = self.streams.variants.get_mut(name) else {
            return false;
        };
        let removed = set.remove(&kind).is_some();
        if set.is_empty() {
            self.streams.variants.remove(name);
        }
        removed
    }

    /// Attached variant kinds per source (status / admin views).
    pub fn variant_kinds(&self) -> BTreeMap<String, Vec<VariantKind>> {
        self.streams
            .variants
            .iter()
            .map(|(name, set)| (name.clone(), set.keys().copied().collect()))
            .collect()
    }

    /// Looks up an overlay image.
    pub fn image(&self, locator: &str) -> Option<&Arc<Frame>> {
        self.images.get(locator)
    }

    /// The bound data arrays (what data expressions evaluate against).
    pub fn arrays(&self) -> &BTreeMap<String, DataArray> {
        &self.arrays
    }

    /// Mutable access to the bound arrays (the data-dependent rewriter
    /// materializes SQL-backed arrays here).
    pub fn arrays_mut(&mut self) -> &mut BTreeMap<String, DataArray> {
        &mut self.arrays
    }

    /// The optimizer's view of the bound videos and their variants:
    /// the catalog's own streams, lent, not copied.
    pub fn plan_context(&self) -> &PlanContext {
        &self.streams
    }

    /// Source facts for the static checker.
    pub fn source_infos(&self) -> BTreeMap<String, SourceInfo> {
        self.streams
            .sources
            .iter()
            .map(|(name, stream)| {
                (
                    name.clone(),
                    SourceInfo {
                        frame_ty: stream.params().frame_ty,
                        available: stream.available(),
                    },
                )
            })
            .collect()
    }

    /// `true` if every video and array the spec references is bound.
    pub fn covers(&self, spec: &Spec) -> bool {
        spec.referenced_videos()
            .iter()
            .all(|v| self.streams.sources.contains_key(v))
            && spec
                .referenced_arrays()
                .iter()
                .all(|a| self.arrays.contains_key(a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v2v_codec::CodecParams;
    use v2v_container::StreamWriter;
    use v2v_frame::FrameType;
    use v2v_time::{r, Rational};

    fn stream(n: usize) -> VideoStream {
        let ty = FrameType::gray8(32, 32);
        let params = CodecParams::new(ty, 4, 0);
        let mut w = StreamWriter::new(params, Rational::ZERO, r(1, 30));
        for _ in 0..n {
            w.push_frame(&Frame::black(ty)).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn plan_context_reflects_streams() {
        let mut c = Catalog::new();
        c.add_video("a", stream(9));
        let ctx = c.plan_context();
        let source = ctx.source("a").unwrap();
        assert_eq!(source.len(), 9);
        assert_eq!(source.keyframe_indices(), [0, 4, 8]);
        assert_eq!(source.frame_dur(), r(1, 30));
    }

    #[test]
    fn plan_context_lends_the_catalogs_own_streams() {
        let mut c = Catalog::new();
        c.add_video("a", stream(9));
        let variant = Arc::new(stream(9));
        c.add_variant("a", VariantKind::Dense, variant.clone(), 9);
        let ctx = c.plan_context();
        assert!(Arc::ptr_eq(ctx.source("a").unwrap(), c.video("a").unwrap()));
        let lent = &ctx.variants["a"][&VariantKind::Dense];
        assert!(Arc::ptr_eq(&lent.stream, &variant));
        assert!(
            std::ptr::eq(ctx, c.plan_context()),
            "one context, not a copy per call"
        );
    }

    #[test]
    fn snapshots_share_one_digest_index() {
        // A source's identity is computed once per stream, not once per
        // catalog: whichever snapshot asks first fills the memo every
        // other snapshot (each per-request engine has one) reads.
        let mut c = Catalog::new();
        c.add_video("a", stream(9));
        let (first, second) = (c.clone(), c.clone());
        let index = first.video("a").unwrap().digest_index();
        assert!(c.video("a").unwrap().digests_known());
        assert!(Arc::ptr_eq(
            &index,
            &second.video("a").unwrap().digest_index()
        ));
    }

    #[test]
    fn source_infos_reflect_availability() {
        let mut c = Catalog::new();
        c.add_video("a", stream(6));
        let infos = c.source_infos();
        assert_eq!(infos["a"].available.count(), 6);
        assert_eq!(infos["a"].frame_ty, FrameType::gray8(32, 32));
    }

    #[test]
    fn covers_checks_both_namespaces() {
        let mut c = Catalog::new();
        c.add_video("a", stream(3));
        c.add_array("bb", DataArray::new());
        let spec =
            v2v_spec::SpecBuilder::new(v2v_spec::OutputSettings::new(FrameType::gray8(32, 32), 30))
                .video("a", "a.svc")
                .data_array("bb", "bb.json")
                .append_filtered("a", r(0, 1), r(1, 10), |e| {
                    v2v_spec::builder::bounding_box(e, "bb")
                })
                .build();
        assert!(c.covers(&spec));
        let mut missing = Catalog::new();
        missing.add_video("a", stream(3));
        assert!(!missing.covers(&spec));
    }
}
