#![warn(missing_docs)]

//! Adaptive physical storage for V2V catalog sources.
//!
//! The paper's ToS-vs-KABR gap is a keyframe-density story: smart-cut
//! heavy queries are cheap on keyframe-dense sources and expensive on
//! long-GOP ones. This crate makes density (and resolution) a per-query
//! *choice* by storing each source as a **variant set**:
//!
//! * `original` — the bitstream as ingested (always authoritative);
//! * `dense` — short-GOP re-encode, cheap smart cuts;
//! * `archive` — long-GOP re-encode, small and cheap to scan;
//! * `proxy` — reduced-resolution re-encode for preview traffic.
//!
//! Transcodes go through the ordinary decoder/encoder at quantizer 0,
//! so `dense`/`archive` decode frame-for-frame identical to the
//! original and `proxy` decodes identical to the *conformed* original.
//! A [`VariantManifest`] sidecar records per-variant keyframe indexes,
//! byte sizes, and content digests keyed back to the original's
//! prefix digest — plan fingerprints and cache keys never observe the
//! variant choice.
//!
//! [`SourceStore`] owns the on-disk layout
//! (`<root>/<source>/<kind>.svc` + `manifest.json`), materialization
//! and verification; [`profile`] classifies observed plans into
//! smart-cut / scan / preview access rates; [`compact`] turns those
//! rates plus a byte budget into materialize/drop actions.

pub mod compact;
pub mod manifest;
pub mod profile;

pub use compact::{plan_compaction, CompactionInput, StoreAction, StoreOp};
pub use manifest::{VariantEntry, VariantManifest};
pub use profile::{profile_plan, AccessProfile};

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use v2v_container::{read_svc, write_svc, ContainerError, StreamWriter, VideoStream};
use v2v_exec::Catalog;
use v2v_frame::ops::conform;
use v2v_frame::FrameType;
use v2v_plan::VariantKind;

/// Errors raised by the variant store.
#[derive(Debug, thiserror::Error)]
pub enum StoreError {
    /// Filesystem trouble under the store root.
    #[error("store io at {path:?}: {source}")]
    Io {
        /// The offending path.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// Container-level failure while reading or transcoding.
    #[error("container: {0}")]
    Container(#[from] ContainerError),
    /// A manifest sidecar that cannot be parsed.
    #[error("corrupt manifest at {path:?}: {message}")]
    CorruptManifest {
        /// The manifest path.
        path: PathBuf,
        /// What went wrong.
        message: String,
    },
    /// A variant whose bitstream digest disagrees with its manifest.
    #[error("variant {kind} of '{name}' fails digest verification")]
    DigestMismatch {
        /// The source name.
        name: String,
        /// The variant kind.
        kind: VariantKind,
    },
    /// Asked about a source the store has never seen.
    #[error("unknown source '{0}' in store")]
    UnknownSource(String),
    /// Asked about a variant that is not materialized.
    #[error("variant {kind} of '{name}' is not materialized")]
    UnknownVariant {
        /// The source name.
        name: String,
        /// The variant kind.
        kind: VariantKind,
    },
    /// The original variant cannot be materialized or dropped.
    #[error("the original bitstream is not a store-managed variant")]
    OriginalNotManaged,
    /// A source name that is not one plain path component.
    #[error("source name '{0}' is not a plain path component")]
    InvalidName(String),
}

fn io_err(path: impl Into<PathBuf>) -> impl FnOnce(std::io::Error) -> StoreError {
    let path = path.into();
    move |source| StoreError::Io { path, source }
}

/// Transcode parameters for one materialization.
#[derive(Clone, Copy, Debug)]
pub struct TranscodeSpec {
    /// Which variant to produce.
    pub kind: VariantKind,
    /// GOP size override; `None` picks the kind's default relative to
    /// the original's GOP.
    pub gop: Option<u32>,
    /// Target geometry for proxies; `None` halves the original.
    pub frame_ty: Option<FrameType>,
}

impl TranscodeSpec {
    /// The default spec for a kind.
    pub fn for_kind(kind: VariantKind) -> TranscodeSpec {
        TranscodeSpec {
            kind,
            gop: None,
            frame_ty: None,
        }
    }

    /// Default GOP for this kind given the original's GOP.
    pub fn gop_for(&self, original_gop: u32) -> u32 {
        self.gop.unwrap_or(match self.kind {
            VariantKind::Original => original_gop,
            // Dense: an eighth of the original cadence, at least 2 so
            // the variant is still meaningfully compressed.
            VariantKind::Dense => (original_gop / 8).max(2),
            // Archive: eight× the original cadence.
            VariantKind::Archive => original_gop.saturating_mul(8).max(2),
            VariantKind::Proxy => original_gop,
        })
    }

    /// Target frame type for this kind given the original's.
    pub fn frame_ty_for(&self, original: FrameType) -> FrameType {
        match self.frame_ty {
            Some(ty) => ty,
            None if self.kind == VariantKind::Proxy => FrameType {
                width: (original.width / 2).max(1),
                height: (original.height / 2).max(1),
                ..original
            },
            None => original,
        }
    }
}

/// The on-disk variant store: one directory per source holding variant
/// bitstreams and a `manifest.json` sidecar.
#[derive(Clone, Debug)]
pub struct SourceStore {
    root: PathBuf,
}

impl SourceStore {
    /// Opens (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<SourceStore, StoreError> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(io_err(&root))?;
        Ok(SourceStore { root })
    }

    /// The store root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The directory of source `name`. Source names come from spec
    /// bindings and request paths, so anything but one plain path
    /// component (empty, `.`, `..`, or holding `/`, `\` or NUL) is
    /// refused outright rather than escaped: no store call reads or
    /// writes outside the root.
    fn source_dir(&self, name: &str) -> Result<PathBuf, StoreError> {
        if matches!(name, "" | "." | "..") || name.contains(['/', '\\', '\0']) {
            return Err(StoreError::InvalidName(name.to_string()));
        }
        Ok(self.root.join(name))
    }

    fn manifest_path(&self, name: &str) -> Result<PathBuf, StoreError> {
        Ok(self.source_dir(name)?.join("manifest.json"))
    }

    fn variant_path(&self, name: &str, kind: VariantKind) -> Result<PathBuf, StoreError> {
        Ok(self.source_dir(name)?.join(format!("{}.svc", kind.name())))
    }

    /// Loads the manifest for `name`, if the store knows the source.
    pub fn manifest(&self, name: &str) -> Result<Option<VariantManifest>, StoreError> {
        let path = self.manifest_path(name)?;
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_err(&path)(e)),
        };
        serde_json::from_slice(&bytes)
            .map(Some)
            .map_err(|e| StoreError::CorruptManifest {
                path,
                message: e.to_string(),
            })
    }

    /// All source names with manifests, sorted.
    pub fn sources(&self) -> Result<Vec<String>, StoreError> {
        let mut out = Vec::new();
        let entries = match fs::read_dir(&self.root) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(io_err(&self.root)(e)),
        };
        for entry in entries {
            let entry = entry.map_err(io_err(&self.root))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if entry.path().join("manifest.json").is_file() && self.source_dir(&name).is_ok() {
                out.push(name);
            }
        }
        out.sort();
        Ok(out)
    }

    /// All manifests in the store, sorted by source name.
    pub fn manifests(&self) -> Result<Vec<VariantManifest>, StoreError> {
        let mut out = Vec::new();
        for name in self.sources()? {
            if let Some(m) = self.manifest(&name)? {
                out.push(m);
            }
        }
        Ok(out)
    }

    fn write_manifest(&self, manifest: &VariantManifest) -> Result<(), StoreError> {
        let dir = self.source_dir(&manifest.name)?;
        fs::create_dir_all(&dir).map_err(io_err(&dir))?;
        let path = dir.join("manifest.json");
        let mut json =
            serde_json::to_string_pretty(manifest).map_err(|e| StoreError::CorruptManifest {
                path: path.clone(),
                message: e.to_string(),
            })?;
        json.push('\n');
        // Write-then-rename so a crashed compactor never leaves a torn
        // manifest behind.
        let tmp = dir.join("manifest.json.tmp");
        fs::write(&tmp, json).map_err(io_err(&tmp))?;
        fs::rename(&tmp, &path).map_err(io_err(&path))?;
        Ok(())
    }

    /// Transcodes one variant of `original`'s committed prefix and
    /// records it in the manifest. Live sources are covered only up to
    /// the frames present in `original` at call time; later appends
    /// leave the variant valid for that prefix (prefix digests are
    /// append-invariant).
    pub fn materialize(
        &self,
        name: &str,
        original: &VideoStream,
        spec: TranscodeSpec,
    ) -> Result<VariantEntry, StoreError> {
        if spec.kind == VariantKind::Original {
            return Err(StoreError::OriginalNotManaged);
        }
        let dir = self.source_dir(name)?;
        let path = self.variant_path(name, spec.kind)?;
        let variant = transcode(original, spec)?;
        let covered = variant.len() as u64;
        fs::create_dir_all(&dir).map_err(io_err(&dir))?;
        write_svc(&variant, &path)?;

        let entry = VariantEntry {
            kind: spec.kind,
            params: *variant.params(),
            keyframes: variant
                .keyframe_indices()
                .iter()
                .map(|&k| k as u64)
                .collect(),
            byte_size: variant.byte_size(),
            covered_frames: covered,
            content_digest: variant.content_digest(),
            pinned: false,
        };
        let mut manifest = self.manifest(name)?.unwrap_or_else(|| VariantManifest {
            name: name.to_string(),
            original_digest: original.content_digest(),
            covered_frames: covered,
            prefix_digest: original.prefix_digest(covered as usize),
            variants: Vec::new(),
        });
        // Re-key the manifest to the current committed prefix: all
        // variants cover prefixes of the same append-only stream, so
        // the longest prefix digest is the strongest binding.
        if covered > manifest.covered_frames {
            manifest.covered_frames = covered;
            manifest.prefix_digest = original.prefix_digest(covered as usize);
        }
        manifest.original_digest = original.content_digest();
        manifest.variants.retain(|v| v.kind != entry.kind);
        manifest.variants.push(entry.clone());
        manifest.variants.sort_by_key(|v| v.kind);
        self.write_manifest(&manifest)?;
        Ok(entry)
    }

    /// Removes a variant's bitstream and manifest entry. Pinned
    /// variants are only dropped when `force` is set.
    pub fn drop_variant(
        &self,
        name: &str,
        kind: VariantKind,
        force: bool,
    ) -> Result<bool, StoreError> {
        if kind == VariantKind::Original {
            return Err(StoreError::OriginalNotManaged);
        }
        let Some(mut manifest) = self.manifest(name)? else {
            return Err(StoreError::UnknownSource(name.to_string()));
        };
        // Absent, or pinned and not forced: nothing to drop.
        let Some(pos) = manifest
            .variants
            .iter()
            .position(|v| v.kind == kind && (force || !v.pinned))
        else {
            return Ok(false);
        };
        manifest.variants.remove(pos);
        self.write_manifest(&manifest)?;
        let path = self.variant_path(name, kind)?;
        match fs::remove_file(&path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(io_err(&path)(e)),
        }
        Ok(true)
    }

    /// Pins or unpins a variant (pinned variants survive compaction).
    pub fn pin(&self, name: &str, kind: VariantKind, pinned: bool) -> Result<(), StoreError> {
        let Some(mut manifest) = self.manifest(name)? else {
            return Err(StoreError::UnknownSource(name.to_string()));
        };
        let Some(v) = manifest.variants.iter_mut().find(|v| v.kind == kind) else {
            return Err(StoreError::UnknownVariant {
                name: name.to_string(),
                kind,
            });
        };
        v.pinned = pinned;
        self.write_manifest(&manifest)
    }

    /// Loads one variant bitstream, verifying its content digest
    /// against the manifest.
    pub fn load_variant(
        &self,
        name: &str,
        kind: VariantKind,
    ) -> Result<(VideoStream, VariantEntry), StoreError> {
        let manifest = self
            .manifest(name)?
            .ok_or_else(|| StoreError::UnknownSource(name.to_string()))?;
        let entry = manifest
            .variants
            .iter()
            .find(|v| v.kind == kind)
            .cloned()
            .ok_or(StoreError::UnknownVariant {
                name: name.to_string(),
                kind,
            })?;
        let stream = read_svc(self.variant_path(name, kind)?)?;
        if stream.content_digest() != entry.content_digest {
            return Err(StoreError::DigestMismatch {
                name: name.to_string(),
                kind,
            });
        }
        Ok((stream, entry))
    }

    /// Total bytes of store-managed variant bitstreams.
    pub fn managed_bytes(&self) -> Result<u64, StoreError> {
        Ok(self
            .manifests()?
            .iter()
            .flat_map(|m| &m.variants)
            .map(|v| v.byte_size)
            .sum())
    }

    /// The one attach step for one source: loads every valid variant of
    /// `name` for the bound stream `original`, away from any catalog,
    /// for [`attach_variants`] to attach. A variant is valid only when
    /// `original`'s prefix digest over the manifest's covered frames
    /// matches — appends keep that true, source replacement breaks it
    /// (the variant is skipped, never served stale) — and its own
    /// bitstream digest verifies. Returns the loaded variants and the
    /// skipped count.
    pub fn load_variants(
        &self,
        name: &str,
        original: &VideoStream,
    ) -> Result<(LoadedVariants, u64), StoreError> {
        let Some(manifest) = self.manifest(name)? else {
            return Ok((Vec::new(), 0));
        };
        let covered = manifest.covered_frames as usize;
        if original.len() < covered || original.prefix_digest(covered) != manifest.prefix_digest {
            return Ok((Vec::new(), manifest.variants.len() as u64));
        }
        let (mut loaded, mut skipped) = (Vec::new(), 0);
        for entry in &manifest.variants {
            match self.load_variant(name, entry.kind) {
                Ok(variant) => loaded.push(variant),
                Err(StoreError::DigestMismatch { .. }) => skipped += 1,
                Err(e) => return Err(e),
            }
        }
        Ok((loaded, skipped))
    }

    /// Attaches every valid variant to its catalog source: the
    /// [`load_variants`](SourceStore::load_variants) step, run for each
    /// stored source the catalog binds. Returns `(attached, skipped)`
    /// counts.
    pub fn attach(&self, catalog: &mut Catalog) -> Result<(u64, u64), StoreError> {
        let (mut attached, mut skipped) = (0, 0);
        for name in self.sources()? {
            if let Some(original) = catalog.video(&name).cloned() {
                let (loaded, missed) = self.load_variants(&name, &original)?;
                attached += attach_variants(catalog, &name, loaded);
                skipped += missed;
            }
        }
        Ok((attached, skipped))
    }
}

/// Verified variant bitstreams of one source, with their manifest
/// entries, loaded by [`SourceStore::load_variants`].
pub type LoadedVariants = Vec<(VideoStream, VariantEntry)>;

/// Attaches loaded variants to source `name` in `catalog` (replacing
/// any attached variant of the same kind); returns how many.
pub fn attach_variants(catalog: &mut Catalog, name: &str, loaded: LoadedVariants) -> u64 {
    let count = loaded.len() as u64;
    for (stream, entry) in loaded {
        catalog.add_variant(name, entry.kind, Arc::new(stream), entry.covered_frames);
    }
    count
}

/// Re-encodes `original`'s full committed prefix as one variant.
///
/// Pixel-identical variants (`dense`, `archive`) re-encode the decoded
/// frames untouched at quantizer 0 (lossless), so they decode back
/// frame-for-frame identical. Proxies conform each decoded frame to the
/// target geometry first, so they decode identical to the *conformed*
/// original — decode-sufficient exactly when a query's output geometry
/// equals the proxy geometry.
pub fn transcode(original: &VideoStream, spec: TranscodeSpec) -> Result<VideoStream, StoreError> {
    let src_params = original.params();
    let gop = spec.gop_for(src_params.gop_size);
    let ty = spec.frame_ty_for(src_params.frame_ty);
    let params = v2v_codec::CodecParams::new(ty, gop, 0);
    let mut w = StreamWriter::new(params, original.start(), original.frame_dur());
    let (frames, _) = original.decode_range(0, original.len())?;
    for frame in frames {
        w.push_frame(&conform(frame, ty))?;
    }
    Ok(w.finish()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use v2v_codec::CodecParams;
    use v2v_frame::Frame;
    use v2v_time::{r, Rational};

    /// A stream whose frames carry distinct content (frame index
    /// stamped into the luma plane) so digest and identity checks bite.
    fn marked(n: usize, gop: u32) -> VideoStream {
        let ty = FrameType::yuv420p(64, 64);
        let params = CodecParams::new(ty, gop, 0);
        let mut w = StreamWriter::new(params, Rational::ZERO, r(1, 30));
        for i in 0..n {
            let mut f = Frame::black(ty);
            v2v_frame::marker::embed(&mut f, i as u32);
            w.push_frame(&f).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn transcode_dense_is_decode_identical() {
        let orig = marked(24, 8);
        let dense = transcode(&orig, TranscodeSpec::for_kind(VariantKind::Dense)).unwrap();
        assert_eq!(dense.len(), orig.len());
        assert!(dense.keyframe_indices().len() > orig.keyframe_indices().len());
        let (a, _) = orig.decode_range(0, orig.len()).unwrap();
        let (b, _) = dense.decode_range(0, dense.len()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn transcode_proxy_conforms_geometry() {
        let orig = marked(8, 4);
        let proxy = transcode(&orig, TranscodeSpec::for_kind(VariantKind::Proxy)).unwrap();
        assert_eq!(proxy.params().frame_ty.width, 32);
        assert_eq!(proxy.params().frame_ty.height, 32);
    }

    #[test]
    fn materialize_roundtrip_and_manifest() {
        let dir = tempdir("store-mat");
        let store = SourceStore::open(&dir).unwrap();
        let orig = marked(24, 8);
        let entry = store
            .materialize("src", &orig, TranscodeSpec::for_kind(VariantKind::Dense))
            .unwrap();
        assert_eq!(entry.covered_frames, 24);
        let m = store.manifest("src").unwrap().unwrap();
        assert_eq!(m.original_digest, orig.content_digest());
        assert_eq!(m.prefix_digest, orig.prefix_digest(24));
        assert_eq!(m.variants.len(), 1);
        let (loaded, e2) = store.load_variant("src", VariantKind::Dense).unwrap();
        assert_eq!(e2.content_digest, loaded.content_digest());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn attach_skips_replaced_source() {
        let dir = tempdir("store-attach");
        let store = SourceStore::open(&dir).unwrap();
        let orig = marked(16, 8);
        store
            .materialize("src", &orig, TranscodeSpec::for_kind(VariantKind::Dense))
            .unwrap();

        let mut catalog = Catalog::new();
        catalog.add_video("src", marked(16, 8));
        let (attached, skipped) = store.attach(&mut catalog).unwrap();
        assert_eq!((attached, skipped), (1, 0));
        assert!(catalog.variant("src", VariantKind::Dense).is_some());

        // Replace the source with different content: digests disagree,
        // so the variant must be skipped.
        let mut replaced = Catalog::new();
        let ty = FrameType::yuv420p(64, 64);
        let mut w = StreamWriter::new(CodecParams::new(ty, 8, 0), Rational::ZERO, r(1, 30));
        for _ in 0..16 {
            w.push_frame(&Frame::black(ty)).unwrap();
        }
        replaced.add_video("src", w.finish().unwrap());
        let (attached, skipped) = store.attach(&mut replaced).unwrap();
        assert_eq!(attached, 0);
        assert_eq!(skipped, 1);
        assert!(replaced.variant("src", VariantKind::Dense).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn attach_covers_prefix_of_grown_source() {
        // The live-append case: materialize over 16 frames, then the
        // source grows to 24. The variant still attaches, covering the
        // 16-frame prefix.
        let dir = tempdir("store-grow");
        let store = SourceStore::open(&dir).unwrap();
        let orig = marked(16, 8);
        store
            .materialize("src", &orig, TranscodeSpec::for_kind(VariantKind::Dense))
            .unwrap();
        let mut catalog = Catalog::new();
        catalog.add_video("src", marked(24, 8));
        let (attached, skipped) = store.attach(&mut catalog).unwrap();
        assert_eq!((attached, skipped), (1, 0));
        let v = catalog.variant("src", VariantKind::Dense).unwrap();
        assert_eq!(v.covered_frames, 16);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drop_respects_pin() {
        let dir = tempdir("store-pin");
        let store = SourceStore::open(&dir).unwrap();
        let orig = marked(8, 4);
        store
            .materialize("src", &orig, TranscodeSpec::for_kind(VariantKind::Archive))
            .unwrap();
        store.pin("src", VariantKind::Archive, true).unwrap();
        assert!(!store
            .drop_variant("src", VariantKind::Archive, false)
            .unwrap());
        assert!(store
            .drop_variant("src", VariantKind::Archive, true)
            .unwrap());
        assert!(store.manifest("src").unwrap().unwrap().variants.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Runs `op` with every path-like name against a store rooted one
    /// level below a temporary directory, asserting each is refused with
    /// `InvalidName` and nothing is written anywhere.
    fn refuses_path_like_names(
        tag: &str,
        op: impl Fn(&SourceStore, &str) -> Result<(), StoreError>,
    ) {
        let dir = tempdir(tag);
        let store = SourceStore::open(dir.join("root")).unwrap();
        for name in ["", ".", "..", "a/b", "../x", "a\\b", "a\0b", "/abs"] {
            match op(&store, name) {
                Err(StoreError::InvalidName(n)) => assert_eq!(n, name),
                other => panic!("{name:?} was not refused: {other:?}"),
            }
        }
        let entries: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(entries, ["root"]);
        assert_eq!(std::fs::read_dir(dir.join("root")).unwrap().count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_name_manifest() {
        refuses_path_like_names("name-manifest", |s, n| s.manifest(n).map(drop));
    }

    #[test]
    fn invalid_name_materialize() {
        let orig = marked(4, 4);
        let dense = TranscodeSpec::for_kind(VariantKind::Dense);
        refuses_path_like_names("name-mat", |s, n| s.materialize(n, &orig, dense).map(drop));
    }

    #[test]
    fn invalid_name_drop_variant() {
        refuses_path_like_names("name-drop", |s, n| {
            s.drop_variant(n, VariantKind::Dense, true).map(drop)
        });
    }

    #[test]
    fn invalid_name_pin() {
        refuses_path_like_names("name-pin", |s, n| s.pin(n, VariantKind::Dense, true));
    }

    #[test]
    fn invalid_name_load_variant() {
        refuses_path_like_names("name-load", |s, n| {
            s.load_variant(n, VariantKind::Dense).map(drop)
        });
    }

    #[test]
    fn invalid_name_load_variants() {
        let orig = marked(4, 4);
        refuses_path_like_names("name-loads", |s, n| s.load_variants(n, &orig).map(drop));
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("v2v-{}-{}", tag, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}
