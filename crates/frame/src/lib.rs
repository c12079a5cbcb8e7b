#![warn(missing_docs)]

//! Frame data model and raster filter kernels for V2V.
//!
//! In the V2V data model (paper §III-A) a *frame* is the smallest unit of
//! information: typed raster data at a rational timestamp. This crate
//! provides:
//!
//! * [`FrameType`] / [`PixelFormat`] — the static type of a frame
//!   (dimensions, pixel layout, colour space), used by the spec checker;
//! * [`Frame`] / [`Plane`] — owned raster buffers (planar, 8-bit);
//! * colour conversion between `yuv420p` (the codec-native format) and
//!   `rgb24`;
//! * the filter kernel library behind the paper's `Filter` operator
//!   (§III-C): zoom, crop, grid composition, overlays, bounding boxes,
//!   text annotation, Gaussian blur, sharpen, denoise, edge detection,
//!   colour grading, transitions, stabilization, background replacement;
//! * [`ppm`] — dependency-free still export (view any output frame);
//! * [`marker`] — frame-index markers embedded in pixels, the mechanism
//!   the paper used ("we preprocessed the film to overlay frame
//!   information") to verify every operation is frame-exact.

pub mod draw;
pub mod font;
pub mod format;
pub mod frame;
pub mod marker;
pub mod ops;
pub mod ppm;

pub use format::{ColorSpace, FrameType, PixelFormat};
pub use frame::{Frame, FrameError, Plane};
pub use ops::{BoxCoord, GridLayout, Rgb};
