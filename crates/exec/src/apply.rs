//! Frame program interpretation: one output frame per call.

use crate::ExecError;
use std::collections::BTreeMap;
use std::sync::Arc;
use v2v_data::{DataArray, Value};
use v2v_frame::{ops, Frame};
use v2v_plan::{FrameProgram, ProgArg};
use v2v_spec::TransformOp;
use v2v_time::Rational;

/// A user-defined transformation kernel (paper §III-C UDFs).
///
/// `frames`/`data` arrive in the signature's frame/data order; the
/// kernel returns the transformed frame or a message surfaced as a
/// [`crate::ExecError::UdfFailed`].
pub trait UdfKernel: Send + Sync {
    /// Applies the UDF at instant `t`.
    fn apply(&self, t: Rational, frames: &[Frame], data: &[Value]) -> Result<Frame, String>;
}

impl<F> UdfKernel for F
where
    F: Fn(Rational, &[Frame], &[Value]) -> Result<Frame, String> + Send + Sync,
{
    fn apply(&self, t: Rational, frames: &[Frame], data: &[Value]) -> Result<Frame, String> {
        self(t, frames, data)
    }
}

/// Resolves overlay-image locators and UDF kernels (usually backed by
/// the catalog).
pub trait ImageSource {
    /// The image bound to `locator`, if any.
    fn image(&self, locator: &str) -> Option<Arc<Frame>>;

    /// The kernel registered for UDF `id`, if any.
    fn udf(&self, _id: u16) -> Option<Arc<dyn UdfKernel>> {
        None
    }
}

impl ImageSource for crate::Catalog {
    fn image(&self, locator: &str) -> Option<Arc<Frame>> {
        // Inherent `Catalog::image` takes precedence over this trait
        // method, so this is a plain delegation, not recursion.
        crate::Catalog::image(self, locator).cloned()
    }

    fn udf(&self, id: u16) -> Option<Arc<dyn UdfKernel>> {
        self.udf_kernel(id)
    }
}

/// No images or UDFs bound (programs without overlays/UDFs).
pub struct NoImages;

impl ImageSource for NoImages {
    fn image(&self, _: &str) -> Option<Arc<Frame>> {
        None
    }
}

fn num(op: TransformOp, index: usize, v: &Value) -> Result<f64, ExecError> {
    v.as_f64().ok_or(ExecError::BadArgument {
        op,
        index,
        want: "number",
        got: v.type_name(),
    })
}

/// Largest Gaussian σ a program may ask for: `2·ceil(3σ)+1` = 385 taps.
const MAX_BLUR_SIGMA: f32 = 64.0;

/// Largest picture-in-picture inset, as a fraction of the base width.
const MAX_PIP_SCALE: f32 = 1.0;

/// A number argument that sizes an allocation (a kernel, an output
/// raster): it must be finite and at most `max` as the `f32` the kernel
/// receives, so a request cannot abort the process or hold a render
/// thread with a huge or overflowing value.
fn bounded(
    op: TransformOp,
    index: usize,
    v: &Value,
    max: f32,
    want: &'static str,
) -> Result<f32, ExecError> {
    let x = num(op, index, v)? as f32;
    if x.is_finite() && x <= max {
        Ok(x)
    } else {
        Err(ExecError::BadArgument {
            op,
            index,
            want,
            got: "out-of-range number",
        })
    }
}

fn string(op: TransformOp, index: usize, v: &Value) -> Result<&str, ExecError> {
    v.as_str().ok_or(ExecError::BadArgument {
        op,
        index,
        want: "string",
        got: v.type_name(),
    })
}

/// Evaluates `program` at domain instant `t`.
///
/// `inputs` holds the already-decoded (and type-conformed) frame for each
/// input slot; `arrays` back data expressions; `images` resolves overlay
/// locators.
pub fn apply_program(
    program: &FrameProgram,
    t: Rational,
    inputs: &[Arc<Frame>],
    arrays: &BTreeMap<String, DataArray>,
    images: &dyn ImageSource,
) -> Result<Frame, ExecError> {
    match program {
        FrameProgram::Input(n) => Ok(inputs[*n].as_ref().clone()),
        FrameProgram::Op { op, args } => {
            // Evaluate arguments in signature order.
            let mut frames: Vec<Frame> = Vec::new();
            let mut data: Vec<Value> = Vec::new();
            for a in args {
                match a {
                    ProgArg::Frame(f) => frames.push(apply_program(f, t, inputs, arrays, images)?),
                    ProgArg::Data(d) => data.push(d.eval(t, arrays)),
                }
            }
            apply_op(*op, t, frames, data, images)
        }
    }
}

fn apply_op(
    op: TransformOp,
    t: Rational,
    frames: Vec<Frame>,
    data: Vec<Value>,
    images: &dyn ImageSource,
) -> Result<Frame, ExecError> {
    use TransformOp as Op;
    let f0 = || &frames[0];
    match op {
        Op::Udf(id) => {
            let kernel = images.udf(id).ok_or(ExecError::UnknownUdf(id))?;
            kernel
                .apply(t, &frames, &data)
                .map_err(|message| ExecError::UdfFailed { id, message })
        }
        Op::Identity => Ok(frames.into_iter().next().expect("typed arity")),
        Op::Zoom => {
            let factor = num(op, 1, &data[0])?;
            Ok(ops::zoom(f0(), factor))
        }
        Op::ZoomAt => {
            let factor = num(op, 1, &data[0])?;
            let cx = num(op, 2, &data[1])? as f32;
            let cy = num(op, 3, &data[2])? as f32;
            Ok(ops::zoom_at(f0(), factor, cx, cy))
        }
        Op::Crop => {
            let f = f0();
            let (w, h) = (f.width() as f64, f.height() as f64);
            let x = (num(op, 1, &data[0])? * w) as u32;
            let y = (num(op, 2, &data[1])? * h) as u32;
            let cw = (num(op, 3, &data[2])? * w).max(1.0) as u32;
            let ch = (num(op, 4, &data[3])? * h).max(1.0) as u32;
            let cropped = ops::crop(f, x, y, cw, ch);
            // Keep the pipeline frame type uniform.
            Ok(ops::conform(cropped, f.ty()))
        }
        Op::Overlay => {
            let path = string(op, 1, &data[0])?;
            let img = images
                .image(path)
                .ok_or_else(|| ExecError::UnknownImage(path.to_string()))?;
            Ok(ops::overlay(f0(), &img, 0, 0, 255))
        }
        Op::OverlayAt => {
            let path = string(op, 1, &data[0])?;
            let img = images
                .image(path)
                .ok_or_else(|| ExecError::UnknownImage(path.to_string()))?;
            let f = f0();
            let x = (num(op, 2, &data[1])? * f.width() as f64) as usize;
            let y = (num(op, 3, &data[2])? * f.height() as f64) as usize;
            let alpha = (num(op, 4, &data[3])?.clamp(0.0, 1.0) * 255.0) as u8;
            Ok(ops::overlay(f, &img, x, y, alpha))
        }
        Op::BoundingBox => {
            let boxes = data[0].as_boxes().ok_or(ExecError::BadArgument {
                op,
                index: 1,
                want: "boxes",
                got: data[0].type_name(),
            })?;
            Ok(ops::draw_bounding_boxes(f0(), boxes))
        }
        Op::Highlight => {
            let boxes = data[0].as_boxes().ok_or(ExecError::BadArgument {
                op,
                index: 1,
                want: "boxes",
                got: data[0].type_name(),
            })?;
            let dim = num(op, 2, &data[1])? as f32;
            Ok(ops::highlight_regions(f0(), boxes, dim))
        }
        Op::TextOverlay => {
            let text = match &data[0] {
                // Convenience: numbers and rationals render as text too.
                Value::Str(s) => s.clone(),
                Value::Null => String::new(),
                other => other.to_string(),
            };
            let f = f0();
            let x = (num(op, 2, &data[1])? * f.width() as f64) as i64;
            let y = (num(op, 3, &data[2])? * f.height() as f64) as i64;
            if text.is_empty() {
                return Ok(f.clone());
            }
            let mut out = f.clone();
            let scale = (f.height() / 180).max(1) as u32;
            v2v_frame::draw::label(
                &mut out,
                x,
                y,
                &text,
                scale,
                ops::Rgb::WHITE,
                ops::Rgb::BLACK,
            );
            Ok(out)
        }
        Op::Grid => Ok(ops::grid(&frames, ops::GridLayout::QUAD, frames[0].ty())),
        Op::Blur => {
            let sigma = bounded(op, 1, &data[0], MAX_BLUR_SIGMA, "finite number ≤ 64")?;
            Ok(ops::gaussian_blur(f0(), sigma))
        }
        Op::Sharpen => {
            let amount = num(op, 1, &data[0])? as f32;
            Ok(ops::sharpen(f0(), amount))
        }
        Op::Denoise => Ok(ops::median_denoise(f0())),
        Op::EdgeDetect => Ok(ops::edge_detect(f0())),
        Op::Grayscale => Ok(ops::grayscale(f0())),
        Op::Invert => Ok(ops::invert(f0())),
        Op::Brightness => {
            let b = num(op, 1, &data[0])? as f32;
            let c = num(op, 2, &data[1])? as f32;
            Ok(ops::brightness_contrast(f0(), b, c))
        }
        Op::ColorGrade => {
            let gamma = num(op, 1, &data[0])? as f32;
            let sat = num(op, 2, &data[1])? as f32;
            Ok(ops::color_grade(f0(), gamma, sat))
        }
        Op::IfThenElse => {
            // NULL conditions take the else branch (SQL semantics).
            let cond = data[0].as_bool().unwrap_or(false);
            let mut it = frames.into_iter();
            let then_f = it.next().expect("typed arity");
            let else_f = it.next().expect("typed arity");
            Ok(if cond { then_f } else { else_f })
        }
        Op::Crossfade => {
            let alpha = num(op, 2, &data[0])? as f32;
            Ok(ops::crossfade(&frames[0], &frames[1], alpha))
        }
        Op::FadeToBlack => {
            let alpha = num(op, 1, &data[0])? as f32;
            Ok(ops::fade_to_black(f0(), alpha))
        }
        Op::Stabilize => {
            let dx = num(op, 1, &data[0])? as f32;
            let dy = num(op, 2, &data[1])? as f32;
            let margin = num(op, 3, &data[2])? as f32;
            Ok(ops::stabilize_crop(f0(), dx, dy, margin))
        }
        Op::PictureInPicture => {
            let x = num(op, 2, &data[0])? as f32;
            let y = num(op, 3, &data[1])? as f32;
            let scale = bounded(op, 4, &data[2], MAX_PIP_SCALE, "finite number ≤ 1")?;
            Ok(ops::picture_in_picture(&frames[0], &frames[1], x, y, scale))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v2v_frame::FrameType;
    use v2v_spec::DataExpr;
    use v2v_time::r;

    fn solid(luma: u8) -> Arc<Frame> {
        let mut f = Frame::black(FrameType::gray8(64, 64));
        for v in f.plane_mut(0).data_mut() {
            *v = luma;
        }
        Arc::new(f)
    }

    fn prog(op: TransformOp, args: Vec<ProgArg>) -> FrameProgram {
        FrameProgram::Op { op, args }
    }

    #[test]
    fn input_slots_resolve() {
        let p = FrameProgram::Input(1);
        let out = apply_program(
            &p,
            r(0, 1),
            &[solid(1), solid(2)],
            &BTreeMap::new(),
            &NoImages,
        )
        .unwrap();
        assert_eq!(out.plane(0).get(0, 0), 2);
    }

    #[test]
    fn if_then_else_branches_on_data() {
        let mut arrays = BTreeMap::new();
        arrays.insert(
            "a".to_string(),
            DataArray::from_pairs([(r(0, 1), Value::Int(3)), (r(1, 1), Value::Int(9))]),
        );
        let p = prog(
            TransformOp::IfThenElse,
            vec![
                ProgArg::Data(DataExpr::lt(DataExpr::array("a"), DataExpr::constant(5i64))),
                ProgArg::Frame(FrameProgram::Input(0)),
                ProgArg::Frame(FrameProgram::Input(1)),
            ],
        );
        let inputs = [solid(100), solid(200)];
        let at0 = apply_program(&p, r(0, 1), &inputs, &arrays, &NoImages).unwrap();
        assert_eq!(at0.plane(0).get(0, 0), 100);
        let at1 = apply_program(&p, r(1, 1), &inputs, &arrays, &NoImages).unwrap();
        assert_eq!(at1.plane(0).get(0, 0), 200);
        // Missing data → NULL → else branch.
        let at9 = apply_program(&p, r(9, 1), &inputs, &arrays, &NoImages).unwrap();
        assert_eq!(at9.plane(0).get(0, 0), 200);
    }

    #[test]
    fn bounding_box_empty_is_identity() {
        let mut arrays = BTreeMap::new();
        arrays.insert("bb".to_string(), DataArray::new());
        let p = prog(
            TransformOp::BoundingBox,
            vec![
                ProgArg::Frame(FrameProgram::Input(0)),
                ProgArg::Data(DataExpr::array("bb")),
            ],
        );
        let input = solid(50);
        let out = apply_program(
            &p,
            r(0, 1),
            std::slice::from_ref(&input),
            &arrays,
            &NoImages,
        )
        .unwrap();
        assert_eq!(out, *input);
    }

    #[test]
    fn missing_overlay_image_errors() {
        let p = prog(
            TransformOp::Overlay,
            vec![
                ProgArg::Frame(FrameProgram::Input(0)),
                ProgArg::Data(DataExpr::constant("ghost.png")),
            ],
        );
        let err = apply_program(&p, r(0, 1), &[solid(0)], &BTreeMap::new(), &NoImages);
        assert!(matches!(err, Err(ExecError::UnknownImage(_))));
    }

    #[test]
    fn bad_argument_type_errors() {
        let p = prog(
            TransformOp::Blur,
            vec![
                ProgArg::Frame(FrameProgram::Input(0)),
                ProgArg::Data(DataExpr::constant("not a number")),
            ],
        );
        let err = apply_program(&p, r(0, 1), &[solid(0)], &BTreeMap::new(), &NoImages);
        assert!(matches!(err, Err(ExecError::BadArgument { .. })));
    }

    /// Runs `op` over solid inputs with number arguments `args`.
    fn apply_numbers(op: TransformOp, frames: usize, args: &[f64]) -> Result<Frame, ExecError> {
        let mut prog_args: Vec<ProgArg> = (0..frames)
            .map(|i| ProgArg::Frame(FrameProgram::Input(i)))
            .collect();
        prog_args.extend(args.iter().map(|&a| ProgArg::Data(DataExpr::constant(a))));
        let inputs: Vec<Arc<Frame>> = (0..frames).map(|_| solid(90)).collect();
        apply_program(
            &prog(op, prog_args),
            r(0, 1),
            &inputs,
            &BTreeMap::new(),
            &NoImages,
        )
    }

    #[test]
    fn huge_blur_sigma_is_a_bad_argument() {
        // At 1e9 the kernel alone would be 24 GB: the process aborted.
        let err = apply_numbers(TransformOp::Blur, 1, &[1e9]);
        assert!(
            matches!(err, Err(ExecError::BadArgument { index: 1, .. })),
            "{err:?}"
        );
        assert!(apply_numbers(TransformOp::Blur, 1, &[64.5]).is_err());
        assert!(apply_numbers(TransformOp::Blur, 1, &[64.0]).is_ok());
        assert!(apply_numbers(TransformOp::Blur, 1, &[1.2]).is_ok());
    }

    #[test]
    fn overflowing_blur_sigma_is_a_bad_argument() {
        // 1e300 narrows to an infinite f32: the kernel's capacity overflowed.
        let err = apply_numbers(TransformOp::Blur, 1, &[1e300]);
        assert!(
            matches!(err, Err(ExecError::BadArgument { index: 1, .. })),
            "{err:?}"
        );
    }

    #[test]
    fn oversized_pip_scale_is_a_bad_argument() {
        let pip = TransformOp::PictureInPicture;
        let err = apply_numbers(pip, 2, &[0.5, 0.5, 1e6]);
        assert!(
            matches!(err, Err(ExecError::BadArgument { index: 4, .. })),
            "{err:?}"
        );
        assert!(apply_numbers(pip, 2, &[0.5, 0.5, 1e300]).is_err());
        assert!(apply_numbers(pip, 2, &[0.5, 0.5, 1.0]).is_ok());
        assert!(apply_numbers(pip, 2, &[0.5, 0.5, 0.25]).is_ok());
    }

    #[test]
    fn nested_program_applies_in_order() {
        // Brightness(+50) then Invert: 0 → 50 → 205.
        let inner = prog(
            TransformOp::Brightness,
            vec![
                ProgArg::Frame(FrameProgram::Input(0)),
                ProgArg::Data(DataExpr::constant(50.0f64)),
                ProgArg::Data(DataExpr::constant(1.0f64)),
            ],
        );
        let p = prog(TransformOp::Invert, vec![ProgArg::Frame(inner)]);
        let out = apply_program(&p, r(0, 1), &[solid(0)], &BTreeMap::new(), &NoImages).unwrap();
        assert_eq!(out.plane(0).get(0, 0), 205);
    }

    #[test]
    fn grid_composes_four_inputs() {
        let p = prog(
            TransformOp::Grid,
            (0..4)
                .map(|i| ProgArg::Frame(FrameProgram::Input(i)))
                .collect(),
        );
        let inputs = [solid(10), solid(20), solid(30), solid(40)];
        let out = apply_program(&p, r(0, 1), &inputs, &BTreeMap::new(), &NoImages).unwrap();
        assert_eq!(out.plane(0).get(10, 10), 10);
        assert_eq!(out.plane(0).get(50, 50), 40);
    }

    #[test]
    fn text_overlay_with_null_is_identity() {
        let p = prog(
            TransformOp::TextOverlay,
            vec![
                ProgArg::Frame(FrameProgram::Input(0)),
                ProgArg::Data(DataExpr::constant(Value::Null)),
                ProgArg::Data(DataExpr::constant(0.1f64)),
                ProgArg::Data(DataExpr::constant(0.1f64)),
            ],
        );
        let input = solid(7);
        let out = apply_program(
            &p,
            r(0, 1),
            std::slice::from_ref(&input),
            &BTreeMap::new(),
            &NoImages,
        )
        .unwrap();
        assert_eq!(out, *input);
    }
}
