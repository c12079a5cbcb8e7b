//! JSON annotation loading.
//!
//! Two layouts are accepted, matching how annotation tooling exports
//! per-frame data:
//!
//! **Sparse** — a list of timestamped entries (timestamps as `[num, den]`
//! pairs, plain numbers, or `"num/den"` strings):
//!
//! ```json
//! [ {"t": [1, 30], "value": [{"x":0.1,"y":0.2,"w":0.1,"h":0.1,"label":"zebra"}]},
//!   {"t": 2.0,     "value": 42} ]
//! ```
//!
//! **Dense** — a uniform grid with one value per instant:
//!
//! ```json
//! { "start": [0, 1], "step": [1, 30], "values": [null, 42, ...] }
//! ```

use crate::array::DataArray;
use crate::value::Value;
use crate::DataError;
use std::path::Path;
use v2v_time::Rational;

/// Reads one JSON instant: an integer or fractional number of seconds
/// (fractions snapped to the millisecond grid), an exact `[num, den]`,
/// or a `"num/den"` string. The one reader for annotation files and the
/// daemon's `/append-data` entries.
pub fn parse_time(v: &serde_json::Value) -> Result<Rational, DataError> {
    match v {
        serde_json::Value::Number(n) => {
            if let Some(i) = n.as_i64() {
                Ok(Rational::from_int(i))
            } else {
                // Floats are snapped to a millisecond grid to stay exact.
                let f = n.as_f64().unwrap_or(0.0);
                Ok(Rational::new((f * 1000.0).round() as i64, 1000))
            }
        }
        serde_json::Value::Array(parts) if parts.len() == 2 => {
            let num = parts[0]
                .as_i64()
                .ok_or_else(|| DataError::BadJson("rational numerator".into()))?;
            let den = parts[1]
                .as_i64()
                .ok_or_else(|| DataError::BadJson("rational denominator".into()))?;
            Rational::checked_new(num, den)
                .map_err(|e| DataError::BadJson(format!("bad rational: {e}")))
        }
        serde_json::Value::String(s) => s
            .parse()
            .map_err(|e| DataError::BadJson(format!("bad rational string: {e}"))),
        other => Err(DataError::BadJson(format!(
            "timestamp must be number, [num,den] or string, got {other}"
        ))),
    }
}

/// Parses annotation JSON text into a [`DataArray`].
pub fn parse_annotations(text: &str) -> Result<DataArray, DataError> {
    let root: serde_json::Value =
        serde_json::from_str(text).map_err(|e| DataError::BadJson(e.to_string()))?;
    match &root {
        serde_json::Value::Array(entries) => {
            let mut out = DataArray::new();
            for e in entries {
                let obj = e
                    .as_object()
                    .ok_or_else(|| DataError::BadJson("entry must be an object".into()))?;
                let t = parse_time(
                    obj.get("t")
                        .or_else(|| obj.get("timestamp"))
                        .ok_or_else(|| DataError::BadJson("entry missing 't'".into()))?,
                )?;
                let v = obj
                    .get("value")
                    .map(Value::from_json)
                    .unwrap_or(Value::Null);
                out.insert(t, v);
            }
            Ok(out)
        }
        serde_json::Value::Object(obj) => {
            let start = parse_time(
                obj.get("start")
                    .ok_or_else(|| DataError::BadJson("dense layout missing 'start'".into()))?,
            )?;
            let step = parse_time(
                obj.get("step")
                    .ok_or_else(|| DataError::BadJson("dense layout missing 'step'".into()))?,
            )?;
            if !step.is_positive() {
                return Err(DataError::BadJson("dense step must be positive".into()));
            }
            let values = obj
                .get("values")
                .and_then(|v| v.as_array())
                .ok_or_else(|| DataError::BadJson("dense layout missing 'values'".into()))?;
            let mut out = DataArray::new();
            for (k, v) in values.iter().enumerate() {
                let t = start + step * Rational::from_int(k as i64);
                out.insert(t, Value::from_json(v));
            }
            Ok(out)
        }
        _ => Err(DataError::BadJson(
            "annotations must be a list or a dense object".into(),
        )),
    }
}

/// Loads an annotation file from disk.
pub fn load_annotations(path: impl AsRef<Path>) -> Result<DataArray, DataError> {
    let text = std::fs::read_to_string(path)?;
    parse_annotations(&text)
}

/// Serializes a [`DataArray`] to sparse annotation JSON.
pub fn to_annotation_json(array: &DataArray) -> String {
    let entries: Vec<serde_json::Value> = array
        .iter()
        .map(|(t, v)| {
            serde_json::json!({
                "t": [t.num(), t.den()],
                "value": v.to_json(),
            })
        })
        .collect();
    serde_json::to_string_pretty(&entries).expect("annotation JSON is serializable")
}

#[cfg(test)]
mod tests {
    use super::*;
    use v2v_time::r;

    #[test]
    fn sparse_layout_parses() {
        let a = parse_annotations(
            r#"[
                {"t": [1, 30], "value": 5},
                {"t": 2, "value": "zebra"},
                {"t": "1/2", "value": null},
                {"timestamp": 0.25, "value": true}
            ]"#,
        )
        .unwrap();
        assert_eq!(a.get(r(1, 30)), &Value::Int(5));
        assert_eq!(a.get(r(2, 1)), &Value::Str("zebra".into()));
        assert_eq!(a.get(r(1, 2)), &Value::Null);
        assert_eq!(a.get(r(1, 4)), &Value::Bool(true));
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn dense_layout_parses() {
        let a =
            parse_annotations(r#"{"start": [0, 1], "step": [1, 2], "values": [1, 2, 3]}"#).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a.get(r(1, 2)), &Value::Int(2));
        assert_eq!(a.get(r(1, 1)), &Value::Int(3));
    }

    #[test]
    fn boxes_in_sparse_layout() {
        let a = parse_annotations(
            r#"[{"t": [0,1], "value": [{"x":0.1,"y":0.1,"w":0.2,"h":0.2,"label":"car"}]}]"#,
        )
        .unwrap();
        let boxes = a.get(r(0, 1)).as_boxes().unwrap();
        assert_eq!(boxes.len(), 1);
        assert_eq!(boxes[0].label, "car");
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse_annotations("42").is_err());
        assert!(parse_annotations(r#"[{"value": 3}]"#).is_err());
        assert!(parse_annotations(r#"[{"t": [1, 0], "value": 3}]"#).is_err());
        assert!(parse_annotations(r#"{"start": [0,1], "step": [0,1], "values": []}"#).is_err());
        assert!(parse_annotations("not json").is_err());
    }

    #[test]
    fn round_trip_through_text() {
        let a =
            DataArray::from_pairs([(r(0, 1), Value::Int(1)), (r(1, 30), Value::Str("x".into()))]);
        let text = to_annotation_json(&a);
        let back = parse_annotations(&text).unwrap();
        assert_eq!(back.get(r(0, 1)), &Value::Int(1));
        assert_eq!(back.get(r(1, 30)), &Value::Str("x".into()));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("v2v_data_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("annot.json");
        let a = DataArray::from_pairs([(r(1, 24), Value::Float(0.5))]);
        std::fs::write(&path, to_annotation_json(&a)).unwrap();
        let back = load_annotations(&path).unwrap();
        assert_eq!(back.get(r(1, 24)), &Value::Float(0.5));
        std::fs::remove_file(&path).unwrap();
    }
}
