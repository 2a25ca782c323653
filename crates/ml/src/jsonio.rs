//! JSON (de)serialization helpers shared by the model-artifact support.
//!
//! `em_rt::Json` renders non-finite numbers as `null`, so every float that
//! can legitimately be NaN or ±∞ (Gaussian-NB log-priors, stored k-NN
//! training rows) goes through [`num`], which encodes the three non-finite
//! values as the strings `"NaN"`, `"inf"`, and `"-inf"`. Finite values stay
//! `Json::Num` and round-trip exactly (the renderer emits the shortest
//! representation that parses back to the same bits). `u64` seeds are
//! encoded as decimal strings because values above 2^53 cannot survive the
//! `f64` detour a JSON number would take.

use crate::matrix::Matrix;
use em_rt::Json;

/// Encode an `f64`, mapping NaN/±∞ to sentinel strings so they survive the
/// JSON round trip.
pub fn num(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(v)
    } else if v.is_nan() {
        Json::Str("NaN".to_string())
    } else if v > 0.0 {
        Json::Str("inf".to_string())
    } else {
        Json::Str("-inf".to_string())
    }
}

/// Decode an `f64` written by [`num`].
pub fn as_f64(j: &Json) -> Result<f64, String> {
    match j {
        Json::Num(v) => Ok(*v),
        Json::Str(s) => match s.as_str() {
            "NaN" => Ok(f64::NAN),
            "inf" => Ok(f64::INFINITY),
            "-inf" => Ok(f64::NEG_INFINITY),
            other => Err(format!("expected a number, found string {other:?}")),
        },
        other => Err(format!("expected a number, found {other:?}")),
    }
}

/// Encode a float slice as a JSON array via [`num`].
pub fn nums(vs: &[f64]) -> Json {
    Json::arr(vs.iter().map(|&v| num(v)))
}

/// Decode a float array written by [`nums`].
pub fn f64_vec(j: &Json) -> Result<Vec<f64>, String> {
    j.as_arr()
        .ok_or_else(|| "expected an array of numbers".to_string())?
        .iter()
        .map(as_f64)
        .collect()
}

/// Decode a non-negative integer.
pub fn as_usize(j: &Json) -> Result<usize, String> {
    let v = as_f64(j)?;
    if v.is_finite() && v >= 0.0 && v.fract() == 0.0 {
        Ok(v as usize)
    } else {
        Err(format!("expected a non-negative integer, found {v}"))
    }
}

/// Decode an array of non-negative integers.
pub fn usize_vec(j: &Json) -> Result<Vec<usize>, String> {
    j.as_arr()
        .ok_or_else(|| "expected an array of integers".to_string())?
        .iter()
        .map(as_usize)
        .collect()
}

/// Encode a `u64` exactly (as a decimal string — JSON numbers go through
/// `f64` and lose precision above 2^53).
pub fn u64_str(v: u64) -> Json {
    Json::Str(v.to_string())
}

/// Decode a `u64` written by [`u64_str`] (a plain JSON integer is also
/// accepted when it is exactly representable).
pub fn as_u64(j: &Json) -> Result<u64, String> {
    match j {
        Json::Str(s) => s
            .parse::<u64>()
            .map_err(|e| format!("invalid u64 {s:?}: {e}")),
        Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) => Ok(*v as u64),
        other => Err(format!("expected a u64, found {other:?}")),
    }
}

/// Decode a boolean.
pub fn as_bool(j: &Json) -> Result<bool, String> {
    match j {
        Json::Bool(b) => Ok(*b),
        other => Err(format!("expected a bool, found {other:?}")),
    }
}

/// Decode a string.
pub fn as_str(j: &Json) -> Result<&str, String> {
    j.as_str().ok_or_else(|| "expected a string".to_string())
}

/// Look up a required object field.
pub fn field<'a>(j: &'a Json, key: &str) -> Result<&'a Json, String> {
    j.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

/// Encode an optional count (`None` → `null`).
pub fn opt_usize(v: Option<usize>) -> Json {
    match v {
        Some(n) => Json::from(n),
        None => Json::Null,
    }
}

/// Decode an optional count written by [`opt_usize`].
pub fn as_opt_usize(j: &Json) -> Result<Option<usize>, String> {
    match j {
        Json::Null => Ok(None),
        other => as_usize(other).map(Some),
    }
}

/// Encode a dense matrix as `{rows, cols, data}` (row-major).
pub fn matrix_to_json(m: &Matrix) -> Json {
    Json::obj([
        ("rows", Json::from(m.nrows())),
        ("cols", Json::from(m.ncols())),
        ("data", nums(m.as_slice())),
    ])
}

/// Decode a matrix written by [`matrix_to_json`].
pub fn matrix_from_json(j: &Json) -> Result<Matrix, String> {
    let rows = as_usize(field(j, "rows")?)?;
    let cols = as_usize(field(j, "cols")?)?;
    let data = f64_vec(field(j, "data")?)?;
    if data.len() != rows * cols {
        return Err(format!(
            "matrix data length {} != {rows}x{cols}",
            data.len()
        ));
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

/// The object `j` with field `key` set to `value` (tests corrupt saved
/// documents, or give them back fields an older format wrote, with it).
#[cfg(test)]
pub(crate) fn with_field(j: Json, key: &str, value: Json) -> Json {
    let Json::Obj(mut fields) = j else {
        panic!("not an object: {j:?}")
    };
    fields.retain(|(k, _)| k != key);
    fields.push((key.to_string(), value));
    Json::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_finite_floats_round_trip() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.5, -0.25] {
            let j = Json::parse(&num(v).render()).unwrap();
            let back = as_f64(&j).unwrap();
            assert!(back == v || (back.is_nan() && v.is_nan()), "{v} -> {back}");
        }
    }

    #[test]
    fn awkward_floats_round_trip_exactly() {
        for v in [
            0.1 + 0.2,
            1e-300,
            f64::MIN_POSITIVE,
            f64::MAX,
            -1.0 / 3.0,
            2f64.powi(60),
        ] {
            let j = Json::parse(&num(v).render()).unwrap();
            assert_eq!(as_f64(&j).unwrap().to_bits(), v.to_bits(), "{v}");
        }
    }

    #[test]
    fn u64_round_trips_above_2_53() {
        for v in [0u64, u64::MAX, 0x9E37_79B9_7F4A_7C15] {
            let j = Json::parse(&u64_str(v).render()).unwrap();
            assert_eq!(as_u64(&j).unwrap(), v);
        }
    }

    #[test]
    fn matrix_round_trips() {
        let m = Matrix::from_vec(2, 3, vec![1.0, f64::NAN, 0.5, -2.0, 1e-12, 3.0]);
        let j = Json::parse(&matrix_to_json(&m).render()).unwrap();
        let back = matrix_from_json(&j).unwrap();
        assert_eq!(back.nrows(), 2);
        assert_eq!(back.ncols(), 3);
        for (a, b) in m.as_slice().iter().zip(back.as_slice()) {
            assert!(a.to_bits() == b.to_bits());
        }
    }
}
