//! Scalar and vector values, with a self-describing binary encoding.

use crate::error::{Error, Result};
use bytes::{Buf, BufMut};
use std::fmt;

/// A single value in a tuple.
///
/// `Vector` carries a dense feature vector in one column — the layout
/// inference queries prefer, since a 28- or 968-feature row would otherwise
/// need that many scalar columns.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 32-bit float (the tensor element type).
    Float(f32),
    /// UTF-8 text.
    Text(String),
    /// Dense `f32` vector.
    Vector(Vec<f32>),
    /// Raw bytes (serialized tensor blocks, model fragments, ...).
    Blob(Vec<u8>),
}

const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_TEXT: u8 = 3;
const TAG_VECTOR: u8 = 4;
const TAG_BLOB: u8 = 5;

impl Value {
    /// The value's data type.
    pub fn dtype(&self) -> crate::schema::DataType {
        use crate::schema::DataType;
        match self {
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Text(_) => DataType::Text,
            Value::Vector(_) => DataType::Vector,
            Value::Blob(_) => DataType::Blob,
        }
    }

    /// Extract a float, coercing integers.
    pub fn as_float(&self) -> Result<f32> {
        match self {
            Value::Float(v) => Ok(*v),
            Value::Int(v) => Ok(*v as f32),
            other => Err(Error::TypeError(format!("{other:?} is not a float"))),
        }
    }

    /// Extract a vector reference.
    pub fn as_vector(&self) -> Result<&[f32]> {
        match self {
            Value::Vector(v) => Ok(v),
            other => Err(Error::TypeError(format!("{other:?} is not a vector"))),
        }
    }

    /// Encoded size in bytes (tag + payload).
    pub fn encoded_len(&self) -> usize {
        1 + match self {
            Value::Int(_) => 8,
            Value::Float(_) => 4,
            Value::Text(s) => 4 + s.len(),
            Value::Vector(v) => 4 + v.len() * 4,
            Value::Blob(b) => 4 + b.len(),
        }
    }

    /// Append the encoding to `buf`.
    pub fn encode(&self, buf: &mut impl BufMut) {
        match self {
            Value::Int(v) => {
                buf.put_u8(TAG_INT);
                buf.put_i64_le(*v);
            }
            Value::Float(v) => {
                buf.put_u8(TAG_FLOAT);
                buf.put_f32_le(*v);
            }
            Value::Text(s) => {
                buf.put_u8(TAG_TEXT);
                buf.put_u32_le(s.len() as u32);
                buf.put_slice(s.as_bytes());
            }
            Value::Vector(v) => {
                buf.put_u8(TAG_VECTOR);
                buf.put_u32_le(v.len() as u32);
                for x in v {
                    buf.put_f32_le(*x);
                }
            }
            Value::Blob(b) => {
                buf.put_u8(TAG_BLOB);
                buf.put_u32_le(b.len() as u32);
                buf.put_slice(b);
            }
        }
    }

    /// Decode one value from `buf`, advancing it.
    pub fn decode(buf: &mut impl Buf) -> Result<Value> {
        if buf.remaining() < 1 {
            return Err(Error::Codec("empty buffer".into()));
        }
        let tag = buf.get_u8();
        let need = |buf: &mut dyn Buf, n: usize| -> Result<()> {
            if buf.remaining() < n {
                Err(Error::Codec(format!(
                    "need {n} bytes, have {}",
                    buf.remaining()
                )))
            } else {
                Ok(())
            }
        };
        match tag {
            TAG_INT => {
                need(buf, 8)?;
                Ok(Value::Int(buf.get_i64_le()))
            }
            TAG_FLOAT => {
                need(buf, 4)?;
                Ok(Value::Float(buf.get_f32_le()))
            }
            TAG_TEXT => {
                need(buf, 4)?;
                let len = buf.get_u32_le() as usize;
                need(buf, len)?;
                let mut bytes = vec![0u8; len];
                buf.copy_to_slice(&mut bytes);
                String::from_utf8(bytes)
                    .map(Value::Text)
                    .map_err(|e| Error::Codec(format!("invalid utf8: {e}")))
            }
            TAG_VECTOR => {
                need(buf, 4)?;
                let len = buf.get_u32_le() as usize;
                need(buf, len * 4)?;
                let mut v = Vec::with_capacity(len);
                for _ in 0..len {
                    v.push(buf.get_f32_le());
                }
                Ok(Value::Vector(v))
            }
            TAG_BLOB => {
                need(buf, 4)?;
                let len = buf.get_u32_le() as usize;
                need(buf, len)?;
                let mut b = vec![0u8; len];
                buf.copy_to_slice(&mut b);
                Ok(Value::Blob(b))
            }
            other => Err(Error::Codec(format!("unknown value tag {other}"))),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Text(s) => write!(f, "{s:?}"),
            Value::Vector(v) => write!(f, "vec[{}]", v.len()),
            Value::Blob(b) => write!(f, "blob[{}]", b.len()),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f32> for Value {
    fn from(v: f32) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}

impl From<Vec<f32>> for Value {
    fn from(v: Vec<f32>) -> Self {
        Value::Vector(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: Value) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        assert_eq!(buf.len(), v.encoded_len());
        let mut slice = buf.as_slice();
        let back = Value::decode(&mut slice).unwrap();
        assert_eq!(back, v);
        assert!(slice.is_empty());
    }

    #[test]
    fn roundtrip_all_variants() {
        roundtrip(Value::Int(-42));
        roundtrip(Value::Float(3.5));
        roundtrip(Value::Text("héllo".into()));
        roundtrip(Value::Vector(vec![1.0, -2.0, 3.25]));
        roundtrip(Value::Blob(vec![0, 255, 128]));
        roundtrip(Value::Vector(vec![]));
        roundtrip(Value::Text(String::new()));
    }

    #[test]
    fn decode_rejects_garbage() {
        let mut slice: &[u8] = &[99, 1, 2, 3];
        assert!(Value::decode(&mut slice).is_err());
        let mut empty: &[u8] = &[];
        assert!(Value::decode(&mut empty).is_err());
        let mut truncated: &[u8] = &[TAG_INT, 1, 2];
        assert!(Value::decode(&mut truncated).is_err());
    }

    #[test]
    fn coercions() {
        assert_eq!(Value::Int(3).as_float().unwrap(), 3.0);
        assert!(Value::Text("x".into()).as_float().is_err());
        assert_eq!(Value::Vector(vec![1.0]).as_vector().unwrap(), &[1.0]);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Value::Vector(vec![0.0; 968]).to_string(), "vec[968]");
        assert_eq!(Value::Int(7).to_string(), "7");
    }
}
