//! Tuples and their storage encoding.

use crate::error::{Error, Result};
use crate::schema::Schema;
use crate::value::Value;
use bytes::{Buf, BufMut};

/// An ordered list of values, matching some schema positionally.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    /// Build a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple { values }
    }

    /// Number of values.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// The values in order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value at column `i`.
    pub fn value(&self, i: usize) -> Result<&Value> {
        self.values
            .get(i)
            .ok_or_else(|| Error::UnknownColumn(format!("#{i}")))
    }

    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        2 + self.values.iter().map(Value::encoded_len).sum::<usize>()
    }

    /// Encode into a fresh byte vector.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        buf.put_u16_le(self.values.len() as u16);
        for v in &self.values {
            v.encode(&mut buf);
        }
        buf
    }

    /// Decode a tuple from bytes.
    pub fn decode(bytes: &[u8]) -> Result<Tuple> {
        let mut buf = bytes;
        if buf.remaining() < 2 {
            return Err(Error::Codec("tuple shorter than header".into()));
        }
        let n = buf.get_u16_le() as usize;
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            values.push(Value::decode(&mut buf)?);
        }
        if buf.has_remaining() {
            return Err(Error::Codec(format!(
                "{} trailing bytes after tuple",
                buf.remaining()
            )));
        }
        Ok(Tuple { values })
    }

    /// Decode and validate against a schema.
    pub fn decode_checked(bytes: &[u8], schema: &Schema) -> Result<Tuple> {
        let t = Self::decode(bytes)?;
        schema.check(&t.values)?;
        Ok(t)
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, DataType};
    use proptest::prelude::*;

    #[test]
    fn encode_decode_roundtrip() {
        let t = Tuple::new(vec![
            Value::Int(7),
            Value::Text("row".into()),
            Value::Vector(vec![1.0, 2.0]),
        ]);
        let bytes = t.encode();
        assert_eq!(bytes.len(), t.encoded_len());
        assert_eq!(Tuple::decode(&bytes).unwrap(), t);
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let t = Tuple::new(vec![Value::Int(1)]);
        let mut bytes = t.encode();
        bytes.push(0xff);
        assert!(Tuple::decode(&bytes).is_err());
    }

    #[test]
    fn decode_checked_validates_schema() {
        let schema = Schema::new(vec![Column::new("id", DataType::Int)]);
        let good = Tuple::new(vec![Value::Int(1)]).encode();
        let bad = Tuple::new(vec![Value::Float(1.0)]).encode();
        assert!(Tuple::decode_checked(&good, &schema).is_ok());
        assert!(Tuple::decode_checked(&bad, &schema).is_err());
    }

    fn value_strategy() -> impl Strategy<Value = Value> {
        prop_oneof![
            any::<i64>().prop_map(Value::Int),
            (-1e6f32..1e6).prop_map(Value::Float),
            "[a-z]{0,12}".prop_map(Value::Text),
            proptest::collection::vec(-100.0f32..100.0, 0..32).prop_map(Value::Vector),
            proptest::collection::vec(any::<u8>(), 0..64).prop_map(Value::Blob),
        ]
    }

    proptest! {
        #[test]
        fn roundtrip_any_tuple(values in proptest::collection::vec(value_strategy(), 0..8)) {
            let t = Tuple::new(values);
            let bytes = t.encode();
            prop_assert_eq!(bytes.len(), t.encoded_len());
            prop_assert_eq!(Tuple::decode(&bytes).unwrap(), t);
        }
    }
}
