//! The checkpoint container: a named, typed state dictionary with a
//! versioned, checksummed binary encoding.
//!
//! The file is an MHGC v2 [`crate::frame`]; its body layout is in the
//! "Persisted formats" table of DESIGN.md §2.11. Entries are stored in name
//! order (the dictionary is a `BTreeMap`), so encoding is
//! byte-deterministic: the same state always produces the same file.

use std::collections::BTreeMap;

use mhg_tensor::Tensor;

use crate::error::CkptError;
use crate::frame::{FrameError, Reader, Writer};

const MAGIC: &[u8; 4] = b"MHGC";
const VERSION: u16 = 2;

const TAG_TENSOR: u8 = 1;
const TAG_U64: u8 = 2;
const TAG_F64: u8 = 3;
const TAG_U64S: u8 = 4;
const TAG_BYTES: u8 = 5;

/// One value in a [`StateDict`].
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A dense `f32` matrix (parameters, optimizer moments).
    Tensor(Tensor),
    /// An unsigned scalar (counters, cursors, bit-cast floats).
    U64(u64),
    /// A float scalar (metrics, timings) — stored bit-exactly.
    F64(f64),
    /// An unsigned array (RNG state, per-row step counts).
    U64s(Vec<u64>),
    /// An opaque payload (model-specific sub-encodings).
    Bytes(Vec<u8>),
}

/// A named, typed snapshot of training state.
///
/// Keys are flat, slash-separated paths (`"loop/rng"`, `"model/emb"`); the
/// map is ordered, so iteration and encoding are deterministic.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StateDict {
    entries: BTreeMap<String, Value>,
}

impl StateDict {
    /// An empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the dictionary holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts or replaces an entry.
    pub fn put(&mut self, name: impl Into<String>, value: Value) {
        self.entries.insert(name.into(), value);
    }

    /// Stores a tensor.
    pub fn put_tensor(&mut self, name: impl Into<String>, t: Tensor) {
        self.put(name, Value::Tensor(t));
    }

    /// Stores a `u64` scalar.
    pub fn put_u64(&mut self, name: impl Into<String>, v: u64) {
        self.put(name, Value::U64(v));
    }

    /// Stores an `f64` scalar (bit-exact).
    pub fn put_f64(&mut self, name: impl Into<String>, v: f64) {
        self.put(name, Value::F64(v));
    }

    /// Stores a `u64` array.
    pub fn put_u64s(&mut self, name: impl Into<String>, v: Vec<u64>) {
        self.put(name, Value::U64s(v));
    }

    /// Stores an opaque byte payload.
    pub fn put_bytes(&mut self, name: impl Into<String>, v: Vec<u8>) {
        self.put(name, Value::Bytes(v));
    }

    /// Looks up an entry by name.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.entries.get(name)
    }

    /// Whether an entry named `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// Iterates entries in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    fn require(&self, name: &str) -> Result<&Value, CkptError> {
        self.entries
            .get(name)
            .ok_or_else(|| CkptError::MissingField(name.to_string()))
    }

    /// The tensor stored under `name`.
    pub fn tensor(&self, name: &str) -> Result<&Tensor, CkptError> {
        match self.require(name)? {
            Value::Tensor(t) => Ok(t),
            _ => Err(CkptError::WrongType(name.to_string())),
        }
    }

    /// The `u64` stored under `name`.
    pub fn u64(&self, name: &str) -> Result<u64, CkptError> {
        match self.require(name)? {
            Value::U64(v) => Ok(*v),
            _ => Err(CkptError::WrongType(name.to_string())),
        }
    }

    /// The `f64` stored under `name`.
    pub fn f64(&self, name: &str) -> Result<f64, CkptError> {
        match self.require(name)? {
            Value::F64(v) => Ok(*v),
            _ => Err(CkptError::WrongType(name.to_string())),
        }
    }

    /// The `u64` array stored under `name`.
    pub fn u64s(&self, name: &str) -> Result<&[u64], CkptError> {
        match self.require(name)? {
            Value::U64s(v) => Ok(v),
            _ => Err(CkptError::WrongType(name.to_string())),
        }
    }

    /// The byte payload stored under `name`.
    pub fn bytes(&self, name: &str) -> Result<&[u8], CkptError> {
        match self.require(name)? {
            Value::Bytes(v) => Ok(v),
            _ => Err(CkptError::WrongType(name.to_string())),
        }
    }
}

/// Serialises a dictionary to its versioned, checksummed binary form.
pub fn encode(dict: &StateDict) -> Vec<u8> {
    let mut w = Writer::new(MAGIC, VERSION, dict.len().saturating_mul(16));
    w.len_u32(dict.len(), "entry count");
    for (name, value) in dict.iter() {
        w.len_u16(name.len(), "name length");
        w.bytes(name.as_bytes());
        match value {
            Value::Tensor(t) => {
                w.u8(TAG_TENSOR);
                w.len_u32(t.rows(), "tensor rows");
                w.len_u32(t.cols(), "tensor cols");
                w.u32s(t.as_slice().iter().map(|v| v.to_bits()));
            }
            Value::U64(v) => {
                w.u8(TAG_U64);
                w.u64(*v);
            }
            Value::F64(v) => {
                w.u8(TAG_F64);
                w.u64(v.to_bits());
            }
            Value::U64s(vs) => {
                w.u8(TAG_U64S);
                w.len_u32(vs.len(), "u64 array length");
                for &v in vs {
                    w.u64(v);
                }
            }
            Value::Bytes(bs) => {
                w.u8(TAG_BYTES);
                w.len_u32(bs.len(), "byte payload length");
                w.bytes(bs);
            }
        }
    }
    w.finish()
}

/// Deserialises a dictionary, verifying magic, version and checksum.
pub fn decode(buf: &[u8]) -> Result<StateDict, CkptError> {
    let mut r = Reader::open(buf, MAGIC, VERSION)?;
    let count = r.u32()?;
    let mut dict = StateDict::new();
    for _ in 0..count {
        let name_len = r.u16()?;
        let name = r.str(name_len.into())?;
        let value = match r.u8()? {
            TAG_TENSOR => {
                let rows = r.u32()? as usize;
                let cols = r.u32()? as usize;
                let n = rows.checked_mul(cols).ok_or(FrameError::Truncated)?;
                let data = r.u32s(n)?.map(f32::from_bits).collect();
                Value::Tensor(Tensor::from_vec(rows, cols, data))
            }
            TAG_U64 => Value::U64(r.u64()?),
            TAG_F64 => Value::F64(f64::from_bits(r.u64()?)),
            TAG_U64S => {
                let n = r.u32()? as usize;
                Value::U64s(r.u64s(n)?.collect())
            }
            TAG_BYTES => {
                let n = r.u32()? as usize;
                Value::Bytes(r.bytes(n)?.to_vec())
            }
            other => return Err(CkptError::BadTag(other)),
        };
        dict.put(name, value);
    }
    r.finish()?;
    Ok(dict)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dict() -> StateDict {
        let mut d = StateDict::new();
        d.put_tensor(
            "model/emb",
            Tensor::from_vec(2, 3, vec![1.0, -2.5, 0.0, 3.5, f32::MIN_POSITIVE, 7.0]),
        );
        d.put_u64("loop/epoch", 42);
        d.put_f64("loop/best", -0.123456789);
        d.put_u64s("loop/rng", vec![1, u64::MAX, 3, 4]);
        d.put_bytes("model/blob", vec![0xde, 0xad, 0xbe, 0xef]);
        d
    }

    #[test]
    fn roundtrip_is_exact() {
        let d = sample_dict();
        let bytes = encode(&d);
        let d2 = decode(&bytes).expect("decode");
        assert_eq!(d, d2);
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(encode(&sample_dict()), encode(&sample_dict()));
    }

    #[test]
    fn typed_accessors_check_presence_and_type() {
        let d = sample_dict();
        assert_eq!(d.u64("loop/epoch").unwrap(), 42);
        assert!(matches!(
            d.u64("loop/absent"),
            Err(CkptError::MissingField(_))
        ));
        assert!(matches!(d.u64("loop/best"), Err(CkptError::WrongType(_))));
        assert_eq!(d.u64s("loop/rng").unwrap().len(), 4);
        assert_eq!(d.bytes("model/blob").unwrap(), &[0xde, 0xad, 0xbe, 0xef]);
    }

    #[test]
    fn rejects_bad_magic_version_and_tag() {
        let mut bytes = encode(&sample_dict());
        bytes[0] = b'X';
        assert!(matches!(
            decode(&bytes),
            Err(CkptError::Frame(FrameError::BadMagic))
        ));

        // The version is checked before the trailer, so no re-signing.
        let mut bytes = encode(&sample_dict());
        bytes[4] = 0x63;
        assert!(matches!(
            decode(&bytes),
            Err(CkptError::Frame(FrameError::UnsupportedVersion(0x63)))
        ));

        let mut w = Writer::new(MAGIC, VERSION, 0);
        w.u32(1);
        w.len_u16(1, "name length");
        w.bytes(b"x");
        w.u8(0xee);
        assert!(matches!(decode(&w.finish()), Err(CkptError::BadTag(0xee))));
    }
}
