//! Offline stand-in for `serde`.
//!
//! The build container has no crates.io access, so the workspace vendors the
//! slice of serde's surface it actually uses: `#[derive(Serialize,
//! Deserialize)]` on plain structs and enums, routed through an in-memory
//! [`Value`] tree that `serde_json` (the sibling shim) renders and parses.
//!
//! The data model is deliberately simple — `Serialize` lowers a type to a
//! [`Value`]; `Deserialize` rebuilds it from one. There is no zero-copy
//! deserialization, no custom `Serializer` plumbing, and no attribute
//! support; the derive rejects what it cannot handle at compile time.

#![forbid(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, HashMap};

/// An in-memory JSON-like value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Non-negative integer.
    U64(u64),
    /// Negative integer.
    I64(i64),
    /// Floating-point number.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object; field order is preserved for stable output.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Look up a field of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64`, converting integer representations.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::U64(u) => Some(u as f64),
            Value::I64(i) => Some(i as f64),
            Value::F64(f) => Some(f),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::U64(u) => Some(u),
            Value::I64(i) if i >= 0 => Some(i as u64),
            Value::F64(f) if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 => Some(f as u64),
            _ => None,
        }
    }

    /// The value as an `i64` integer.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::U64(u) if u <= i64::MAX as u64 => Some(u as i64),
            Value::I64(i) => Some(i),
            Value::F64(f) if f.fract() == 0.0 && f.abs() <= i64::MAX as f64 => Some(f as i64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// One-word description of the value's shape, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::U64(_) | Value::I64(_) | Value::F64(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Serialization/deserialization error.
#[derive(Debug, Clone)]
pub struct Error(pub String);

impl Error {
    /// Build an error from anything displayable.
    pub fn msg(m: impl std::fmt::Display) -> Error {
        Error(m.to_string())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

/// Types that can lower themselves to a [`Value`].
pub trait Serialize {
    /// Lower to a value tree.
    fn to_value(&self) -> Value;
}

/// Types that can be rebuilt from a [`Value`].
pub trait Deserialize: Sized {
    /// Rebuild from a value tree.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

/// Compatibility module mirroring `serde::de`.
pub mod de {
    /// Owned deserialization marker — every shim [`Deserialize`] qualifies.
    ///
    /// [`Deserialize`]: super::Deserialize
    pub trait DeserializeOwned: super::Deserialize {}
    impl<T: super::Deserialize> DeserializeOwned for T {}
}

/// Compatibility module mirroring `serde::ser`.
pub mod ser {
    pub use super::Serialize;
}

// ---------------------------------------------------------------------------
// Derive-support helpers (referenced by generated code; not a public API).
// ---------------------------------------------------------------------------

/// Fetch and deserialize a named struct field.
pub fn get_field<T: Deserialize>(v: &Value, ty: &str, name: &str) -> Result<T, Error> {
    let f = v
        .get(name)
        .ok_or_else(|| Error(format!("{ty}: missing field `{name}` in {}", v.kind())))?;
    T::from_value(f).map_err(|e| Error(format!("{ty}.{name}: {e}")))
}

/// Fetch and deserialize a tuple-struct element.
pub fn get_index<T: Deserialize>(v: &Value, ty: &str, idx: usize) -> Result<T, Error> {
    let a = v
        .as_array()
        .ok_or_else(|| Error(format!("{ty}: expected array, got {}", v.kind())))?;
    let e = a
        .get(idx)
        .ok_or_else(|| Error(format!("{ty}: missing tuple element {idx}")))?;
    T::from_value(e).map_err(|e| Error(format!("{ty}.{idx}: {e}")))
}

/// Decode an externally tagged enum: returns the variant name and payload
/// (`None` for unit variants serialized as a bare string).
pub fn enum_variant<'v>(v: &'v Value, ty: &str) -> Result<(&'v str, Option<&'v Value>), Error> {
    match v {
        Value::Str(s) => Ok((s, None)),
        Value::Object(fields) if fields.len() == 1 => {
            Ok((fields[0].0.as_str(), Some(&fields[0].1)))
        }
        other => Err(Error(format!(
            "{ty}: expected enum (string or single-key object), got {}",
            other.kind()
        ))),
    }
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::U64(*self as u64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let u = v.as_u64()
                    .ok_or_else(|| Error(format!("expected unsigned integer, got {}", v.kind())))?;
                <$t>::try_from(u).map_err(|_| Error(format!("{u} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let i = *self as i64;
                if i >= 0 { Value::U64(i as u64) } else { Value::I64(i) }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let i = v.as_i64()
                    .ok_or_else(|| Error(format!("expected integer, got {}", v.kind())))?;
                <$t>::try_from(i).map_err(|_| Error(format!("{i} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);
impl_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}
impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_f64()
            .ok_or_else(|| Error(format!("expected number, got {}", v.kind())))
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(*self as f64)
    }
}
impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        f64::from_value(v).map(|f| f as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}
impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_bool()
            .ok_or_else(|| Error(format!("expected bool, got {}", v.kind())))
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}
impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| Error(format!("expected string, got {}", v.kind())))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

/// `&'static str` fields (workload labels) deserialize by leaking the parsed
/// string. The repo only deserializes small artifacts in tests and tooling,
/// so the leak is bounded and intentional.
impl Deserialize for &'static str {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let s = String::from_value(v)?;
        Ok(Box::leak(s.into_boxed_str()))
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}
impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let s = v
            .as_str()
            .ok_or_else(|| Error(format!("expected single-char string, got {}", v.kind())))?;
        let mut it = s.chars();
        match (it.next(), it.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error(format!("expected single-char string, got {s:?}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Container impls
// ---------------------------------------------------------------------------

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(t) => t.to_value(),
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error(format!("expected array, got {}", v.kind())))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}
impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items = Vec::<T>::from_value(v)?;
        let got = items.len();
        items
            .try_into()
            .map_err(|_| Error(format!("expected array of {N} elements, got {got}")))
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}
impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Box::new)
    }
}

macro_rules! impl_tuple {
    ($(($($t:ident . $i:tt),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$i.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let a = v.as_array()
                    .ok_or_else(|| Error(format!("expected tuple array, got {}", v.kind())))?;
                Ok(($($t::from_value(
                    a.get($i).ok_or_else(|| Error(format!("missing tuple element {}", $i)))?
                )?,)+))
            }
        }
    )*};
}

impl_tuple! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}
impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Object(fields) => fields
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
                .collect(),
            other => Err(Error(format!("expected object, got {}", other.kind()))),
        }
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn to_value(&self) -> Value {
        // Sort keys so output is stable across runs.
        let mut keys: Vec<&String> = self.keys().collect();
        keys.sort();
        Value::Object(
            keys.into_iter()
                .map(|k| (k.clone(), self[k].to_value()))
                .collect(),
        )
    }
}
impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Object(fields) => fields
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
                .collect(),
            other => Err(Error(format!("expected object, got {}", other.kind()))),
        }
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}
impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_roundtrip_through_values() {
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert_eq!(i32::from_value(&(-7i32).to_value()).unwrap(), -7);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert!(u8::from_value(&Value::U64(300)).is_err());
    }

    #[test]
    fn containers_roundtrip() {
        let v = vec![1u32, 2, 3];
        assert_eq!(Vec::<u32>::from_value(&v.to_value()).unwrap(), v);
        let a = [[1u64, 2], [3, 4]];
        assert_eq!(<[[u64; 2]; 2]>::from_value(&a.to_value()).unwrap(), a);
        let o: Option<u8> = None;
        assert_eq!(Option::<u8>::from_value(&o.to_value()).unwrap(), None);
        let t = (1u8, "x".to_string());
        assert_eq!(
            <(u8, String)>::from_value(&t.to_value()).unwrap(),
            (1u8, "x".to_string())
        );
    }

    #[test]
    fn object_get_finds_fields() {
        let v = Value::Object(vec![("a".into(), Value::U64(1))]);
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(1));
        assert!(v.get("b").is_none());
    }
}
