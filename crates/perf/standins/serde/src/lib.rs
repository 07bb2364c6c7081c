//! Offline stand-in for `serde`, used only when `perf_gate` builds the
//! workspace without a crates.io registry (see `crates/perf/README.md`).
//!
//! The workspace uses serde for exactly one wire format, JSON, and only
//! through `#[derive(Serialize, Deserialize)]` and `serde_json`'s
//! `to_*`/`from_*` functions. So the two traits here are JSON-specific:
//! [`Serialize::ser_json`] appends compact JSON text and
//! [`Deserialize::de_json`] reads a parsed [`Value`]. The text produced
//! follows serde_json's conventions (externally tagged enums, newtype
//! structs as their inner value, `None` as `null`, non-string map keys
//! quoted, non-finite floats as `null`).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::{self, Write as _};
use std::hash::{BuildHasher, Hash};
use std::sync::Arc;

pub use serde_derive::{Deserialize, Serialize};

/// A JSON number, keeping 64-bit integers exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// A non-negative integer.
    U(u64),
    /// A negative integer.
    I(i64),
    /// Anything with a fraction or exponent.
    F(f64),
}

impl Number {
    /// The value as `f64` (lossy above 2^53).
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::U(u) => u as f64,
            Number::I(i) => i as f64,
            Number::F(f) => f,
        }
    }
}

/// An object's members in document order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    /// An empty object.
    pub fn new() -> Map {
        Map::default()
    }

    /// Appends a member, replacing an earlier one with the same key.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        match self.entries.iter_mut().find(|(k, _)| *k == key) {
            Some((_, slot)) => Some(std::mem::replace(slot, value)),
            None => {
                self.entries.push((key, value));
                None
            }
        }
    }

    /// The member named `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the object has no members.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Members in document order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Map),
}

impl Value {
    /// Member `key` of an object; `None` for other values.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The text, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The flag, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::Number(_) => "a number",
            Value::String(_) => "a string",
            Value::Array(_) => "an array",
            Value::Object(_) => "an object",
        }
    }
}

/// Why a document could not be parsed or mapped onto a type.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(String);

impl Error {
    /// An error with a free-form message.
    pub fn custom(msg: impl fmt::Display) -> Error {
        Error(msg.to_string())
    }

    /// `found` does not have the shape `what` needs.
    pub fn expected(what: &str, found: &Value) -> Error {
        Error(format!("invalid type: {}, expected {what}", found.kind()))
    }

    /// `tag` names no variant of `enum_name`.
    pub fn unknown_variant(enum_name: &str, tag: &str) -> Error {
        Error(format!("unknown variant `{tag}` of {enum_name}"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// A type that can write itself as compact JSON.
pub trait Serialize {
    /// Appends this value's JSON text to `out`.
    fn ser_json(&self, out: &mut String);
}

/// A type that can be rebuilt from a parsed JSON value.
pub trait Deserialize: Sized {
    /// Maps `v` onto `Self`.
    fn de_json(v: &Value) -> Result<Self, Error>;
}

// ---------------------------------------------------------------------------
// Helpers the derive macros call.
// ---------------------------------------------------------------------------

/// The members of `v`, which must be an object.
pub fn de_object<'a>(v: &'a Value, what: &str) -> Result<&'a Map, Error> {
    v.as_object().ok_or_else(|| Error::expected(what, v))
}

/// The elements of `v`, which must be an array of exactly `len`.
pub fn de_seq<'a>(v: &'a Value, len: usize, what: &str) -> Result<&'a [Value], Error> {
    match v.as_array() {
        Some(a) if a.len() == len => Ok(a),
        Some(a) => Err(Error(format!(
            "invalid length {}, expected {what} with {len} elements",
            a.len()
        ))),
        None => Err(Error::expected(what, v)),
    }
}

/// Field `key` of a struct; a missing member reads as `null`, so
/// `Option` fields may be omitted, as in serde.
pub fn de_field<T: Deserialize>(obj: &Map, key: &str) -> Result<T, Error> {
    match obj.get(key) {
        Some(v) => T::de_json(v).map_err(|e| Error(format!("field `{key}`: {e}"))),
        None => T::de_json(&Value::Null).map_err(|_| Error(format!("missing field `{key}`"))),
    }
}

/// Field `key` of a struct marked `#[serde(default)]`.
pub fn de_field_or_default<T: Deserialize + Default>(obj: &Map, key: &str) -> Result<T, Error> {
    match obj.get(key) {
        Some(v) => T::de_json(v).map_err(|e| Error(format!("field `{key}`: {e}"))),
        None => Ok(T::default()),
    }
}

/// Splits an externally tagged enum value into its tag and payload:
/// `"Tag"` or `{"Tag": payload}`.
pub fn enum_parts<'a>(
    v: &'a Value,
    enum_name: &str,
) -> Result<(&'a str, Option<&'a Value>), Error> {
    match v {
        Value::String(tag) => Ok((tag, None)),
        Value::Object(m) if m.len() == 1 => {
            let (tag, payload) = &m.entries[0];
            Ok((tag, Some(payload)))
        }
        other => Err(Error::expected(enum_name, other)),
    }
}

/// The payload of a variant that carries data.
pub fn variant_payload<'a>(payload: Option<&'a Value>, what: &str) -> Result<&'a Value, Error> {
    payload.ok_or_else(|| Error(format!("variant {what} needs a payload")))
}

/// Appends `s` as a JSON string literal.
pub fn write_json_str(s: &str, out: &mut String) {
    out.push('"');
    let mut plain_from = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape: &str = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[plain_from..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        plain_from = i + 1;
    }
    out.push_str(&s[plain_from..]);
    out.push('"');
}

// ---------------------------------------------------------------------------
// Impls for std types.
// ---------------------------------------------------------------------------

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn ser_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
        impl Deserialize for $t {
            fn de_json(v: &Value) -> Result<Self, Error> {
                let out_of_range = || Error(format!("number out of range for {}", stringify!($t)));
                match v {
                    Value::Number(Number::U(u)) => <$t>::try_from(*u).map_err(|_| out_of_range()),
                    Value::Number(Number::I(i)) => <$t>::try_from(*i).map_err(|_| out_of_range()),
                    // Map keys arrive as strings.
                    Value::String(s) => s.parse().map_err(|_| Error::expected("an integer", v)),
                    other => Err(Error::expected("an integer", other)),
                }
            }
        }
    )*};
}
int_impls!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn ser_json(&self, out: &mut String) {
                if self.is_finite() {
                    let _ = write!(out, "{self:?}");
                } else {
                    out.push_str("null");
                }
            }
        }
        impl Deserialize for $t {
            fn de_json(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Number(n) => Ok(n.as_f64() as $t),
                    other => Err(Error::expected("a number", other)),
                }
            }
        }
    )*};
}
float_impls!(f32, f64);

impl Serialize for bool {
    fn ser_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn de_json(v: &Value) -> Result<Self, Error> {
        v.as_bool().ok_or_else(|| Error::expected("a boolean", v))
    }
}

impl Serialize for str {
    fn ser_json(&self, out: &mut String) {
        write_json_str(self, out);
    }
}

impl Serialize for String {
    fn ser_json(&self, out: &mut String) {
        write_json_str(self, out);
    }
}

impl Deserialize for String {
    fn de_json(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::expected("a string", v))
    }
}

impl Serialize for () {
    fn ser_json(&self, out: &mut String) {
        out.push_str("null");
    }
}

impl Deserialize for () {
    fn de_json(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(()),
            other => Err(Error::expected("null", other)),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn ser_json(&self, out: &mut String) {
        match self {
            Some(x) => x.ser_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn de_json(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::de_json(other).map(Some),
        }
    }
}

macro_rules! pointer_impls {
    ($($p:ident),*) => {$(
        impl<T: Serialize + ?Sized> Serialize for $p<T> {
            fn ser_json(&self, out: &mut String) {
                (**self).ser_json(out);
            }
        }
        impl<T: Deserialize> Deserialize for $p<T> {
            fn de_json(v: &Value) -> Result<Self, Error> {
                T::de_json(v).map($p::new)
            }
        }
    )*};
}
pointer_impls!(Box, Arc);

impl<T: Serialize + ?Sized> Serialize for &T {
    fn ser_json(&self, out: &mut String) {
        (**self).ser_json(out);
    }
}

fn ser_seq<'a, T: Serialize + 'a>(items: impl IntoIterator<Item = &'a T>, out: &mut String) {
    out.push('[');
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        x.ser_json(out);
    }
    out.push(']');
}

fn de_elements<T: Deserialize, C: FromIterator<T>>(v: &Value) -> Result<C, Error> {
    v.as_array()
        .ok_or_else(|| Error::expected("an array", v))?
        .iter()
        .map(T::de_json)
        .collect()
}

impl<T: Serialize> Serialize for [T] {
    fn ser_json(&self, out: &mut String) {
        ser_seq(self, out);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn ser_json(&self, out: &mut String) {
        ser_seq(self, out);
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn de_json(v: &Value) -> Result<Self, Error> {
        let items: Vec<T> = de_elements(v)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| Error(format!("invalid length {len}, expected an array of {N}")))
    }
}

macro_rules! seq_impls {
    ($($c:ident: $($bound:path),*;)*) => {$(
        impl<T: Serialize> Serialize for $c<T> {
            fn ser_json(&self, out: &mut String) {
                ser_seq(self, out);
            }
        }
        impl<T: Deserialize $(+ $bound)*> Deserialize for $c<T> {
            fn de_json(v: &Value) -> Result<Self, Error> {
                de_elements(v)
            }
        }
    )*};
}
seq_impls! {
    Vec: ;
    BTreeSet: Ord;
}

fn ser_map<'a, K: Serialize + 'a, V: Serialize + 'a>(
    entries: impl IntoIterator<Item = (&'a K, &'a V)>,
    out: &mut String,
) {
    out.push('{');
    for (i, (k, v)) in entries.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // JSON keys are strings: quote a key that wrote itself as a number.
        let start = out.len();
        k.ser_json(out);
        if !out[start..].starts_with('"') {
            out.insert(start, '"');
            out.push('"');
        }
        out.push(':');
        v.ser_json(out);
    }
    out.push('}');
}

fn de_entries<K: Deserialize, V: Deserialize, C: FromIterator<(K, V)>>(
    v: &Value,
) -> Result<C, Error> {
    de_object(v, "a map")?
        .iter()
        .map(|(k, v)| Ok((K::de_json(&Value::String(k.clone()))?, V::de_json(v)?)))
        .collect()
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn ser_json(&self, out: &mut String) {
        ser_map(self, out);
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn de_json(v: &Value) -> Result<Self, Error> {
        de_entries(v)
    }
}

impl<K: Serialize, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn ser_json(&self, out: &mut String) {
        ser_map(self, out);
    }
}

impl<K: Deserialize + Eq + Hash, V: Deserialize, S: BuildHasher + Default> Deserialize
    for HashMap<K, V, S>
{
    fn de_json(v: &Value) -> Result<Self, Error> {
        de_entries(v)
    }
}

macro_rules! tuple_impls {
    ($(($len:literal: $($t:ident $i:tt),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn ser_json(&self, out: &mut String) {
                out.push('[');
                $(
                    if $i > 0 {
                        out.push(',');
                    }
                    self.$i.ser_json(out);
                )+
                out.push(']');
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn de_json(v: &Value) -> Result<Self, Error> {
                let seq = de_seq(v, $len, "a tuple")?;
                Ok(($($t::de_json(&seq[$i])?,)+))
            }
        }
    )*};
}
tuple_impls! {
    (1: A 0)
    (2: A 0, B 1)
    (3: A 0, B 1, C 2)
}

impl Deserialize for Value {
    fn de_json(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}
