//! Stand-in for `serde_json` that cannot serialize anything: every entry
//! point returns `Err`. It exists so `core::report` and `core::store::query`
//! compile. The benchmark must never reach it; [`calls`] lets the harness
//! assert that after every rep.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

static CALLS: AtomicU64 = AtomicU64::new(0);

/// Entry-point calls made in this process so far.
pub fn calls() -> u64 {
    CALLS.load(Ordering::Relaxed)
}

fn refuse<T>() -> Result<T> {
    CALLS.fetch_add(1, Ordering::Relaxed);
    Err(Error)
}

/// The only error: the stand-in was asked to do real work.
#[derive(Debug)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("serde_json stand-in: JSON is not available in the offline benchmark build")
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

/// Never constructed (every parser returns `Err`); the accessors exist for
/// the call sites in `core::store::query`.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
}

impl Value {
    pub fn get(&self, _key: &str) -> Option<&Value> {
        None
    }

    pub fn as_bool(&self) -> Option<bool> {
        None
    }

    pub fn as_str(&self) -> Option<&str> {
        None
    }

    pub fn as_u64(&self) -> Option<u64> {
        None
    }
}

pub fn to_string<T: ?Sized + serde::Serialize>(_value: &T) -> Result<String> {
    refuse()
}

pub fn to_string_pretty<T: ?Sized + serde::Serialize>(_value: &T) -> Result<String> {
    refuse()
}

pub fn to_vec<T: ?Sized + serde::Serialize>(_value: &T) -> Result<Vec<u8>> {
    refuse()
}

pub fn from_str<'a, T: serde::Deserialize<'a>>(_text: &'a str) -> Result<T> {
    refuse()
}

pub fn from_slice<'a, T: serde::Deserialize<'a>>(_bytes: &'a [u8]) -> Result<T> {
    refuse()
}
