//! Marker-trait stand-in for `serde`. Every type is `Serialize` and
//! `Deserialize`; nothing can actually be serialized, and the stand-in
//! `serde_json` refuses every call accordingly.

pub use serde_derive::{Deserialize, Serialize};

/// Marker: implemented for every type.
pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

/// Marker: implemented for every type.
pub trait Deserialize<'de> {}
impl<'de, T: ?Sized> Deserialize<'de> for T {}

pub mod de {
    /// Marker: implemented for every type.
    pub trait DeserializeOwned {}
    impl<T: ?Sized> DeserializeOwned for T {}
}
