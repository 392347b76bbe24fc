//! Empty stand-in for `bytes`: declared by the benchmarked crates, never called.
