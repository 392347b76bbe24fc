//! Empty stand-in for `rayon`: declared by the benchmarked crates, never called.
