//! Empty stand-in for `parking_lot`: declared by the benchmarked crates, never called.
