//! Stand-in for `crossbeam`: only `channel::bounded`, which the sharded
//! pipeline drivers use, backed by `std::sync::mpsc::sync_channel`.
//!
//! This is the one stand-in that runs inside a timed section
//! (`core.pipeline.sharded_s`). std's bounded channel is a port of
//! crossbeam's array flavour, so the cost is close but not identical.

pub mod channel {
    pub use std::sync::mpsc::{
        Receiver, RecvError, RecvTimeoutError, SendError, SyncSender as Sender, TryRecvError,
        TrySendError,
    };

    /// A channel holding at most `cap` messages; `send` blocks when full.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        std::sync::mpsc::sync_channel(cap)
    }
}
