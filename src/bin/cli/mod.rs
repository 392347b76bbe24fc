//! What the three binaries share: flag values, the checkpoint flag group
//! and the signal latch.

// Each binary uses its own subset.
#![allow(dead_code)]

use std::path::PathBuf;

use synscan::core::sketch::HeavyHitterConfig;
use synscan::CheckpointOptions;

/// A command-line mistake (as opposed to a failed run).
pub struct Usage(pub String);

impl From<Usage> for String {
    fn from(usage: Usage) -> Self {
        usage.0
    }
}

/// The value of `flag`: the next argument, parsed.
pub fn flag_value<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> Result<T, Usage> {
    let value = args
        .next()
        .ok_or_else(|| Usage(format!("{flag} needs a value ({what})")))?;
    value
        .parse()
        .map_err(|_| Usage(format!("{flag}: invalid value `{value}` ({what})")))
}

/// As [`flag_value`] for a directory.
pub fn flag_dir(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<PathBuf, Usage> {
    flag_value::<String>(args, flag, "a directory").map(PathBuf::from)
}

/// The value of `--heavy-hitters`, parsed and validated.
pub fn heavy_hitters(args: &mut impl Iterator<Item = String>) -> Result<HeavyHitterConfig, String> {
    let config: HeavyHitterConfig = flag_value(args, "--heavy-hitters", "K[,WIDTH,DEPTH]")?;
    config
        .validate()
        .map_err(|e| format!("--heavy-hitters: {e}"))?;
    Ok(config)
}

/// `--checkpoint-dir DIR --checkpoint-every N --resume
/// --die-after-checkpoints K`, as `repro` and `analyze` both take them.
pub struct CheckpointFlags {
    pub dir: Option<PathBuf>,
    pub every: u64,
    pub resume: bool,
    pub die_after: Option<u64>,
}

impl Default for CheckpointFlags {
    fn default() -> Self {
        Self {
            dir: None,
            every: 500_000,
            resume: false,
            die_after: None,
        }
    }
}

impl CheckpointFlags {
    /// Take `arg` (and its value) if it belongs to the group.
    pub fn take(
        &mut self,
        arg: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<bool, Usage> {
        match arg {
            "--checkpoint-dir" => self.dir = Some(flag_dir(args, arg)?),
            "--checkpoint-every" => self.every = flag_value(args, arg, "a record count")?,
            "--resume" => self.resume = true,
            "--die-after-checkpoints" => {
                self.die_after = Some(flag_value(args, arg, "a checkpoint count")?)
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The checkpoint the flags describe, its directory created; `None`
    /// without `--checkpoint-dir`.
    pub fn spec(&self) -> Result<Option<CheckpointOptions>, String> {
        let Some(dir) = &self.dir else {
            if self.resume || self.die_after.is_some() {
                return Err("--resume / --die-after-checkpoints need --checkpoint-dir".into());
            }
            return Ok(None);
        };
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create checkpoint dir {}: {e}", dir.display()))?;
        Ok(Some(CheckpointOptions {
            dir: dir.clone(),
            every: self.every,
            resume: self.resume,
            interrupt_after: self.die_after,
        }))
    }

    /// An interrupted run's exit: the kill-and-resume drill dies the way a
    /// crash would — no unwinding, no cleanup — and a stop flag is an error
    /// that says how to go on.
    pub fn interrupted(&self, what: &str) -> String {
        if self.die_after.is_some() {
            std::process::abort();
        }
        format!("{what} interrupted; re-run with --resume to continue")
    }

    /// A completed run's exit: an armed drill that never fired is an error,
    /// not a drill that passed.
    pub fn completed(&self) -> Result<(), String> {
        match self.die_after {
            Some(k) => Err(format!(
                "--die-after-checkpoints {k} never fired: the run completed without \
                 reaching periodic checkpoint {k} (lower --checkpoint-every, now {})",
                self.every
            )),
            None => Ok(()),
        }
    }

    /// The tail of a failed run's error when it cut checkpoints: how to go
    /// on from them.
    pub fn resume_hint(&self) -> &'static str {
        match self.dir {
            Some(_) => "; re-run with --resume to continue from the last checkpoint",
            None => "",
        }
    }
}

/// Minimal signal hook with no signal-handling crate: the handler flips one
/// atomic that the run (or the daemon's watcher thread) polls. Only an
/// atomic store happens in signal context.
pub mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub const SIGINT: i32 = 2;
    pub const SIGTERM: i32 = 15;

    static RAISED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        RAISED.store(true, Ordering::SeqCst);
    }

    /// Latch `signals` and return the flag they raise.
    pub fn install(signals: &[i32]) -> &'static AtomicBool {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        for &signum in signals {
            // SAFETY: `signal(2)` takes any signal number and a handler of
            // this C signature; `on_signal` only stores to a static atomic,
            // which is async-signal-safe, and lives forever.
            unsafe {
                signal(signum, on_signal);
            }
        }
        &RAISED
    }
}
