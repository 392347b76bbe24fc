//! Process accounting read from `/proc/self`: user CPU, page faults, peak
//! resident size.

use std::fs;

/// `/proc/self/stat` counts CPU time in USER_HZ ticks, 100 per second on
/// every Linux ABI this runs on.
const TICKS_PER_SEC: f64 = 100.0;

/// One reading of the process-wide counters (all threads, exited ones
/// included).
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User-mode CPU seconds.
    pub user_s: f64,
    /// Minor + major page faults.
    pub faults: u64,
}

impl Usage {
    pub fn now() -> Self {
        let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
        // Fields after the parenthesised command name, which may itself
        // contain spaces: state is field 3, so index 0 here.
        let rest = stat.rsplit_once(')').expect("stat has a command field").1;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let field = |number: usize| -> u64 {
            fields[number - 3]
                .parse()
                .expect("numeric /proc/self/stat field")
        };
        Self {
            user_s: field(14) as f64 / TICKS_PER_SEC,
            faults: field(10) + field(12),
        }
    }
}

/// Peak resident set size so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|value| value.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}
