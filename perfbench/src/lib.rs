//! The riot benchmark: end-to-end throughput and set-up time of the
//! simulator on four workloads, plus a traced run that attributes wall
//! time to the runtime layers (`sim`, `net`, `core`, `data`, `formal`,
//! `campaign`, `harness`).
//!
//! Everything is measured from outside the program: the benchmark times
//! calls into public functions and registers its own observer through
//! `ScenarioSpec::observers`. See `perfbench/README.md` for usage, the
//! workload rationale and the metric → layer → end-to-end map.

pub mod measure;
pub mod probe;
pub mod report;
pub mod tracer;
pub mod workload;

use report::{BenchError, ErrorKind};
use std::time::{Duration, Instant};

/// The benchmark's single wall-clock read. Readings are operator-facing
/// measurements and never feed simulation state or results.
pub fn now() -> Instant {
    // riot-lint: allow(D2, reason = "the benchmark measures wall-clock by design; readings never feed simulation state")
    Instant::now()
}

/// On-CPU time of the calling thread: the first field of
/// `/proc/thread-self/schedstat`. Time the thread spends runnable but
/// off the CPU (other processes' load, hypervisor steal) is not counted.
/// The kernel brings the field up to date at each scheduler tick (4 ms at
/// 250 Hz), so it only suits intervals of a second or so, or sums over
/// many repeats.
pub fn thread_cpu() -> Result<Duration, BenchError> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").map_err(|e| {
        BenchError::new(ErrorKind::Host, format!("/proc/thread-self/schedstat: {e}"))
    })?;
    text.split_whitespace()
        .next()
        .and_then(|ns| ns.parse::<u64>().ok())
        .map(Duration::from_nanos)
        .ok_or_else(|| BenchError::new(ErrorKind::Host, "unreadable /proc/thread-self/schedstat"))
}
