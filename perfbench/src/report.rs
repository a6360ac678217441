//! Result rows, typed errors, order statistics and digests.

use riot_sim::Json;
use std::fmt;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// A metric row.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

/// The outcome of one benchmark invocation: the contract's result line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Every operation reproduced its pinned (or first-rep) digest and
    /// every traced/variant run reproduced the untraced one.
    pub correct: bool,
    /// Operations attempted: scenario runs, or fuzz cases.
    pub attempted: u64,
    /// Operations that panicked or whose digest differed.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
}

impl RunReport {
    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    Json::Obj(vec![
                        ("value".to_owned(), Json::Float(m.value)),
                        ("unit".to_owned(), Json::Str(m.unit.to_owned())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".to_owned(), Json::Bool(self.correct)),
            ("attempted".to_owned(), Json::UInt(self.attempted)),
            ("failed".to_owned(), Json::UInt(self.failed)),
            ("metrics".to_owned(), Json::Obj(metrics)),
        ])
    }
}

/// What went wrong, as a closed set the error row reports by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Malformed command line.
    Usage,
    /// `--workload` names no workload.
    UnknownWorkload,
    /// A workload program failed to parse.
    BadProgram,
    /// `ScenarioSpec::validate` rejected the assembled spec.
    InvalidSpec,
    /// A run panicked (caught by the harness cell).
    Panic,
    /// A traced or A/B variant run did not reproduce the untraced run.
    Mismatch,
    /// No operation succeeded, so there is nothing to report.
    NoSamples,
    /// The host could not be measured (e.g. no `/proc/self/status`).
    Host,
}

impl ErrorKind {
    /// Stable snake-case label used in the error row.
    pub fn label(self) -> &'static str {
        match self {
            ErrorKind::Usage => "usage",
            ErrorKind::UnknownWorkload => "unknown_workload",
            ErrorKind::BadProgram => "bad_program",
            ErrorKind::InvalidSpec => "invalid_spec",
            ErrorKind::Panic => "panic",
            ErrorKind::Mismatch => "mismatch",
            ErrorKind::NoSamples => "no_samples",
            ErrorKind::Host => "host",
        }
    }
}

/// A typed benchmark error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchError {
    /// Error class.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl BenchError {
    /// An error of `kind`.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> BenchError {
        BenchError {
            kind,
            message: message.into(),
        }
    }
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind.label(), self.message)
    }
}

impl std::error::Error for BenchError {}

/// The typed error row: the error, and the invocation's operation counts.
pub fn error_row(workload: &str, err: &BenchError, attempted: u64, failed: u64) -> Json {
    Json::Obj(vec![
        (
            "error".to_owned(),
            Json::Obj(vec![
                ("kind".to_owned(), Json::Str(err.kind.label().to_owned())),
                ("workload".to_owned(), Json::Str(workload.to_owned())),
                ("message".to_owned(), Json::Str(err.message.clone())),
            ]),
        ),
        ("correct".to_owned(), Json::Bool(false)),
        ("attempted".to_owned(), Json::UInt(attempted)),
        ("failed".to_owned(), Json::UInt(failed)),
    ])
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between order statistics; `None` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let last = sorted.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let (a, b) = (sorted.get(lo)?, sorted.get(hi)?);
    Some(a + (b - a) * (pos - lo as f64))
}

/// The median of `values`; `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// 64-bit FNV-1a, the digest the repository's golden-artifact test uses.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, BenchError> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| BenchError::new(ErrorKind::Host, format!("/proc/self/status: {e}")))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| BenchError::new(ErrorKind::Host, "no VmHWM line in /proc/self/status"))
}
