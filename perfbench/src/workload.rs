//! The four workloads, their pinned digests, and spec assembly.
//!
//! Each scenario workload is a campaign program under `workloads/`, so it
//! also runs with `riot campaign run`. The seed comes from the command line
//! and replaces the program's own.

use crate::report::{BenchError, ErrorKind};
use riot_campaign::{case_program, CampaignProgram, CampaignSpace};
use riot_core::{ScenarioSpec, StreamSpec};

/// The seed the digests below are pinned for.
pub const DEFAULT_SEED: u64 = 7;

/// A second seed, never used while tuning, for confirming a claimed gain
/// (it has no pinned digest: runs on it check that reps agree).
pub const HELD_OUT_SEED: u64 = 1009;

/// Fuzz cases per `fuzz_sweep` sweep.
pub const FUZZ_CASES: usize = 2000;

/// Harness workers of the `fuzz_sweep` pool. One: on a shared 2-core
/// host a sweep on two workers waits for the slower one, so other
/// tenants' load on either core shows in its time.
pub const FUZZ_THREADS: usize = 1;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 10⁵ ML1 devices, no messages: kernel timer heap, device handler,
    /// sampler.
    Ml1Fleet,
    /// Cloud-centric ML2: routing warm-up, cloud handler, cloud sync.
    Ml2Uplink,
    /// ML4 under every campaign vector, with monitors and streams.
    Ml4Storm,
    /// The campaign fuzzer over thousands of tiny ML2 cases.
    FuzzSweep,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Ml1Fleet,
        Workload::Ml2Uplink,
        Workload::Ml4Storm,
        Workload::FuzzSweep,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ml1Fleet => "ml1_fleet",
            Workload::Ml2Uplink => "ml2_uplink",
            Workload::Ml4Storm => "ml4_storm",
            Workload::FuzzSweep => "fuzz_sweep",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Result<Workload, BenchError> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                BenchError::new(
                    ErrorKind::UnknownWorkload,
                    format!("unknown workload '{name}' (known: {})", known.join(", ")),
                )
            })
    }

    /// The campaign program of a scenario workload; `None` for the sweep.
    pub fn program(self) -> Option<&'static str> {
        match self {
            Workload::Ml1Fleet => Some(include_str!("../workloads/ml1_fleet.campaign")),
            Workload::Ml2Uplink => Some(include_str!("../workloads/ml2_uplink.campaign")),
            Workload::Ml4Storm => Some(include_str!("../workloads/ml4_storm.campaign")),
            Workload::FuzzSweep => None,
        }
    }

    /// The FNV-1a digest every operation must reproduce at
    /// [`DEFAULT_SEED`]: of the results JSON for a scenario workload, of
    /// the ordered (case seed, findings) list for the sweep.
    pub fn pinned_digest(self) -> u64 {
        match self {
            Workload::Ml1Fleet => 0xce4b_664e_7e30_d134,
            Workload::Ml2Uplink => 0xb0f4_0433_c20c_b7f3,
            Workload::Ml4Storm => 0xc2ff_5e53_a770_498d,
            Workload::FuzzSweep => 0x0d26_a3ff_600c_fd39,
        }
    }

    /// The digest operations at `seed` must reproduce, when one is pinned.
    pub fn expected_digest(self, seed: u64) -> Option<u64> {
        (seed == DEFAULT_SEED).then(|| self.pinned_digest())
    }
}

/// The "spec and campaign compile" half of a scenario workload's set-up:
/// parses the program, re-seeds it, compiles its campaign into a spec and
/// enables the workload's streams.
pub fn scenario_spec(workload: Workload, seed: u64) -> Result<ScenarioSpec, BenchError> {
    let text = workload.program().ok_or_else(|| {
        BenchError::new(
            ErrorKind::BadProgram,
            format!("'{}' is not a scenario workload", workload.name()),
        )
    })?;
    let mut program = CampaignProgram::parse(text)
        .map_err(|e| BenchError::new(ErrorKind::BadProgram, format!("{}: {e}", workload.name())))?;
    program.scenario.seed = seed;
    let mut spec = program.spec();
    if workload == Workload::Ml4Storm {
        spec.streams = StreamSpec::standard();
    }
    Ok(spec)
}

/// The spec of fuzz case `case_seed`: generation, mutation and campaign
/// compile, as `fuzz_space` does them.
pub fn fuzz_case_spec(space: &CampaignSpace, case_seed: u64) -> ScenarioSpec {
    case_program(space, case_seed).spec()
}

/// Rejects a spec `Scenario::build` would panic on, as a typed error.
pub fn check_spec(spec: &ScenarioSpec) -> Result<(), BenchError> {
    spec.validate()
        .map_err(|e| BenchError::new(ErrorKind::InvalidSpec, format!("{}: {e}", spec.name)))
}

/// One run of a workload's operation, or a controlled change to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The operation as the end-to-end metrics time it.
    Base,
    /// Spec assembly and `Scenario::build` only; nothing runs.
    SetupOnly,
    /// The benchmark's gap tracer registered on the bus.
    Traced,
    /// Sampled once, at the end of the run, instead of at 1 Hz.
    SampleOnce,
    /// Online monitors removed.
    NoMonitors,
    /// Stream operators removed.
    NoStreams,
}

impl Variant {
    /// Applies the variant's spec change (the tracer is registered by the
    /// runner, which owns its sink).
    pub fn apply(self, spec: &mut ScenarioSpec) {
        match self {
            Variant::Base | Variant::SetupOnly | Variant::Traced => {}
            Variant::SampleOnce => spec.sample_every = spec.duration,
            Variant::NoMonitors => spec.monitors.clear(),
            Variant::NoStreams => spec.streams = StreamSpec::new(),
        }
    }
}
