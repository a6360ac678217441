//! Running operations, checking their outputs, and turning samples into
//! the end-to-end and per-layer metrics.

use crate::probe;
use crate::report::{
    fnv1a, median, peak_rss_mb, quantile, BenchError, ErrorKind, Metric, RunReport,
};
use crate::tracer::{Bucket, GapTotals, GapTracer, TraceSink};
use crate::workload::{
    check_spec, fuzz_case_spec, scenario_spec, Variant, Workload, FUZZ_CASES, FUZZ_THREADS,
};
use crate::{now, thread_cpu};
use riot_campaign::{fuzz_space, weakened_space, CampaignSpace, Finding};
use riot_core::{Scenario, ScenarioSpec};
use riot_harness::{Cell, FuzzPlan, Grid, HarnessConfig};
use riot_sim::ToJson;
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// End-to-end metrics, in output order: (name, unit).
pub const END_TO_END: [(&str, &str); 4] = [
    ("events_per_s", "events/s"),
    ("cases_per_s", "cases/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, in output order: (name, unit).
pub const PER_LAYER: [(&str, &str); 38] = [
    ("sim.ns_per_event", "ns"),
    ("sim.events", "count"),
    ("sim.timer_fired", "count"),
    ("sim.delivered", "count"),
    ("sim.dropped.loss", "count"),
    ("sim.dropped.partition", "count"),
    ("sim.dropped.down", "count"),
    ("sim.stream_s", "s"),
    ("net.route_cold_us_p50", "us"),
    ("net.route_cold_us_p99", "us"),
    ("net.route_warmup_s", "s"),
    ("net.route_rewarm_s", "s"),
    ("net.sent_gap_s", "s"),
    ("net.delivery_ratio", "ratio"),
    ("core.device_s", "s"),
    ("core.edge_s", "s"),
    ("core.cloud_s", "s"),
    ("core.sampler_s", "s"),
    ("core.sampler_gap_s", "s"),
    ("core.build_us", "us"),
    ("data.ingest_ns", "ns"),
    ("data.sync_out_us", "us"),
    ("data.sync_records", "count"),
    ("formal.monitor_s", "s"),
    ("formal.step_ns", "ns"),
    ("campaign.gen_us", "us"),
    ("harness.busy_frac", "ratio"),
    ("harness.case_ms_p50", "ms"),
    ("harness.case_ms_p99", "ms"),
    ("trace.overhead", "ratio"),
    ("trace.gap_sum_ratio", "ratio"),
    ("trace.ab_noise_s", "s"),
    ("share.sim", "ratio"),
    ("share.net", "ratio"),
    ("share.core", "ratio"),
    ("share.sampler", "ratio"),
    ("share.formal", "ratio"),
    ("share.stream", "ratio"),
];

/// Set-up samples per invocation; `setup_s` is their median.
const SETUP_SAMPLES: usize = 7;

/// One set-up sample repeats the set-up until this much wall time has
/// gone into it and reports the CPU time per set-up, so that the 4 ms
/// granularity of the thread CPU clock stays small beside it.
const SETUP_SAMPLE_SPAN: Duration = Duration::from_millis(250);

/// Fewest traced passes: the A/B differences are medians over at least
/// this many, and `trace.ab_noise_s` a quartile distance over as many.
const MIN_PASSES: usize = 5;

/// Fewest operations per invocation: two, so reps can be compared byte
/// for byte on a seed without a pinned digest.
const MIN_REPS: u64 = 2;

/// What one scenario operation reports.
#[derive(Debug, Clone, Default)]
pub struct RunSample {
    /// Spec assembly and campaign compile, s.
    pub gen_s: f64,
    /// `Scenario::build`, s.
    pub build_s: f64,
    /// `Scenario::run`, s (0 for [`Variant::SetupOnly`]).
    pub run_s: f64,
    /// On-CPU time of the thread during `Scenario::run`, s.
    pub run_cpu_s: f64,
    /// Kernel events processed.
    pub events: u64,
    /// FNV-1a of the results JSON.
    pub digest: u64,
    /// FNV-1a of the counters that neither sampling nor monitoring can
    /// change: events, messages sent and dropped, failovers, restarts,
    /// restart commands, denied ingests.
    pub stream_key: u64,
    /// Failed monitors, as the campaign fuzzer reports them.
    pub findings: Vec<Finding>,
    /// Gap totals of a [`Variant::Traced`] run.
    pub gaps: Option<GapTotals>,
}

/// Assembles a spec with `make`, applies `variant`, validates, builds and
/// (unless set-up only) runs it. Panics propagate; [`run_batch`] runs this
/// inside harness cells, which turn them into error rows.
pub fn run_scenario(
    make: impl FnOnce() -> Result<ScenarioSpec, BenchError>,
    variant: Variant,
) -> Result<RunSample, BenchError> {
    let t0 = now();
    let mut spec = make()?;
    variant.apply(&mut spec);
    check_spec(&spec)?;
    let sink = (variant == Variant::Traced).then(|| {
        let sink = TraceSink::default();
        let handle = Arc::clone(&sink);
        let (edges, sample_us) = (spec.edges, spec.sample_every.as_micros());
        spec.observers
            .register(move || GapTracer::new(Arc::clone(&handle), edges, sample_us));
        sink
    });
    let t1 = now();
    let scenario = Scenario::build(spec);
    let t2 = now();
    let mut sample = RunSample {
        gen_s: (t1 - t0).as_secs_f64(),
        build_s: (t2 - t1).as_secs_f64(),
        ..RunSample::default()
    };
    if variant == Variant::SetupOnly {
        return Ok(sample);
    }
    // The CPU clock is read outside the wall-clock window, so that its
    // two system calls stay out of the traced run's head and tail.
    let cpu = thread_cpu()?;
    let t_run = now();
    let result = scenario.run();
    let t3 = now();
    sample.run_cpu_s = thread_cpu()?.saturating_sub(cpu).as_secs_f64();
    sample.run_s = (t3 - t_run).as_secs_f64();
    sample.events = result.events_processed;
    sample.digest = fnv1a(result.to_json().render().as_bytes());
    let counters = [
        result.events_processed,
        result.messages_sent,
        result.messages_dropped,
        result.failovers,
        result.restarts,
        result.restart_commands,
        result.ingest_denied,
    ];
    sample.stream_key = fnv1a(format!("{counters:?}").as_bytes());
    sample.findings = result
        .failed_monitors()
        .map(|m| Finding::Violated {
            monitor: m.name.clone(),
            verdict: m.verdict.clone(),
            first_violation_s: m.first_violation_s,
        })
        .collect();
    if let Some(sink) = sink {
        let record = match sink.lock() {
            Ok(mut slot) => slot.take(),
            Err(poisoned) => poisoned.into_inner().take(),
        };
        let record = record
            .ok_or_else(|| BenchError::new(ErrorKind::Mismatch, "the gap tracer left no record"))?;
        let mut gaps = record.totals;
        gaps.head = record.first.map_or(Duration::ZERO, |first| {
            first.saturating_duration_since(t_run)
        });
        gaps.tail = record
            .last
            .map_or(t3 - t_run, |last| t3.saturating_duration_since(last));
        sample.gaps = Some(gaps);
    }
    Ok(sample)
}

/// One harness cell's outcome.
#[derive(Debug)]
pub struct CaseOutcome {
    /// The case seed (the workload seed for a scenario workload).
    pub seed: u64,
    /// The sample, or the error (a panic becomes [`ErrorKind::Panic`]).
    pub sample: Result<RunSample, BenchError>,
    /// The cell's wall time, s, from `CellRecord::wall`.
    pub wall_s: f64,
}

/// One workload operation set run on the harness: one scenario, or every
/// case of one fuzz sweep.
#[derive(Debug)]
pub struct Batch {
    /// Cells in plan order.
    pub cases: Vec<CaseOutcome>,
    /// Sweep wall time, s.
    pub wall_s: f64,
    /// Time of the batch, s: on-CPU time of the calling thread for an
    /// inline operation; for a harness sweep, whose workers' CPU clocks
    /// the caller cannot read, the sweep's wall time.
    pub time_s: f64,
    /// Harness workers used.
    pub threads: usize,
}

impl Batch {
    /// Successful samples.
    pub fn samples(&self) -> impl Iterator<Item = &RunSample> {
        self.cases.iter().filter_map(|c| c.sample.as_ref().ok())
    }

    /// Σ `Scenario::run` time over the batch's cases, s.
    pub fn run_s(&self) -> f64 {
        self.samples().map(|s| s.run_s).sum()
    }

    /// Σ kernel events over the batch's cases.
    pub fn events(&self) -> u64 {
        self.samples().map(|s| s.events).sum()
    }

    /// The first error, if any case failed.
    pub fn first_error(&self) -> Option<BenchError> {
        self.cases
            .iter()
            .find_map(|c| c.sample.as_ref().err().cloned())
    }
}

/// Runs `make` as one cell per case seed on a quiet harness pool.
pub fn run_cells(
    seeds: &[u64],
    threads: usize,
    variant: Variant,
    make: impl Fn(u64) -> Result<ScenarioSpec, BenchError> + Send + Sync + 'static,
) -> Batch {
    let make = Arc::new(make);
    let mut grid: Grid<Result<RunSample, BenchError>> = Grid::new();
    for (i, &seed) in seeds.iter().enumerate() {
        let make = Arc::clone(&make);
        grid.cell(Cell::new(format!("case/{i}"), seed, move || {
            run_scenario(|| make(seed), variant)
        }));
    }
    let report = grid.run(&HarnessConfig::with_threads(threads).quiet());
    let cases = report
        .cells
        .into_iter()
        .map(|rec| CaseOutcome {
            seed: rec.seed,
            sample: rec
                .outcome
                .unwrap_or_else(|e| Err(BenchError::new(ErrorKind::Panic, e.panic))),
            wall_s: rec.wall.as_secs_f64(),
        })
        .collect();
    Batch {
        cases,
        wall_s: report.wall.as_secs_f64(),
        time_s: report.wall.as_secs_f64(),
        threads: report.threads,
    }
}

/// Runs one batch of `workload` at `seed`.
pub fn run_batch(workload: Workload, seed: u64, variant: Variant) -> Batch {
    match workload {
        Workload::FuzzSweep => {
            let space = Arc::new(weakened_space());
            let plan = FuzzPlan::new(seed, FUZZ_CASES);
            let seeds: Vec<u64> = (0..plan.budget).map(|i| plan.case_seed(i)).collect();
            run_cells(&seeds, FUZZ_THREADS, variant, move |case_seed| {
                Ok(fuzz_case_spec(&space, case_seed))
            })
        }
        _ => run_inline(seed, variant, |seed| scenario_spec(workload, seed)),
    }
}

/// Runs one operation on this thread, a panic caught into an error row.
/// Scenario workloads run here rather than on a pool thread: a second
/// thread brings a second allocator arena, which made peak RSS wander by
/// several percent between identical runs.
pub fn run_inline(
    seed: u64,
    variant: Variant,
    make: impl FnOnce(u64) -> Result<ScenarioSpec, BenchError>,
) -> Batch {
    let cpu = thread_cpu().unwrap_or_default();
    let t = now();
    let sample = panic::catch_unwind(AssertUnwindSafe(|| run_scenario(|| make(seed), variant)))
        .unwrap_or_else(|payload| Err(BenchError::new(ErrorKind::Panic, panic_text(&*payload))));
    let wall_s = t.elapsed().as_secs_f64();
    let time_s = thread_cpu()
        .unwrap_or_default()
        .saturating_sub(cpu)
        .as_secs_f64();
    Batch {
        cases: vec![CaseOutcome {
            seed,
            sample,
            wall_s,
        }],
        wall_s,
        time_s,
        threads: 1,
    }
}

/// The message of a caught panic.
fn panic_text(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic with a non-string payload".to_owned())
}

/// One fuzz case's line in the digested (case seed, findings) list.
fn case_line(case_seed: u64, findings: &[Finding]) -> String {
    format!("{case_seed:016x} {findings:?}\n")
}

/// What an operation must reproduce: the results digest of a scenario,
/// or the digest of a fuzz case's line.
fn fingerprint(workload: Workload, case_seed: u64, sample: &RunSample) -> u64 {
    match workload {
        Workload::FuzzSweep => fnv1a(case_line(case_seed, &sample.findings).as_bytes()),
        _ => sample.digest,
    }
}

/// Each case's fingerprint, or its error.
fn batch_outcomes(workload: Workload, batch: &Batch) -> Vec<Result<u64, BenchError>> {
    batch
        .cases
        .iter()
        .map(|c| {
            c.sample
                .as_ref()
                .map(|s| fingerprint(workload, c.seed, s))
                .map_err(Clone::clone)
        })
        .collect()
}

/// The digest a batch is pinned by: the results digest of its scenario,
/// or the digest of the sweep's ordered case lines (`None` if a case
/// failed).
fn batch_digest(workload: Workload, batch: &Batch) -> Option<u64> {
    let mut lines = String::new();
    for case in &batch.cases {
        let sample = case.sample.as_ref().ok()?;
        match workload {
            Workload::FuzzSweep => lines.push_str(&case_line(case.seed, &sample.findings)),
            _ => return Some(sample.digest),
        }
    }
    Some(fnv1a(lines.as_bytes()))
}

fn hex(d: Option<u64>) -> String {
    d.map_or_else(|| "none".to_owned(), |d| format!("{d:016x}"))
}

/// The per-case fingerprints later operations must reproduce, taken from
/// the invocation's first batch. At the default seed that batch must match
/// the pinned digest; if it does not, nothing can match.
fn reference_prints(
    tally: &mut Tally,
    workload: Workload,
    seed: u64,
    batch: &Batch,
) -> Vec<Option<u64>> {
    let prints: Vec<Option<u64>> = batch_outcomes(workload, batch)
        .into_iter()
        .map(Result::ok)
        .collect();
    let digest = batch_digest(workload, batch);
    match workload.expected_digest(seed) {
        Some(pin) if Some(pin) != digest => {
            tally.errors.push(BenchError::new(
                ErrorKind::Mismatch,
                format!("digest {} != pinned {pin:016x}", hex(digest)),
            ));
            vec![None; prints.len()]
        }
        _ => prints,
    }
}

/// Operation accounting: attempts, failures and the first few errors.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<BenchError>,
}

impl Tally {
    /// Counts one operation; `true` when it succeeded.
    fn record(&mut self, result: Result<(), BenchError>) -> bool {
        self.attempted += 1;
        let Err(err) = result else {
            return true;
        };
        self.failed += 1;
        if self.errors.len() < 8 && self.errors.last() != Some(&err) {
            self.errors.push(err);
        }
        false
    }

    /// Counts operations against the reference fingerprints; returns which
    /// succeeded.
    fn judge(
        &mut self,
        outcomes: Vec<Result<u64, BenchError>>,
        reference: &[Option<u64>],
    ) -> Vec<bool> {
        outcomes
            .into_iter()
            .enumerate()
            .map(|(i, outcome)| {
                let want = reference.get(i).copied().flatten();
                self.record(outcome.and_then(|got| {
                    if Some(got) == want {
                        Ok(())
                    } else {
                        Err(BenchError::new(
                            ErrorKind::Mismatch,
                            format!("case {i}: output {got:016x} != reference {}", hex(want)),
                        ))
                    }
                }))
            })
            .collect()
    }

    fn outcome(self, metrics: Result<Vec<Metric>, BenchError>) -> Outcome {
        let mut errors = self.errors;
        let metrics = metrics.unwrap_or_else(|e| {
            errors.push(e);
            Vec::new()
        });
        Outcome {
            report: RunReport {
                correct: errors.is_empty() && self.failed == 0,
                attempted: self.attempted,
                failed: self.failed,
                metrics,
            },
            errors,
        }
    }
}

/// A finished invocation: the result line, and every error behind a
/// failed operation or a missing metric.
#[derive(Debug)]
pub struct Outcome {
    /// The result line (metrics empty when they could not be computed).
    pub report: RunReport,
    /// Typed errors, first few.
    pub errors: Vec<BenchError>,
}

fn need(values: &[f64], what: &str) -> Result<f64, BenchError> {
    median(values).ok_or_else(|| {
        BenchError::new(
            ErrorKind::NoSamples,
            format!("no successful operation measured {what}"),
        )
    })
}

/// The untraced run: repeats the workload's operation for `seconds` and
/// reports the end-to-end metrics. A scenario operation is timed by the
/// thread's CPU clock ([`thread_cpu`]), a sweep by its wall time.
pub fn end_to_end(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    // Read once up front: a host without the CPU clock gets one typed
    // error instead of timings of zero.
    if let Err(e) = thread_cpu() {
        return Tally::default().outcome(Err(e));
    }
    match workload {
        Workload::FuzzSweep => fuzz_end_to_end(seed, seconds),
        _ => scenario_end_to_end(workload, seed, seconds),
    }
}

/// One set-up of the workload on this thread: the scenario's, or every
/// case's of one sweep. Returns the first error.
fn setup_once(workload: Workload, seed: u64) -> Result<(), BenchError> {
    let setup = |make: &dyn Fn() -> Result<ScenarioSpec, BenchError>| {
        run_scenario(make, Variant::SetupOnly).map(drop)
    };
    match workload {
        Workload::FuzzSweep => {
            let space = weakened_space();
            let plan = FuzzPlan::new(seed, FUZZ_CASES);
            (0..plan.budget)
                .try_for_each(|i| setup(&|| Ok(fuzz_case_spec(&space, plan.case_seed(i)))))
        }
        _ => setup(&|| scenario_spec(workload, seed)),
    }
}

/// Set-up samples, s of thread CPU time per set-up. Each sample repeats
/// [`setup_once`] for [`SETUP_SAMPLE_SPAN`], on this thread.
fn setup_samples(workload: Workload, seed: u64, tally: &mut Tally) -> Vec<f64> {
    let mut samples = Vec::new();
    while samples.len() < SETUP_SAMPLES {
        let (start, cpu) = (now(), thread_cpu());
        let mut reps = 0u32;
        while reps == 0 || start.elapsed() < SETUP_SAMPLE_SPAN {
            let once =
                panic::catch_unwind(|| setup_once(workload, seed)).unwrap_or_else(|payload| {
                    Err(BenchError::new(ErrorKind::Panic, panic_text(&*payload)))
                });
            if let Err(e) = once {
                tally.errors.push(e);
                return samples;
            }
            reps += 1;
        }
        match (cpu, thread_cpu()) {
            (Ok(a), Ok(b)) => samples.push(b.saturating_sub(a).as_secs_f64() / f64::from(reps)),
            (Err(e), _) | (_, Err(e)) => {
                tally.errors.push(e);
                return samples;
            }
        }
    }
    samples
}

/// The end-to-end metrics from their samples. Peak RSS is read once the
/// first [`MIN_REPS`] operations are done, so it covers a fixed amount of
/// work rather than however many operations fit in the time.
fn e2e_metrics(
    events_per_s: &[f64],
    cases_per_s: &[f64],
    setup: &[f64],
    rss: Option<Result<f64, BenchError>>,
) -> Result<Vec<Metric>, BenchError> {
    let rss =
        rss.unwrap_or_else(|| Err(BenchError::new(ErrorKind::NoSamples, "no peak RSS read")))?;
    let values = [
        need(events_per_s, "events_per_s")?,
        need(cases_per_s, "cases_per_s")?,
        need(setup, "setup_s")?,
        rss,
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric::new(name, unit, value))
        .collect())
}

fn scenario_end_to_end(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let start = now();
    let budget = Duration::from_secs_f64(seconds);
    let mut tally = Tally::default();
    let setup = setup_samples(workload, seed, &mut tally);
    let mut reference = None;
    let (mut events_per_s, mut cases_per_s) = (Vec::new(), Vec::new());
    let mut rss = None;
    while tally.attempted < MIN_REPS || start.elapsed() < budget {
        let batch = run_batch(workload, seed, Variant::Base);
        let reference =
            reference.get_or_insert_with(|| reference_prints(&mut tally, workload, seed, &batch));
        let ok = tally.judge(batch_outcomes(workload, &batch), reference);
        for (case, _) in batch.cases.iter().zip(ok).filter(|(_, ok)| *ok) {
            if let Ok(s) = &case.sample {
                events_per_s.push(s.events as f64 / s.run_cpu_s.max(1e-9));
                cases_per_s.push(1.0 / batch.time_s.max(1e-9));
            }
        }
        if rss.is_none() && tally.attempted >= MIN_REPS {
            rss = Some(peak_rss_mb());
        }
    }
    tally.outcome(e2e_metrics(&events_per_s, &cases_per_s, &setup, rss))
}

fn fuzz_end_to_end(seed: u64, seconds: f64) -> Outcome {
    let start = now();
    let budget = Duration::from_secs_f64(seconds);
    let mut tally = Tally::default();
    let setup = setup_samples(Workload::FuzzSweep, seed, &mut tally);
    // The reference pass: the same cases on harness cells of this
    // benchmark's own, which also count the sweep's kernel events.
    let batch = run_batch(Workload::FuzzSweep, seed, Variant::Base);
    let reference = reference_prints(&mut tally, Workload::FuzzSweep, seed, &batch);
    tally.judge(batch_outcomes(Workload::FuzzSweep, &batch), &reference);
    let events = batch.events() as f64;

    let space: CampaignSpace = weakened_space();
    let plan = FuzzPlan::new(seed, FUZZ_CASES);
    let config = HarnessConfig::with_threads(FUZZ_THREADS).quiet();
    let (mut events_per_s, mut cases_per_s) = (Vec::new(), Vec::new());
    let mut sweeps = 0u64;
    let mut rss = None;
    while sweeps < MIN_REPS || start.elapsed() < budget {
        let report = fuzz_space(&space, &plan, &config);
        sweeps += 1;
        let outcomes = report
            .cases
            .iter()
            .map(|c| match &c.outcome {
                Ok(findings) => {
                    let line = case_line(c.case_seed, findings.as_deref().unwrap_or_default());
                    Ok(fnv1a(line.as_bytes()))
                }
                Err(e) => Err(BenchError::new(ErrorKind::Panic, e.panic.clone())),
            })
            .collect();
        let ok = tally.judge(outcomes, &reference);
        if ok.len() == reference.len() && ok.iter().all(|ok| *ok) {
            let wall = report.wall.as_secs_f64().max(1e-9);
            events_per_s.push(events / wall);
            cases_per_s.push(ok.len() as f64 / wall);
        }
        if sweeps == MIN_REPS {
            rss = Some(peak_rss_mb());
        }
    }
    tally.outcome(e2e_metrics(&events_per_s, &cases_per_s, &setup, rss))
}

/// The per-pass numbers of a traced run, by [`PER_LAYER`] name.
type PassValues = Vec<(&'static str, f64)>;

/// Checks that `variant` reproduced `base` case by case: the results
/// digest when `strict`, otherwise the sampling-independent counters.
fn check_variant(tally: &mut Tally, base: &Batch, other: &Batch, strict: bool, what: &str) -> bool {
    let same = base.cases.len() == other.cases.len()
        && base
            .cases
            .iter()
            .zip(&other.cases)
            .all(|(a, b)| match (&a.sample, &b.sample) {
                (Ok(a), Ok(b)) if strict => a.digest == b.digest && a.findings == b.findings,
                (Ok(a), Ok(b)) => a.stream_key == b.stream_key,
                _ => false,
            });
    if !same {
        let err = other.first_error().unwrap_or_else(|| {
            BenchError::new(
                ErrorKind::Mismatch,
                format!("{what} run did not reproduce the untraced run"),
            )
        });
        tally.errors.push(err);
    }
    same
}

/// The traced run: the layer probes once, then per pass the untraced
/// operation, the traced one and each A/B variant that applies. Reports
/// the per-layer metrics, each pass-measured one the median over passes.
pub fn per_layer(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let start = now();
    let budget = Duration::from_secs_f64(seconds);
    let mut tally = Tally::default();
    if let Err(e) = thread_cpu() {
        return tally.outcome(Err(e));
    }
    let spec = match workload {
        Workload::FuzzSweep => {
            let plan = FuzzPlan::new(seed, FUZZ_CASES);
            Ok(fuzz_case_spec(&weakened_space(), plan.case_seed(0)))
        }
        _ => scenario_spec(workload, seed),
    };
    let spec = match spec {
        Ok(spec) => spec,
        Err(e) => {
            tally.errors.push(e);
            return tally.outcome(Err(BenchError::new(
                ErrorKind::NoSamples,
                "the workload spec could not be assembled",
            )));
        }
    };
    let has_monitors = !spec.monitors.is_empty();
    let has_streams = !spec.streams.is_empty();
    // The sweep's monitors are its oracles, so removing them changes the
    // findings; only the event stream must stay the same.
    let monitors_strict = workload != Workload::FuzzSweep;

    // The probes go first, so that the passes fill what is left of the
    // time.
    let probes = Probes::run(&spec);
    // One untimed operation, so that no variant pays the process's warm-up
    // (page faults, allocator growth) inside its timing.
    let warm = run_batch(workload, seed, Variant::Base);
    if let Some(e) = warm.first_error() {
        tally.errors.push(e);
    }
    let mut passes: Vec<PassValues> = Vec::new();
    let mut reference = None;
    loop {
        let base = run_batch(workload, seed, Variant::Base);
        let reference =
            reference.get_or_insert_with(|| reference_prints(&mut tally, workload, seed, &base));
        tally.judge(batch_outcomes(workload, &base), reference);
        let traced = run_batch(workload, seed, Variant::Traced);
        let once = run_batch(workload, seed, Variant::SampleOnce);
        let no_monitors = has_monitors.then(|| run_batch(workload, seed, Variant::NoMonitors));
        let no_streams = has_streams.then(|| run_batch(workload, seed, Variant::NoStreams));
        let mut ok = check_variant(&mut tally, &base, &traced, true, "traced");
        ok &= check_variant(&mut tally, &base, &once, false, "sample-once");
        if let Some(b) = &no_monitors {
            ok &= check_variant(&mut tally, &base, b, monitors_strict, "monitors-off");
        }
        if let Some(b) = &no_streams {
            ok &= check_variant(&mut tally, &base, b, true, "streams-off");
        }
        if ok {
            passes.push(pass_values(
                &base,
                &traced,
                &once,
                no_monitors.as_ref(),
                no_streams.as_ref(),
            ));
        }
        if !ok || (passes.len() >= MIN_PASSES && start.elapsed() >= budget) {
            break;
        }
    }
    let metrics = layer_metrics(&probes, &passes);
    tally.outcome(metrics)
}

/// Per-pass values from one pass's batches.
fn pass_values(
    base: &Batch,
    traced: &Batch,
    once: &Batch,
    no_monitors: Option<&Batch>,
    no_streams: Option<&Batch>,
) -> PassValues {
    let mut gaps = GapTotals::default();
    for s in traced.samples() {
        if let Some(g) = &s.gaps {
            gaps.add(g);
        }
    }
    let c = gaps.counts;
    let base_run = base.run_s().max(1e-9);
    let traced_run = traced.run_s().max(1e-9);
    // The A/B rows compare the times of whole operations.
    let base_time = base.time_s.max(1e-9);
    let stream_s = no_streams.map_or(0.0, |b| base_time - b.time_s);
    let monitor_s = no_monitors.map_or(0.0, |b| base_time - b.time_s);
    let handlers = gaps.secs(Bucket::Device) + gaps.secs(Bucket::Edge) + gaps.secs(Bucket::Cloud);
    let walls: Vec<f64> = base.cases.iter().map(|c| c.wall_s).collect();
    let busy = walls.iter().sum::<f64>() / (base.threads.max(1) as f64 * base.wall_s.max(1e-9));
    let builds: Vec<f64> = base.samples().map(|s| s.build_s * 1e6).collect();
    let gens: Vec<f64> = base.samples().map(|s| s.gen_s * 1e6).collect();
    vec![
        ("sim.events", base.events() as f64),
        ("sim.timer_fired", c.timer_fired as f64),
        ("sim.delivered", c.delivered as f64),
        ("sim.dropped.loss", c.dropped_loss as f64),
        ("sim.dropped.partition", c.dropped_partition as f64),
        ("sim.dropped.down", c.dropped_down as f64),
        ("sim.stream_s", stream_s),
        ("net.sent_gap_s", gaps.secs(Bucket::Sent)),
        (
            "net.delivery_ratio",
            if c.sent == 0 {
                0.0
            } else {
                c.delivered as f64 / c.sent as f64
            },
        ),
        ("core.device_s", gaps.secs(Bucket::Device)),
        ("core.edge_s", gaps.secs(Bucket::Edge)),
        ("core.cloud_s", gaps.secs(Bucket::Cloud)),
        ("core.sampler_s", base_time - once.time_s),
        ("core.sampler_gap_s", gaps.secs(Bucket::Sampler)),
        ("core.build_us", median(&builds).unwrap_or(0.0)),
        ("formal.monitor_s", monitor_s),
        ("campaign.gen_us", median(&gens).unwrap_or(0.0)),
        ("harness.busy_frac", busy),
        (
            "harness.case_ms_p50",
            quantile(&walls, 0.5).unwrap_or(0.0) * 1e3,
        ),
        (
            "harness.case_ms_p99",
            quantile(&walls, 0.99).unwrap_or(0.0) * 1e3,
        ),
        ("trace.overhead", traced_run / base_run - 1.0),
        ("trace.gap_sum_ratio", gaps.total_secs() / traced_run),
        ("share.net", gaps.secs(Bucket::Sent) / traced_run),
        ("share.core", handlers / traced_run),
        ("share.sampler", gaps.secs(Bucket::Sampler) / traced_run),
        ("share.formal", monitor_s / base_time),
        ("share.stream", stream_s / base_time),
        // Carried for share.sim, which needs the kernel probe, and for
        // trace.ab_noise_s, which needs every pass.
        ("base_run_s", base_run),
        ("base_time_s", base_time),
    ]
}

/// The layer probes' results.
struct Probes {
    ns_per_event: f64,
    routes: probe::RouteCosts,
    store: probe::StoreCosts,
    step_ns: f64,
}

impl Probes {
    fn run(spec: &ScenarioSpec) -> Probes {
        Probes {
            ns_per_event: probe::kernel_ns_per_event(spec),
            routes: probe::route_costs(spec),
            store: probe::store_costs(spec),
            step_ns: probe::monitor_step_ns(spec),
        }
    }
}

/// Medians over passes plus the layer probes, in [`PER_LAYER`] order.
fn layer_metrics(probes: &Probes, passes: &[PassValues]) -> Result<Vec<Metric>, BenchError> {
    if passes.is_empty() {
        return Err(BenchError::new(
            ErrorKind::NoSamples,
            "no traced pass completed",
        ));
    }
    let column = |name: &str| -> Vec<f64> {
        passes
            .iter()
            .filter_map(|p| p.iter().find(|(n, _)| *n == name).map(|(_, v)| *v))
            .collect()
    };
    let pass_median = |name: &str| median(&column(name));
    let (ns_per_event, routes, store) = (probes.ns_per_event, &probes.routes, &probes.store);
    let events = pass_median("sim.events").unwrap_or(0.0);
    let base_run = pass_median("base_run_s").unwrap_or(1.0).max(1e-9);
    // The spread the A/B rows sit in: the interquartile range of the base
    // operation's time over passes.
    let base_time = column("base_time_s");
    let ab_noise =
        quantile(&base_time, 0.75).unwrap_or(0.0) - quantile(&base_time, 0.25).unwrap_or(0.0);
    let probed = [
        ("sim.ns_per_event", ns_per_event),
        ("net.route_cold_us_p50", routes.cold_p50_us),
        ("net.route_cold_us_p99", routes.cold_p99_us),
        ("net.route_warmup_s", routes.warmup_s),
        ("net.route_rewarm_s", routes.rewarm_s),
        ("data.ingest_ns", store.ingest_ns),
        ("data.sync_out_us", store.sync_out_us),
        ("data.sync_records", store.sync_records),
        ("formal.step_ns", probes.step_ns),
        ("share.sim", ns_per_event * 1e-9 * events / base_run),
        ("trace.ab_noise_s", ab_noise),
    ];
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            probed
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .or_else(|| pass_median(name))
                .map(|value| Metric::new(name, unit, value))
                .ok_or_else(|| {
                    BenchError::new(
                        ErrorKind::NoSamples,
                        format!("per-layer metric {name} unset"),
                    )
                })
        })
        .collect()
}
