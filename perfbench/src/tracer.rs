//! The gap tracer: an observer that charges host time between kernel
//! events to the layer that ran in between.
//!
//! The kernel emits `Delivered` and `TimerFired` just before it calls the
//! receiving handler, and `Sent` just before it routes the message. So the
//! host time from one event to the next is spent in whatever the earlier
//! event started: a device, edge or cloud handler, or routing plus the rest
//! of the sending handler. Between two sample boundaries
//! `Scenario::run` runs the sampler, which publishes its valuation as an
//! external note; a gap that crosses a boundary, or ends at that note, is charged to
//! the sampler. Gaps are self times of the whole process class, including
//! the kernel's pop of the next event; `coord` (SWIM, gossip, election),
//! `adapt` (MAPE) and `data` (stores) run inside edge and cloud handlers
//! and are counted there.

use crate::now;
use riot_sim::{EventMask, ProcessId, SimEvent, SimEventKind, SimObserver};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Where a gap is charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bucket {
    /// A device handler.
    Device,
    /// An edge handler.
    Edge,
    /// The cloud handler.
    Cloud,
    /// Routing plus the rest of the sending handler, after `Sent`.
    Sent,
    /// The sampler `Scenario::run` calls at each sample boundary.
    Sampler,
    /// Lifecycle transitions and external notes other than samples.
    Other,
}

impl Bucket {
    const COUNT: usize = 6;

    fn slot(self) -> usize {
        match self {
            Bucket::Device => 0,
            Bucket::Edge => 1,
            Bucket::Cloud => 2,
            Bucket::Sent => 3,
            Bucket::Sampler => 4,
            Bucket::Other => 5,
        }
    }
}

/// Exact event counts seen by the tracer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Messages submitted to the medium.
    pub sent: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Timers fired.
    pub timer_fired: u64,
    /// Messages lost on a link.
    pub dropped_loss: u64,
    /// Messages dropped for want of a route.
    pub dropped_partition: u64,
    /// Messages dropped at a down destination.
    pub dropped_down: u64,
}

impl EventCounts {
    fn add(&mut self, other: &EventCounts) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.timer_fired += other.timer_fired;
        self.dropped_loss += other.dropped_loss;
        self.dropped_partition += other.dropped_partition;
        self.dropped_down += other.dropped_down;
    }
}

/// Host time per bucket for one traced run (or a sum of runs).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GapTotals {
    buckets: [Duration; Bucket::COUNT],
    /// From the start of `Scenario::run` to the first event.
    pub head: Duration,
    /// From the last event to the return of `Scenario::run`.
    pub tail: Duration,
    /// Event counts.
    pub counts: EventCounts,
}

impl GapTotals {
    /// Seconds charged to `bucket`.
    pub fn secs(&self, bucket: Bucket) -> f64 {
        self.buckets
            .get(bucket.slot())
            .map_or(0.0, Duration::as_secs_f64)
    }

    /// Seconds over every bucket plus head and tail: the traced run's
    /// wall time, up to the cost of the clock reads themselves.
    pub fn total_secs(&self) -> f64 {
        let gaps: Duration = self.buckets.iter().sum();
        (gaps + self.head + self.tail).as_secs_f64()
    }

    /// Adds another run's totals.
    pub fn add(&mut self, other: &GapTotals) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += *b;
        }
        self.head += other.head;
        self.tail += other.tail;
        self.counts.add(&other.counts);
    }
}

/// What a tracer leaves behind when its simulation is dropped: its totals
/// and the instants of its first and last events.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceRecord {
    /// Gap totals (head and tail unset; the runner knows the run's span).
    pub totals: GapTotals,
    /// Host instant of the first event.
    pub first: Option<Instant>,
    /// Host instant of the last event.
    pub last: Option<Instant>,
}

/// The slot a tracer publishes into when its simulation is dropped.
pub type TraceSink = Arc<Mutex<Option<TraceRecord>>>;

/// The gap-charging observer. Register one per scenario through
/// `ScenarioSpec::observers`; read its record from the sink after
/// `Scenario::run` returns.
#[derive(Debug)]
pub struct GapTracer {
    sink: TraceSink,
    edges: usize,
    sample_us: u64,
    record: TraceRecord,
    /// Instant, bucket and sample period of the previous event.
    prev: Option<(Instant, Bucket, u64)>,
}

impl GapTracer {
    /// A tracer for a scenario with `edges` edges sampled every
    /// `sample_us` virtual microseconds.
    pub fn new(sink: TraceSink, edges: usize, sample_us: u64) -> GapTracer {
        GapTracer {
            sink,
            edges,
            sample_us: sample_us.max(1),
            record: TraceRecord::default(),
            prev: None,
        }
    }

    /// The process class of `id`: cloud first, then edges, then devices.
    fn class(&self, id: ProcessId) -> Bucket {
        match id.0 {
            0 => Bucket::Cloud,
            usize::MAX => Bucket::Other,
            i if i <= self.edges => Bucket::Edge,
            _ => Bucket::Device,
        }
    }

    /// The bucket that the gap after `kind` is charged to.
    fn bucket(&self, kind: &SimEventKind) -> Bucket {
        match kind {
            SimEventKind::Sent { .. } => Bucket::Sent,
            SimEventKind::Delivered { to, .. } => self.class(*to),
            // A link drop happens inside the sender's handler, which goes on
            // after it; a drop at a down node is a bare kernel pop.
            SimEventKind::Dropped { from, .. } => self.class(*from),
            SimEventKind::TimerFired { owner, .. } => self.class(*owner),
            SimEventKind::Note { id, .. } | SimEventKind::Measure { id, .. } => self.class(*id),
            SimEventKind::ProcessDown { .. } | SimEventKind::ProcessUp { .. } => Bucket::Other,
        }
    }

    fn count(&mut self, kind: &SimEventKind) {
        let c = &mut self.record.totals.counts;
        match kind {
            SimEventKind::Sent { .. } => c.sent += 1,
            SimEventKind::Delivered { .. } => c.delivered += 1,
            SimEventKind::TimerFired { .. } => c.timer_fired += 1,
            SimEventKind::Dropped { reason, .. } => match *reason {
                "loss" => c.dropped_loss += 1,
                "partition" => c.dropped_partition += 1,
                _ => c.dropped_down += 1,
            },
            _ => {}
        }
    }
}

impl SimObserver for GapTracer {
    fn on_event(&mut self, event: &SimEvent) {
        let t = now();
        // Events at a boundary instant run before that boundary's sample.
        let period = event.at.as_micros().div_ceil(self.sample_us);
        let sample_note = matches!(event.kind, SimEventKind::Note { id, .. } if id.0 == usize::MAX);
        if let Some((last, bucket, last_period)) = self.prev {
            let charged = if period > last_period || sample_note {
                Bucket::Sampler
            } else {
                bucket
            };
            if let Some(slot) = self.record.totals.buckets.get_mut(charged.slot()) {
                *slot += t.saturating_duration_since(last);
            }
        } else {
            self.record.first = Some(t);
        }
        self.count(&event.kind);
        self.prev = Some((t, self.bucket(&event.kind), period));
    }

    /// Every kind: each event closes the previous gap.
    fn interest(&self) -> EventMask {
        EventMask::ALL
    }
}

impl Drop for GapTracer {
    fn drop(&mut self) {
        self.record.last = self.prev.map(|(t, _, _)| t);
        // A poisoned sink only means another run panicked; this record is
        // whole either way.
        let mut slot = match self.sink.lock() {
            Ok(slot) => slot,
            Err(poisoned) => poisoned.into_inner(),
        };
        *slot = Some(self.record);
    }
}
