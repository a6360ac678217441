//! Layer probes: each rebuilds one layer's structure at the workload's
//! size and times its public entry points in isolation.

use crate::now;
use crate::report::quantile;
use riot_core::{standard_domains, ScenarioSpec};
use riot_data::{DataMeta, KeySpace, PolicyEngine, ReplicatedStore};
use riot_formal::{OnlineMonitor, Valuation};
use riot_model::DomainId;
use riot_net::{presets, Hierarchy, HierarchySpec, LatencyModel, Link};
use riot_sim::{Ctx, Process, ProcessId, SimBuilder, SimDuration, SimRng, SimTime};
use std::hint::black_box;

/// Timer-only stand-in for a scenario process: re-arms each of its
/// periods forever and does nothing else.
struct Ticker {
    periods: [Option<SimDuration>; 3],
}

impl Process<()> for Ticker {
    fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
        for (tag, period) in self.periods.iter().enumerate() {
            if let Some(p) = period {
                ctx.schedule(*p, tag as u64);
            }
        }
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_, ()>, _from: ProcessId, _msg: ()) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, tag: u64) {
        if let Some(Some(p)) = self.periods.get(tag as usize) {
            ctx.schedule(*p, tag);
        }
    }
}

/// Kernel cost per event: a `SimBuilder` simulation with the workload's
/// process count, where devices re-arm the sense and control periods and
/// the cloud and edges the sync, MAPE and (when coordinating) gossip
/// periods, run for the workload's virtual duration. Returns ns/event.
pub fn kernel_ns_per_event(spec: &ScenarioSpec) -> f64 {
    let arch = spec.architecture();
    let infra = [
        Some(arch.sync_period),
        Some(arch.mape_period),
        arch.decentralized_coordination.then_some(arch.coord_tick),
    ];
    let device = [Some(arch.sense_period), Some(arch.control_period), None];
    let infra_count = 1 + spec.edges;
    let mut sim = SimBuilder::new(spec.seed)
        .expect_processes(infra_count + spec.device_count())
        .build::<()>();
    for _ in 0..infra_count {
        sim.add_process(Ticker { periods: infra });
    }
    for _ in 0..spec.device_count() {
        sim.add_process(Ticker { periods: device });
    }
    let t0 = now();
    let events = sim.run_until(SimTime::ZERO + spec.duration);
    let wall = t0.elapsed();
    wall.as_nanos() as f64 / events.max(1) as f64
}

/// Route-resolution costs on the workload's topology.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RouteCosts {
    /// Median cold `Network::path` call, µs.
    pub cold_p50_us: f64,
    /// 99th-percentile cold call, µs.
    pub cold_p99_us: f64,
    /// Every probed pair once, cold cache, s.
    pub warmup_s: f64,
    /// The same pairs after one cut + restore of an edge uplink, s.
    pub rewarm_s: f64,
}

/// Node visits the route probe may spend: a cold device→cloud call can
/// visit most of the graph, so the probe strides over the devices of a
/// fleet too large to resolve in full within it (`ml1_fleet`, `ml4_storm`).
const ROUTE_BUDGET: usize = 5_000_000;

/// Resolves every device↔cloud and device↔edge pair on the topology
/// `Scenario::build` makes (the hierarchy plus each device's backup link
/// to the next edge), cold; then cuts and restores edge 0's uplink, which
/// flushes the route cache, and resolves them again.
pub fn route_costs(spec: &ScenarioSpec) -> RouteCosts {
    let hspec = HierarchySpec {
        edges: spec.edges,
        devices_per_edge: spec.devices_per_edge,
        device_edge: presets::device_edge(),
        edge_cloud: spec.edge_cloud_link.unwrap_or_else(presets::edge_cloud),
        edge_mesh: Some(presets::edge_edge()),
    };
    let (mut net, hierarchy) = Hierarchy::build(&hspec);
    let backup = Link {
        latency: LatencyModel::uniform_ms(4, 12),
        loss: 0.005,
    };
    let mut pairs = Vec::new();
    let nodes = net.node_count().max(1);
    let devices = spec.device_count().max(1);
    let stride = devices.div_ceil((ROUTE_BUDGET / nodes).max(1)).max(1);
    let mut index = 0usize;
    for (e, devs) in hierarchy.devices.iter().enumerate() {
        let Some(&edge) = hierarchy.edges.get(e) else {
            continue;
        };
        let next = hierarchy.edges.get((e + 1) % hierarchy.edges.len().max(1));
        for &d in devs {
            if let Some(&next) = next.filter(|_| spec.edges > 1) {
                net.add_link(d, next, backup);
            }
            if index.is_multiple_of(stride) {
                pairs.push((d, hierarchy.cloud));
                pairs.push((d, edge));
            }
            index += 1;
        }
    }
    let mut cold_us = Vec::with_capacity(pairs.len());
    let warm0 = now();
    for &(a, b) in &pairs {
        let t = now();
        black_box(net.path(a, b));
        cold_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let warmup_s = warm0.elapsed().as_secs_f64();
    if let Some(&edge) = hierarchy.edges.first() {
        net.cut_link(edge, hierarchy.cloud);
        net.restore_link(edge, hierarchy.cloud);
    }
    let rewarm0 = now();
    for &(a, b) in &pairs {
        black_box(net.path(a, b));
    }
    RouteCosts {
        cold_p50_us: quantile(&cold_us, 0.5).unwrap_or(0.0),
        cold_p99_us: quantile(&cold_us, 0.99).unwrap_or(0.0),
        warmup_s,
        rewarm_s: rewarm0.elapsed().as_secs_f64(),
    }
}

/// Replicated-store costs at the workload's key count.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StoreCosts {
    /// Policy-checked `ingest_key` per record, ns.
    pub ingest_ns: f64,
    /// One full `sync_out(.., SimTime::ZERO)` plus the peer's `on_sync`, µs.
    pub sync_out_us: f64,
    /// Records that sync shipped.
    pub sync_records: f64,
}

/// Rounds of the store probe; the median round is reported.
const STORE_ROUNDS: usize = 5;

/// Fills a store with one reading per device (every `personal_every`-th
/// personal, as the scenario does) under the level's policy, then ships
/// it whole to a peer, as the cloud and edges do every sync period.
pub fn store_costs(spec: &ScenarioSpec) -> StoreCosts {
    let arch = spec.architecture();
    let policy = || {
        if arch.governed_data {
            PolicyEngine::governed()
        } else {
            PolicyEngine::permissive()
        }
    };
    let registry = standard_domains();
    let keys = KeySpace::new();
    let ids: Vec<_> = (0..spec.device_count())
        .map(|i| keys.intern(&format!("dev{i}/reading")))
        .collect();
    let home = DomainId(0);
    let mut ingest = Vec::with_capacity(STORE_ROUNDS);
    let mut sync = Vec::with_capacity(STORE_ROUNDS);
    let mut records = 0usize;
    for round in 0..STORE_ROUNDS {
        let at = SimTime::from_secs(1 + round as u64);
        let mut store = ReplicatedStore::with_keys(0, home, policy(), keys.clone());
        let mut peer = ReplicatedStore::with_keys(1, home, policy(), keys.clone());
        let t = now();
        for (i, &key) in ids.iter().enumerate() {
            let meta = if spec.personal_every > 0 && i.is_multiple_of(spec.personal_every) {
                DataMeta::personal(home, at)
            } else {
                DataMeta::operational(home, at)
            };
            black_box(store.ingest_key(key, i as f64, meta, &registry, at));
        }
        ingest.push(t.elapsed().as_nanos() as f64 / ids.len().max(1) as f64);
        let t = now();
        let msg = store.sync_out(home, &registry, SimTime::ZERO);
        records = msg.entries.len();
        black_box(peer.on_sync(msg, &registry, at));
        sync.push(t.elapsed().as_secs_f64() * 1e6);
    }
    StoreCosts {
        ingest_ns: quantile(&ingest, 0.5).unwrap_or(0.0),
        sync_out_us: quantile(&sync, 0.5).unwrap_or(0.0),
        sync_records: records as f64,
    }
}

/// Valuations the monitor probe steps through.
const MONITOR_STEPS: usize = 200_000;

/// The atoms a scenario publishes in each valuation.
const VALUATION_ATOMS: [&str; 7] = [
    "all",
    "goal",
    "latency",
    "availability",
    "coverage",
    "freshness",
    "privacy",
];

/// `OnlineMonitor::step_valuation` cost, ns per valuation, over the
/// workload's monitors fed seeded random valuations; 0 when the workload
/// monitors nothing.
pub fn monitor_step_ns(spec: &ScenarioSpec) -> f64 {
    if spec.monitors.is_empty() {
        return 0.0;
    }
    let mut bank = OnlineMonitor::new("sat");
    for m in &spec.monitors {
        if bank.watch(&m.name, &m.formula).is_err() {
            return 0.0;
        }
    }
    let atoms: Vec<_> = VALUATION_ATOMS
        .iter()
        .filter_map(|name| bank.atoms().lookup(name))
        .collect();
    let mut rng = SimRng::seed_from(spec.seed);
    let valuations: Vec<Valuation> = (0..MONITOR_STEPS)
        .map(|_| {
            let mut v = Valuation::EMPTY;
            for &atom in &atoms {
                // Mostly satisfied, as in a run: each atom fails one step in 8.
                v.set(atom, !rng.next_u64().is_multiple_of(8));
            }
            v
        })
        .collect();
    let t = now();
    for (i, &v) in valuations.iter().enumerate() {
        bank.step_valuation(SimTime::from_secs(i as u64), v);
    }
    black_box(bank.samples());
    t.elapsed().as_nanos() as f64 / MONITOR_STEPS as f64
}
