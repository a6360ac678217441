//! Differential test of the routing resolver.
//!
//! `reference::RefNetwork` is the resolver `Network` had before per-root
//! shortest-path trees, kept verbatim: a pair cache with reverse priming
//! in front of one early-exit Dijkstra per `(from, to)` pair. Both are
//! driven in lockstep through seeded random sequences of queries (`path`,
//! `reachable`, `Medium::route`, in both directions) and topology
//! mutations, on the scenario hierarchy with backup links and on random
//! graphs whose weights come from a two- or three-value set so that
//! equal-cost paths are common. Every answer, every `Delivery`, the RNG
//! state after every route, and the link lists `isolate`/`partition`
//! return must be equal.
//!
//! riot-lint: allow-file(P1, reason = "test code: a panic is a test failure; the reference resolver is a verbatim copy of code that carried the same file allow, and its method names make the call-graph pass treat it as reachable from library callers")

use riot_net::{presets, LatencyModel, Link, Network, NodeKind};
use riot_sim::{Delivery, Medium, ProcessId, SimDuration, SimRng, SimTime};

mod reference {
    use riot_net::{LatencyModel, Link, NodeInfo, NodeKind};
    use riot_sim::{Delivery, Medium, ProcessId, SimDuration, SimRng, SimTime};
    use std::any::Any;
    use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

    fn key(a: ProcessId, b: ProcessId) -> (usize, usize) {
        if a.0 <= b.0 {
            (a.0, b.0)
        } else {
            (b.0, a.0)
        }
    }

    /// One hop of a fully resolved route, flattened for the per-message hot
    /// path: the link's loss and latency model plus its degradation factor
    /// (`None` when the link is not in the degraded table, mirroring the
    /// conditional `mul_f64` of the uncached path exactly — applying a 1.0
    /// factor is not a bit-exact identity through `f64` seconds).
    #[derive(Debug, Clone, Copy)]
    struct CachedHop {
        loss: f64,
        latency: LatencyModel,
        factor: Option<f64>,
    }

    /// One sender's resolved routes, sorted by destination node index; `None`
    /// hops record a partition.
    type RouteTable = Vec<(u32, Option<Box<[CachedHop]>>)>;

    /// The resolver before per-root trees, kept as the reference.
    #[derive(Debug)]
    pub struct RefNetwork {
        nodes: Vec<NodeInfo>,
        links: BTreeMap<(usize, usize), Link>,
        adjacency: Vec<Vec<usize>>,
        cut: BTreeSet<(usize, usize)>,
        /// Latency multipliers for degraded links (congestion, interference).
        degraded: BTreeMap<(usize, usize), f64>,
        per_hop_overhead: SimDuration,
        external_latency: SimDuration,
        path_cache: BTreeMap<(usize, usize), Option<Vec<usize>>>,
        /// Flattened per-hop route data: `routes[from]` is sorted by
        /// destination, so the per-message lookup is one index plus a binary
        /// search over that sender's (few) known destinations. `None` records a
        /// partition. Rebuilt lazily from `path_indices` + `links` + `degraded`;
        /// cleared by [`RefNetwork::invalidate`] and by degradation changes (which
        /// leave `path_cache` alone — degradation is invisible to routing).
        routes: Vec<RouteTable>,
    }

    impl RefNetwork {
        /// Creates an empty network.
        pub fn new() -> Self {
            RefNetwork {
                nodes: Vec::new(),
                links: BTreeMap::new(),
                adjacency: Vec::new(),
                cut: BTreeSet::new(),
                degraded: BTreeMap::new(),
                per_hop_overhead: SimDuration::ZERO,
                external_latency: SimDuration::ZERO,
                path_cache: BTreeMap::new(),
                routes: Vec::new(),
            }
        }

        /// Sets a fixed processing overhead added per hop traversed.
        pub fn set_per_hop_overhead(&mut self, d: SimDuration) {
            self.per_hop_overhead = d;
            self.invalidate();
        }

        /// Adds a node and returns its id. Ids are assigned densely in call
        /// order and must match the order processes are spawned in the sim.
        pub fn add_node(&mut self, kind: NodeKind, label: impl Into<String>) -> ProcessId {
            let id = ProcessId(self.nodes.len());
            self.nodes.push(NodeInfo {
                kind,
                label: label.into(),
            });
            self.adjacency.push(Vec::new());
            id
        }

        /// Adds (or replaces) a bidirectional link.
        ///
        /// # Panics
        ///
        /// Panics if either endpoint is unknown or `a == b`.
        pub fn add_link(&mut self, a: ProcessId, b: ProcessId, link: Link) {
            assert!(a != b, "self-links are not allowed");
            assert!(
                a.0 < self.nodes.len() && b.0 < self.nodes.len(),
                "unknown endpoint"
            );
            let k = key(a, b);
            if self.links.insert(k, link).is_none() {
                self.adjacency[a.0].push(b.0);
                self.adjacency[b.0].push(a.0);
            }
            self.invalidate();
        }

        /// Removes a link entirely (distinct from cutting, which is reversible
        /// via [`RefNetwork::heal_all`]).
        pub fn remove_link(&mut self, a: ProcessId, b: ProcessId) {
            let k = key(a, b);
            if self.links.remove(&k).is_some() {
                self.adjacency[a.0].retain(|&n| n != b.0);
                self.adjacency[b.0].retain(|&n| n != a.0);
            }
            self.cut.remove(&k);
            self.invalidate();
        }

        /// Cuts one link (both directions). Cut links drop every message until
        /// healed.
        pub fn cut_link(&mut self, a: ProcessId, b: ProcessId) {
            if self.links.contains_key(&key(a, b)) {
                self.cut.insert(key(a, b));
                self.invalidate();
            }
        }

        /// Restores one previously cut link.
        pub fn restore_link(&mut self, a: ProcessId, b: ProcessId) {
            if self.cut.remove(&key(a, b)) {
                self.invalidate();
            }
        }

        /// Cuts every link adjacent to `n`, isolating it. Returns the links
        /// that were newly cut, so a healer can restore exactly them.
        pub fn isolate(&mut self, n: ProcessId) -> Vec<(ProcessId, ProcessId)> {
            let neighbors: Vec<usize> = self.adjacency[n.0].clone();
            let mut newly_cut = Vec::new();
            for m in neighbors {
                if self.cut.insert(key(n, ProcessId(m))) {
                    newly_cut.push((n, ProcessId(m)));
                }
            }
            self.invalidate();
            newly_cut
        }

        /// Restores every link adjacent to `n`.
        pub fn rejoin(&mut self, n: ProcessId) {
            let neighbors: Vec<usize> = self.adjacency[n.0].clone();
            for m in neighbors {
                self.cut.remove(&key(n, ProcessId(m)));
            }
            self.invalidate();
        }

        /// Partitions the network into the given groups: every link whose
        /// endpoints fall in different groups is cut. Nodes not mentioned keep
        /// all their links. Returns the links that were newly cut, so a healer
        /// can restore exactly them.
        pub fn partition(&mut self, groups: &[Vec<ProcessId>]) -> Vec<(ProcessId, ProcessId)> {
            let mut group_of: BTreeMap<usize, usize> = BTreeMap::new();
            for (gi, members) in groups.iter().enumerate() {
                for m in members {
                    group_of.insert(m.0, gi);
                }
            }
            let keys: Vec<(usize, usize)> = self.links.keys().copied().collect();
            let mut newly_cut = Vec::new();
            for (a, b) in keys {
                if let (Some(ga), Some(gb)) = (group_of.get(&a), group_of.get(&b)) {
                    if ga != gb && self.cut.insert((a, b)) {
                        newly_cut.push((ProcessId(a), ProcessId(b)));
                    }
                }
            }
            self.invalidate();
            newly_cut
        }

        /// Heals every cut link.
        pub fn heal_all(&mut self) {
            self.cut.clear();
            self.invalidate();
        }

        /// Degrades a link: every message over it takes `factor` times its
        /// sampled latency (congestion or radio interference, §II's adverse
        /// environments). Factors below 1 are clamped to 1. Routing weights
        /// are unchanged — congestion is invisible to the (static) routing
        /// tables, as in real IP networks.
        pub fn degrade_link(&mut self, a: ProcessId, b: ProcessId, factor: f64) {
            if self.links.contains_key(&key(a, b)) {
                self.degraded.insert(key(a, b), factor.max(1.0));
                // Routing is unaffected, but cached hop factors are now stale.
                self.clear_routes();
            }
        }

        /// Removes any degradation from a link.
        pub fn restore_link_quality(&mut self, a: ProcessId, b: ProcessId) {
            if self.degraded.remove(&key(a, b)).is_some() {
                self.clear_routes();
            }
        }

        /// The current degradation factor of a link (1.0 when healthy).
        pub fn degradation(&self, a: ProcessId, b: ProcessId) -> f64 {
            self.degraded.get(&key(a, b)).copied().unwrap_or(1.0)
        }

        /// `true` if a usable (existing and not cut) link joins `a` and `b`.
        pub fn link_usable(&self, a: ProcessId, b: ProcessId) -> bool {
            let k = key(a, b);
            self.links.contains_key(&k) && !self.cut.contains(&k)
        }

        /// Moves a device to a new parent: all current links of `dev` are
        /// removed and a single new link to `parent` is added — the mobility
        /// primitive (a phone roaming between gateways, a vehicle between road-
        /// side units).
        pub fn reattach(&mut self, dev: ProcessId, parent: ProcessId, link: Link) {
            let neighbors: Vec<usize> = self.adjacency[dev.0].clone();
            for m in neighbors {
                self.remove_link(dev, ProcessId(m));
            }
            self.add_link(dev, parent, link);
        }

        /// The current minimum-expected-latency path between two nodes, if the
        /// network (minus cut links) connects them. The path includes both
        /// endpoints.
        pub fn path(&mut self, from: ProcessId, to: ProcessId) -> Option<Vec<ProcessId>> {
            self.path_indices(from.0, to.0)
                .map(|p| p.iter().map(|&i| ProcessId(i)).collect())
        }

        /// `true` if `from` can currently reach `to`.
        pub fn reachable(&mut self, from: ProcessId, to: ProcessId) -> bool {
            if from == to {
                return true;
            }
            self.path_indices(from.0, to.0).is_some()
        }

        fn invalidate(&mut self) {
            self.path_cache.clear();
            self.clear_routes();
        }

        /// Empties every per-sender route list, keeping their allocations.
        fn clear_routes(&mut self) {
            for list in &mut self.routes {
                list.clear();
            }
        }

        /// Resolves and flattens the `(from, to)` route into per-hop link data,
        /// caching the result in `from`'s route list. `None` records a
        /// partition.
        fn resolve_hops(&mut self, from: usize, to: usize) -> Option<&[CachedHop]> {
            if self.routes.len() < self.nodes.len() {
                self.routes.resize_with(self.nodes.len(), Vec::new);
            }
            let pos = match self.routes[from].binary_search_by_key(&(to as u32), |e| e.0) {
                Ok(i) => i,
                Err(i) => {
                    let hops = self.path_indices(from, to).map(|path| {
                        path.windows(2)
                            .map(|pair| {
                                let k = if pair[0] <= pair[1] {
                                    (pair[0], pair[1])
                                } else {
                                    (pair[1], pair[0])
                                };
                                let link = self.links[&k];
                                CachedHop {
                                    loss: link.loss,
                                    latency: link.latency,
                                    factor: self.degraded.get(&k).copied(),
                                }
                            })
                            .collect()
                    });
                    self.routes[from].insert(i, (to as u32, hops));
                    i
                }
            };
            self.routes[from][pos].1.as_deref()
        }

        fn path_indices(&mut self, from: usize, to: usize) -> Option<Vec<usize>> {
            if from >= self.nodes.len() || to >= self.nodes.len() {
                return None;
            }
            if let Some(cached) = self.path_cache.get(&(from, to)) {
                return cached.clone();
            }
            let result = self.dijkstra(from, to);
            self.path_cache.insert((from, to), result.clone());
            if let Some(p) = &result {
                // A path is symmetric under this cost model; prime the reverse.
                let mut rev = p.clone();
                rev.reverse();
                self.path_cache.insert((to, from), Some(rev));
            }
            result
        }

        pub fn dijkstra(&self, from: usize, to: usize) -> Option<Vec<usize>> {
            use std::cmp::Reverse;
            let n = self.nodes.len();
            let mut dist = vec![u64::MAX; n];
            let mut prev = vec![usize::MAX; n];
            let mut heap = BinaryHeap::new();
            dist[from] = 0;
            heap.push(Reverse((0u64, from)));
            while let Some(Reverse((d, u))) = heap.pop() {
                if u == to {
                    break;
                }
                if d > dist[u] {
                    continue;
                }
                for &v in &self.adjacency[u] {
                    let k = if u <= v { (u, v) } else { (v, u) };
                    if self.cut.contains(&k) {
                        continue;
                    }
                    let link = &self.links[&k];
                    let w = link.latency.mean().as_micros().max(1);
                    let nd = d.saturating_add(w);
                    if nd < dist[v] {
                        dist[v] = nd;
                        prev[v] = u;
                        heap.push(Reverse((nd, v)));
                    }
                }
            }
            if dist[to] == u64::MAX {
                return None;
            }
            let mut path = vec![to];
            let mut cur = to;
            while cur != from {
                cur = prev[cur];
                path.push(cur);
            }
            path.reverse();
            Some(path)
        }
    }

    impl Default for RefNetwork {
        fn default() -> Self {
            RefNetwork::new()
        }
    }

    impl<M> Medium<M> for RefNetwork {
        fn route(
            &mut self,
            _now: SimTime,
            from: ProcessId,
            to: ProcessId,
            _msg: &M,
            rng: &mut SimRng,
        ) -> Delivery {
            // Endpoints outside the topology (external senders, observer
            // processes) communicate out-of-band with a fixed latency.
            if from.0 >= self.nodes.len() || to.0 >= self.nodes.len() {
                return Delivery::After(self.external_latency);
            }
            if from == to {
                return Delivery::After(SimDuration::ZERO);
            }
            let overhead = self.per_hop_overhead;
            let Some(hops) = self.resolve_hops(from.0, to.0) else {
                return Delivery::Drop("partition");
            };
            // RNG discipline: per hop, one `chance` draw then one latency
            // sample, aborting on the first loss — the exact draw sequence of
            // the uncached walk, so cached routing is bit-identical.
            let mut total = SimDuration::ZERO;
            for hop in hops {
                if rng.chance(hop.loss) {
                    return Delivery::Drop("loss");
                }
                let mut d = hop.latency.sample(rng);
                if let Some(factor) = hop.factor {
                    d = d.mul_f64(factor);
                }
                total += d + overhead;
            }
            Delivery::After(total)
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
}

use reference::RefNetwork;

/// The operations both resolvers are driven through.
trait Resolver {
    fn add_link(&mut self, a: ProcessId, b: ProcessId, link: Link);
    fn remove_link(&mut self, a: ProcessId, b: ProcessId);
    fn cut_link(&mut self, a: ProcessId, b: ProcessId);
    fn restore_link(&mut self, a: ProcessId, b: ProcessId);
    fn isolate(&mut self, n: ProcessId) -> Vec<(ProcessId, ProcessId)>;
    fn rejoin(&mut self, n: ProcessId);
    fn partition(&mut self, groups: &[Vec<ProcessId>]) -> Vec<(ProcessId, ProcessId)>;
    fn heal_all(&mut self);
    fn degrade_link(&mut self, a: ProcessId, b: ProcessId, factor: f64);
    fn restore_link_quality(&mut self, a: ProcessId, b: ProcessId);
    fn degradation(&self, a: ProcessId, b: ProcessId) -> f64;
    fn link_usable(&self, a: ProcessId, b: ProcessId) -> bool;
    fn reattach(&mut self, dev: ProcessId, parent: ProcessId, link: Link);
    fn set_per_hop_overhead(&mut self, d: SimDuration);
    fn path(&mut self, from: ProcessId, to: ProcessId) -> Option<Vec<ProcessId>>;
    fn reachable(&mut self, from: ProcessId, to: ProcessId) -> bool;
    fn route(&mut self, from: ProcessId, to: ProcessId, rng: &mut SimRng) -> Delivery;
}

macro_rules! impl_resolver {
    ($t:ty) => {
        impl Resolver for $t {
            fn add_link(&mut self, a: ProcessId, b: ProcessId, link: Link) {
                <$t>::add_link(self, a, b, link)
            }
            fn remove_link(&mut self, a: ProcessId, b: ProcessId) {
                <$t>::remove_link(self, a, b)
            }
            fn cut_link(&mut self, a: ProcessId, b: ProcessId) {
                <$t>::cut_link(self, a, b)
            }
            fn restore_link(&mut self, a: ProcessId, b: ProcessId) {
                <$t>::restore_link(self, a, b)
            }
            fn isolate(&mut self, n: ProcessId) -> Vec<(ProcessId, ProcessId)> {
                <$t>::isolate(self, n)
            }
            fn rejoin(&mut self, n: ProcessId) {
                <$t>::rejoin(self, n)
            }
            fn partition(&mut self, groups: &[Vec<ProcessId>]) -> Vec<(ProcessId, ProcessId)> {
                <$t>::partition(self, groups)
            }
            fn heal_all(&mut self) {
                <$t>::heal_all(self)
            }
            fn degrade_link(&mut self, a: ProcessId, b: ProcessId, factor: f64) {
                <$t>::degrade_link(self, a, b, factor)
            }
            fn restore_link_quality(&mut self, a: ProcessId, b: ProcessId) {
                <$t>::restore_link_quality(self, a, b)
            }
            fn degradation(&self, a: ProcessId, b: ProcessId) -> f64 {
                <$t>::degradation(self, a, b)
            }
            fn link_usable(&self, a: ProcessId, b: ProcessId) -> bool {
                <$t>::link_usable(self, a, b)
            }
            fn reattach(&mut self, dev: ProcessId, parent: ProcessId, link: Link) {
                <$t>::reattach(self, dev, parent, link)
            }
            fn set_per_hop_overhead(&mut self, d: SimDuration) {
                <$t>::set_per_hop_overhead(self, d)
            }
            fn path(&mut self, from: ProcessId, to: ProcessId) -> Option<Vec<ProcessId>> {
                <$t>::path(self, from, to)
            }
            fn reachable(&mut self, from: ProcessId, to: ProcessId) -> bool {
                <$t>::reachable(self, from, to)
            }
            fn route(&mut self, from: ProcessId, to: ProcessId, rng: &mut SimRng) -> Delivery {
                Medium::<u32>::route(self, SimTime::ZERO, from, to, &0, rng)
            }
        }
    };
}

impl_resolver!(Network);
impl_resolver!(RefNetwork);

/// One step of a driven sequence.
#[derive(Debug, Clone)]
enum Op {
    Path(ProcessId, ProcessId),
    Reachable(ProcessId, ProcessId),
    Route(ProcessId, ProcessId),
    Cut(ProcessId, ProcessId),
    Restore(ProcessId, ProcessId),
    Isolate(ProcessId),
    Rejoin(ProcessId),
    Partition(Vec<Vec<ProcessId>>),
    HealAll,
    Remove(ProcessId, ProcessId),
    Reattach(ProcessId, ProcessId, Link),
    AddLink(ProcessId, ProcessId, Link),
    Degrade(ProcessId, ProcessId, f64),
    RestoreQuality(ProcessId, ProcessId),
    Overhead(u64),
}

/// What one step returned, for comparison.
#[derive(Debug, Clone, PartialEq)]
enum Outcome {
    Unit,
    Path(Option<Vec<ProcessId>>),
    Bool(bool),
    Delivery(Delivery),
    Cut(Vec<(ProcessId, ProcessId)>),
}

/// Applies `op`, then reads the touched link's state back so mutations
/// are compared too.
fn apply<R: Resolver>(net: &mut R, rng: &mut SimRng, op: &Op) -> (Outcome, Option<(bool, f64)>) {
    let link_state = |net: &R, a, b| Some((net.link_usable(a, b), net.degradation(a, b)));
    match *op {
        Op::Path(a, b) => (Outcome::Path(net.path(a, b)), None),
        Op::Reachable(a, b) => (Outcome::Bool(net.reachable(a, b)), None),
        Op::Route(a, b) => (Outcome::Delivery(net.route(a, b, rng)), None),
        Op::Cut(a, b) => {
            net.cut_link(a, b);
            (Outcome::Unit, link_state(net, a, b))
        }
        Op::Restore(a, b) => {
            net.restore_link(a, b);
            (Outcome::Unit, link_state(net, a, b))
        }
        Op::Isolate(n) => (Outcome::Cut(net.isolate(n)), None),
        Op::Rejoin(n) => {
            net.rejoin(n);
            (Outcome::Unit, None)
        }
        Op::Partition(ref groups) => (Outcome::Cut(net.partition(groups)), None),
        Op::HealAll => {
            net.heal_all();
            (Outcome::Unit, None)
        }
        Op::Remove(a, b) => {
            net.remove_link(a, b);
            (Outcome::Unit, link_state(net, a, b))
        }
        Op::Reattach(d, p, link) => {
            net.reattach(d, p, link);
            (Outcome::Unit, link_state(net, d, p))
        }
        Op::AddLink(a, b, link) => {
            net.add_link(a, b, link);
            (Outcome::Unit, link_state(net, a, b))
        }
        Op::Degrade(a, b, f) => {
            net.degrade_link(a, b, f);
            (Outcome::Unit, link_state(net, a, b))
        }
        Op::RestoreQuality(a, b) => {
            net.restore_link_quality(a, b);
            (Outcome::Unit, link_state(net, a, b))
        }
        Op::Overhead(ms) => {
            net.set_per_hop_overhead(SimDuration::from_millis(ms));
            (Outcome::Unit, None)
        }
    }
}

/// The two resolvers plus one RNG each, driven in lockstep.
struct Twin {
    new: Network,
    old: RefNetwork,
    rng_new: SimRng,
    rng_old: SimRng,
    nodes: Vec<ProcessId>,
    /// Every link ever added (some since removed), for picking targets.
    links: Vec<(ProcessId, ProcessId)>,
    /// Path answers that differ from what a fresh search from the other
    /// endpoint would give: proof that tied, history-dependent pairs ran.
    history_dependent: usize,
    steps: usize,
}

impl Twin {
    fn new(seed: u64) -> Self {
        Twin {
            new: Network::new(),
            old: RefNetwork::new(),
            rng_new: SimRng::seed_from(seed),
            rng_old: SimRng::seed_from(seed),
            nodes: Vec::new(),
            links: Vec::new(),
            history_dependent: 0,
            steps: 0,
        }
    }

    fn add_node(&mut self, kind: NodeKind) -> ProcessId {
        let id = self.new.add_node(kind, "n");
        assert_eq!(id, self.old.add_node(kind, "n"));
        self.nodes.push(id);
        id
    }

    fn step(&mut self, op: &Op) {
        self.steps += 1;
        let (got, got_link) = apply(&mut self.new, &mut self.rng_new, op);
        let (want, want_link) = apply(&mut self.old, &mut self.rng_old, op);
        let at = self.steps;
        assert_eq!(got, want, "step {at}: {op:?}");
        assert_eq!(got_link, want_link, "link state after step {at}: {op:?}");
        if let Op::Route(..) = op {
            assert_eq!(
                self.rng_new.clone().next_u64(),
                self.rng_old.clone().next_u64(),
                "RNG state after step {at}: {op:?}"
            );
        }
        if let (Op::Path(a, b), Outcome::Path(Some(p))) = (op, &got) {
            let fresh = self.old.dijkstra(b.0, a.0).map(|mut q| {
                q.reverse();
                q
            });
            let p: Vec<usize> = p.iter().map(|id| id.0).collect();
            if fresh.as_ref() != Some(&p) {
                self.history_dependent += 1;
            }
        }
        match *op {
            Op::AddLink(a, b, _) | Op::Reattach(a, b, _) => self.links.push((a, b)),
            _ => {}
        }
    }

    fn add_link(&mut self, a: ProcessId, b: ProcessId, link: Link) {
        self.step(&Op::AddLink(a, b, link));
    }
}

/// A link from a small latency set so that equal-cost paths are common,
/// with loss on some links so routes draw from the RNG.
fn tie_link(rng: &mut SimRng) -> Link {
    let ms = rng.range_u64(1, 4);
    let latency = if rng.chance(0.5) {
        LatencyModel::fixed_ms(ms)
    } else {
        // Same mean, different sampled latency.
        LatencyModel::uniform_ms(ms - 1, ms + 1)
    };
    let loss = *rng.pick(&[0.0, 0.0, 0.05, 0.3]).unwrap_or(&0.0);
    Link { latency, loss }
}

/// A link drawn from the scenario presets.
fn preset_link(rng: &mut SimRng) -> Link {
    match rng.range_u64(0, 5) {
        0 => presets::device_edge(),
        1 => presets::edge_cloud(),
        2 => presets::edge_edge(),
        3 => presets::lan(),
        _ => Link {
            latency: LatencyModel::uniform_ms(4, 12),
            loss: 0.005,
        },
    }
}

/// The topology `Scenario::build` makes: the cloud–edge–device hierarchy
/// of `Hierarchy::build`, in its link order, plus each device's backup
/// link to the next edge.
fn hierarchy(twin: &mut Twin, edges: usize, per_edge: usize) {
    let cloud = twin.add_node(NodeKind::Cloud);
    let es: Vec<ProcessId> = (0..edges).map(|_| twin.add_node(NodeKind::Edge)).collect();
    let mut devices = Vec::new();
    for &e in &es {
        let devs: Vec<ProcessId> = (0..per_edge)
            .map(|_| twin.add_node(NodeKind::Device))
            .collect();
        devices.push(devs);
        twin.add_link(e, cloud, presets::edge_cloud());
    }
    for (e, devs) in es.iter().zip(&devices) {
        for &d in devs {
            twin.add_link(d, *e, presets::device_edge());
        }
    }
    for i in 0..es.len() {
        for j in (i + 1)..es.len() {
            twin.add_link(es[i], es[j], presets::edge_edge());
        }
    }
    let backup = Link {
        latency: LatencyModel::uniform_ms(4, 12),
        loss: 0.005,
    };
    for (i, devs) in devices.iter().enumerate() {
        for &d in devs {
            twin.add_link(d, es[(i + 1) % es.len()], backup);
        }
    }
}

/// A connected random graph: a random spanning tree plus extra links.
fn random_graph(twin: &mut Twin, rng: &mut SimRng, n: usize, ties: bool) {
    let kinds = [NodeKind::Cloud, NodeKind::Edge, NodeKind::Device];
    for _ in 0..n {
        let kind = *rng.pick(&kinds).unwrap_or(&NodeKind::Device);
        twin.add_node(kind);
    }
    let link = |rng: &mut SimRng| {
        if ties {
            tie_link(rng)
        } else {
            preset_link(rng)
        }
    };
    for i in 1..n {
        let j = rng.range_u64(0, i as u64) as usize;
        let l = link(rng);
        twin.add_link(ProcessId(i), ProcessId(j), l);
    }
    for _ in 0..n {
        let (a, b) = (rng.range_u64(0, n as u64), rng.range_u64(0, n as u64));
        if a != b {
            let l = link(rng);
            twin.add_link(ProcessId(a as usize), ProcessId(b as usize), l);
        }
    }
}

fn pick_node(rng: &mut SimRng, twin: &Twin) -> ProcessId {
    *rng.pick(&twin.nodes).unwrap_or(&ProcessId(0))
}

/// A query pair: often a recent pair again, in either direction, so
/// cached and reverse-primed answers are exercised.
fn pick_pair(
    rng: &mut SimRng,
    twin: &Twin,
    recent: &mut Vec<(ProcessId, ProcessId)>,
) -> (ProcessId, ProcessId) {
    let pair = match recent.last().copied() {
        Some(_) if rng.chance(0.5) => {
            let (a, b) = *rng.pick(recent).unwrap_or(&(ProcessId(0), ProcessId(1)));
            if rng.chance(0.5) {
                (b, a)
            } else {
                (a, b)
            }
        }
        _ => (pick_node(rng, twin), pick_node(rng, twin)),
    };
    recent.push(pair);
    if recent.len() > 8 {
        recent.remove(0);
    }
    pair
}

fn pick_link(rng: &mut SimRng, twin: &Twin) -> (ProcessId, ProcessId) {
    let (a, b) = *rng
        .pick(&twin.links)
        .unwrap_or(&(ProcessId(0), ProcessId(1)));
    if rng.chance(0.5) {
        (b, a)
    } else {
        (a, b)
    }
}

/// Drives `steps` random operations through the twin.
fn drive(twin: &mut Twin, rng: &mut SimRng, steps: usize, ties: bool) {
    let mut recent = Vec::new();
    for _ in 0..steps {
        let roll = rng.range_u64(0, 100);
        let op = match roll {
            0..=24 => {
                let (a, b) = pick_pair(rng, twin, &mut recent);
                Op::Path(a, b)
            }
            25..=34 => {
                let (a, b) = pick_pair(rng, twin, &mut recent);
                Op::Reachable(a, b)
            }
            35..=69 => {
                let (a, b) = pick_pair(rng, twin, &mut recent);
                // Now and then an endpoint outside the topology.
                if rng.chance(0.02) {
                    Op::Route(ProcessId(usize::MAX), b)
                } else {
                    Op::Route(a, b)
                }
            }
            70..=73 => {
                let (a, b) = pick_link(rng, twin);
                Op::Cut(a, b)
            }
            74..=77 => {
                let (a, b) = pick_link(rng, twin);
                Op::Restore(a, b)
            }
            78..=79 => Op::Isolate(pick_node(rng, twin)),
            80..=81 => Op::Rejoin(pick_node(rng, twin)),
            82..=83 => {
                let mut groups = vec![Vec::new(); rng.range_u64(2, 4) as usize];
                for &n in &twin.nodes {
                    if rng.chance(0.7) {
                        let g = rng.range_u64(0, groups.len() as u64) as usize;
                        groups[g].push(n);
                    }
                }
                Op::Partition(groups)
            }
            84 => Op::HealAll,
            85..=86 => {
                let (a, b) = pick_link(rng, twin);
                Op::Remove(a, b)
            }
            87 => {
                let (d, p) = (pick_node(rng, twin), pick_node(rng, twin));
                if d == p {
                    continue;
                }
                let link = if ties {
                    tie_link(rng)
                } else {
                    preset_link(rng)
                };
                Op::Reattach(d, p, link)
            }
            88..=90 => {
                // Half the time an existing link, which is a replacement.
                let (a, b) = if rng.chance(0.5) {
                    pick_link(rng, twin)
                } else {
                    (pick_node(rng, twin), pick_node(rng, twin))
                };
                if a == b {
                    continue;
                }
                let link = if ties {
                    tie_link(rng)
                } else {
                    preset_link(rng)
                };
                Op::AddLink(a, b, link)
            }
            91..=94 => {
                let (a, b) = pick_link(rng, twin);
                // Factors below 1 clamp to 1.
                Op::Degrade(a, b, *rng.pick(&[0.5, 1.0, 2.5, 10.0]).unwrap_or(&2.0))
            }
            95..=97 => {
                let (a, b) = pick_link(rng, twin);
                Op::RestoreQuality(a, b)
            }
            _ => Op::Overhead(rng.range_u64(0, 3)),
        };
        twin.step(&op);
    }
}

#[test]
fn scenario_hierarchy_matches_reference() {
    let mut dependent = 0;
    for seed in 0..12 {
        let mut twin = Twin::new(seed);
        let mut rng = SimRng::seed_from(1_000 + seed);
        let edges = rng.range_u64(2, 5) as usize;
        let per_edge = rng.range_u64(2, 7) as usize;
        hierarchy(&mut twin, edges, per_edge);
        drive(&mut twin, &mut rng, 600, false);
        dependent += twin.history_dependent;
    }
    // Mobility and link replacement put equal-cost paths in the hierarchy.
    assert!(dependent > 0, "no history-dependent answer was exercised");
}

#[test]
fn tie_heavy_random_graphs_match_reference() {
    let mut dependent = 0;
    for seed in 0..40 {
        let mut twin = Twin::new(seed);
        let mut rng = SimRng::seed_from(2_000 + seed);
        let n = rng.range_u64(4, 20) as usize;
        random_graph(&mut twin, &mut rng, n, true);
        drive(&mut twin, &mut rng, 500, true);
        dependent += twin.history_dependent;
    }
    assert!(dependent > 0, "no history-dependent answer was exercised");
}

#[test]
fn preset_random_graphs_match_reference() {
    for seed in 0..20 {
        let mut twin = Twin::new(seed);
        let mut rng = SimRng::seed_from(3_000 + seed);
        let n = rng.range_u64(4, 30) as usize;
        random_graph(&mut twin, &mut rng, n, false);
        drive(&mut twin, &mut rng, 500, false);
    }
}

/// An equal-cost diamond `a–b–d` / `a–c–d` whose two sides settle in a
/// different order from each end: the search from `a` reaches `d` via `b`,
/// the search from `d` reaches `a` via `c`. Whichever endpoint asks first
/// fixes the pair's path in both directions until the topology changes.
#[test]
fn equal_cost_diamond_keeps_the_first_askers_choice() {
    let diamond = || {
        let mut net = Network::new();
        let ids: Vec<ProcessId> = (0..4).map(|_| net.add_node(NodeKind::Edge, "n")).collect();
        let (a, b, c, d) = (ids[0], ids[1], ids[2], ids[3]);
        let ms = |m| Link::lossless(LatencyModel::fixed_ms(m));
        net.add_link(a, b, ms(1));
        net.add_link(b, d, ms(2));
        net.add_link(a, c, ms(2));
        net.add_link(c, d, ms(1));
        (net, a, b, c, d)
    };

    let (mut net, a, b, _, d) = diamond();
    assert_eq!(net.path(a, d), Some(vec![a, b, d]));
    assert_eq!(net.path(d, a), Some(vec![d, b, a]));

    let (mut net, a, _, c, d) = diamond();
    assert_eq!(net.path(d, a), Some(vec![d, c, a]));
    assert_eq!(net.path(a, d), Some(vec![a, c, d]));

    // A topology change forgets the choice; the next asker decides again.
    net.cut_link(a, c);
    net.restore_link(a, c);
    assert_eq!(net.path(a, d).unwrap()[1], ProcessId(1));
}
