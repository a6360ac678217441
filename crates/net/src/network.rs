//! The network medium: topology, routing, loss and partitions.
//!
//! [`Network`] implements [`riot_sim::Medium`]. It models the landscape of
//! Figure 1 in the paper: device, edge and cloud nodes joined by links with
//! heterogeneous latency and loss. Messages follow the minimum-expected-
//! latency path; a message is dropped when any link on its path is cut
//! (partition) or probabilistically fails (loss).
//!
//! **Identity convention.** A network node is identified by the
//! [`ProcessId`] of the simulated process that inhabits it; build the
//! topology and spawn processes in the same order so the indices line up
//! (the `riot-core` scenario builder enforces this).
//!
//! **Routing.** Paths come from shortest-path trees, one full Dijkstra per
//! root, cached until the next topology change. A tree marks every node
//! that a second equal-cost shortest path reaches (*tied*). A unique
//! shortest path is the same whichever endpoint searches, so the tree
//! rooted at the smaller endpoint answers it. A tied pair is answered by
//! the tree rooted at the asking endpoint, which is exactly the path an
//! early-exit search from that endpoint finds (a settled node's parent
//! never changes), and is then pinned, with its reverse, in a pair cache
//! until the next topology change. DESIGN.md §14 has the full argument.
//!
//! riot-lint: allow-file(P1, reason = "dense ProcessId-indexed adjacency/dist/tree vectors and the link table are indexed under the identity convention above; every id is minted by add_node in this module and every link index by add_link")

use crate::latency::LatencyModel;
use riot_sim::{Delivery, Medium, ProcessId, SimDuration, SimRng, SimTime};
use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// The role a node plays in the IoT landscape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A constrained end device: sensor, actuator, wearable.
    Device,
    /// An edge component: gateway, cloudlet, micro-cloud.
    Edge,
    /// A remote cloud facility.
    Cloud,
}

/// Static facts about a topology node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeInfo {
    /// The node's role.
    pub kind: NodeKind,
    /// Human-readable label used in reports.
    pub label: String,
}

/// Parameters of one bidirectional link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Per-message latency distribution.
    pub latency: LatencyModel,
    /// Independent per-message loss probability in `[0, 1]`.
    pub loss: f64,
}

impl Link {
    /// A lossless link with the given latency model.
    pub fn lossless(latency: LatencyModel) -> Self {
        Link { latency, loss: 0.0 }
    }

    /// The routing weight: mean latency in µs, at least 1 (so every hop
    /// costs something and Dijkstra settles nodes in path order).
    fn weight(&self) -> u64 {
        self.latency.mean().as_micros().max(1)
    }
}

fn key(a: ProcessId, b: ProcessId) -> (usize, usize) {
    if a.0 <= b.0 {
        (a.0, b.0)
    } else {
        (b.0, a.0)
    }
}

/// One direction of a link in a node's adjacency list, carrying everything
/// a Dijkstra relaxation reads so that it does no lookup.
#[derive(Debug, Clone, Copy)]
struct Neighbor {
    node: u32,
    /// Index of the link in [`Network::links`].
    link: u32,
    /// [`Link::weight`] of the link, or [`CUT`] while it is cut (set in
    /// both directions' entries).
    weight: u64,
}

/// The weight of a cut link: no path uses it.
const CUT: u64 = u64::MAX;

/// One row of the flat link table.
#[derive(Debug, Clone, Copy)]
struct LinkSlot {
    /// The endpoints in key order (`a < b`).
    a: u32,
    b: u32,
    link: Link,
    /// Latency multiplier of a degraded link; `None` when healthy.
    factor: Option<f64>,
}

impl LinkSlot {
    /// The endpoints in key order.
    fn ends(&self) -> (usize, usize) {
        (self.a as usize, self.b as usize)
    }
}

/// One node of a shortest-path tree.
#[derive(Debug, Clone, Copy)]
struct TreeNode {
    /// The next node towards the root; [`UNREACHED`] when no path exists.
    parent: u32,
    /// A second equal-cost shortest path from the root reaches this node.
    tied: bool,
}

const UNREACHED: u32 = u32::MAX;

/// One hop of a fully resolved route, flattened for the per-message hot
/// path: the link's loss and latency model plus its degradation factor
/// (`None` when the link is not degraded, mirroring the conditional
/// `mul_f64` exactly — applying a 1.0 factor is not a bit-exact identity
/// through `f64` seconds).
#[derive(Debug, Clone, Copy)]
struct CachedHop {
    loss: f64,
    latency: LatencyModel,
    factor: Option<f64>,
}

/// One sender's resolved routes, sorted by destination node index; `None`
/// hops record a partition.
type RouteTable = Vec<(u32, Option<Box<[CachedHop]>>)>;

/// A simulated IoT network: nodes, links, routing, partitions and churn.
///
/// # Examples
///
/// ```
/// use riot_net::{LatencyModel, Link, Network, NodeKind};
/// use riot_sim::{Delivery, Medium, ProcessId, SimRng, SimTime};
///
/// let mut net = Network::new();
/// let cloud = net.add_node(NodeKind::Cloud, "cloud");
/// let edge = net.add_node(NodeKind::Edge, "edge-0");
/// net.add_link(cloud, edge, Link::lossless(LatencyModel::fixed_ms(50)));
///
/// let mut rng = SimRng::seed_from(0);
/// let d = Medium::<u32>::route(&mut net, SimTime::ZERO, cloud, edge, &0, &mut rng);
/// assert!(matches!(d, Delivery::After(_)));
///
/// net.cut_link(cloud, edge);
/// let d = Medium::<u32>::route(&mut net, SimTime::ZERO, cloud, edge, &0, &mut rng);
/// assert_eq!(d, Delivery::Drop("partition"));
/// ```
#[derive(Debug)]
pub struct Network {
    nodes: Vec<NodeInfo>,
    /// `adjacency[n]` lists `n`'s links in insertion order, which fixes
    /// Dijkstra's tie-breaking.
    adjacency: Vec<Vec<Neighbor>>,
    /// Every link once, in no particular order (removal swaps the last
    /// row into the hole).
    links: Vec<LinkSlot>,
    /// Degradation factors of removed links, keyed by endpoints: a link
    /// re-added between the same nodes inherits its factor.
    detached_factors: BTreeMap<(usize, usize), f64>,
    per_hop_overhead: SimDuration,
    external_latency: SimDuration,
    /// Shortest-path trees by root, built on demand.
    trees: BTreeMap<usize, Box<[TreeNode]>>,
    /// Paths of tied pairs, in the direction first asked plus its reverse.
    path_cache: BTreeMap<(usize, usize), Vec<usize>>,
    /// Flattened per-hop route data: `routes[from]` is sorted by
    /// destination, so the per-message lookup is one index plus a binary
    /// search over that sender's (few) known destinations. `None` records a
    /// partition. Rebuilt lazily from `path_indices` + `links`; cleared by
    /// [`Network::invalidate`] and by degradation changes (which leave the
    /// trees and `path_cache` alone — degradation is invisible to routing).
    routes: Vec<RouteTable>,
    /// Dijkstra work buffers, reused across tree builds.
    dist: Vec<u64>,
    heap: BinaryHeap<Reverse<(u64, usize)>>,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Network {
            nodes: Vec::new(),
            adjacency: Vec::new(),
            links: Vec::new(),
            detached_factors: BTreeMap::new(),
            per_hop_overhead: SimDuration::ZERO,
            external_latency: SimDuration::ZERO,
            trees: BTreeMap::new(),
            path_cache: BTreeMap::new(),
            routes: Vec::new(),
            dist: Vec::new(),
            heap: BinaryHeap::new(),
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
        if let Some(nb) = self.find(a.0, b.0) {
            // Replacement keeps the link's cut state, degradation and
            // adjacency position.
            let i = nb.link as usize;
            let weight = if nb.weight == CUT { CUT } else { link.weight() };
            let slot = &mut self.links[i];
            slot.link = link;
            let (x, y) = slot.ends();
            self.neighbor_mut(x, i).weight = weight;
            self.neighbor_mut(y, i).weight = weight;
        } else {
            let (x, y) = key(a, b);
            let (index, weight) = (self.links.len() as u32, link.weight());
            self.links.push(LinkSlot {
                a: x as u32,
                b: y as u32,
                link,
                factor: self.detached_factors.remove(&(x, y)),
            });
            for (from, to) in [(a.0, b.0), (b.0, a.0)] {
                self.adjacency[from].push(Neighbor {
                    node: to as u32,
                    link: index,
                    weight,
                });
            }
        }
        self.invalidate();
    }

    /// Removes a link entirely (distinct from cutting, which is reversible
    /// via [`Network::heal_all`]).
    pub fn remove_link(&mut self, a: ProcessId, b: ProcessId) {
        if let Some(i) = self.link_index(a, b) {
            self.adjacency[a.0].retain(|n| n.node as usize != b.0);
            self.adjacency[b.0].retain(|n| n.node as usize != a.0);
            let slot = self.links.swap_remove(i);
            if let Some(f) = slot.factor {
                self.detached_factors.insert(slot.ends(), f);
            }
            if let Some((x, y)) = self.links.get(i).map(LinkSlot::ends) {
                let last = self.links.len();
                self.neighbor_mut(x, last).link = i as u32;
                self.neighbor_mut(y, last).link = i as u32;
            }
        }
        self.invalidate();
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Static facts about a node, if it exists.
    pub fn node(&self, id: ProcessId) -> Option<&NodeInfo> {
        self.nodes.get(id.0)
    }

    /// Iterates over `(id, info)` for all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = (ProcessId, &NodeInfo)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (ProcessId(i), n))
    }

    /// All node ids of a given kind.
    pub fn nodes_of_kind(&self, kind: NodeKind) -> Vec<ProcessId> {
        self.nodes()
            .filter(|(_, n)| n.kind == kind)
            .map(|(id, _)| id)
            .collect()
    }

    /// Cuts one link (both directions). Cut links drop every message until
    /// healed.
    pub fn cut_link(&mut self, a: ProcessId, b: ProcessId) {
        if let Some(i) = self.link_index(a, b) {
            self.set_cut(i, true);
            self.invalidate();
        }
    }

    /// Restores one previously cut link.
    pub fn restore_link(&mut self, a: ProcessId, b: ProcessId) {
        if let Some(i) = self.link_index(a, b) {
            if self.set_cut(i, false) {
                self.invalidate();
            }
        }
    }

    /// Cuts every link adjacent to `n`, isolating it. Returns the links
    /// that were newly cut, so a healer can restore exactly them.
    pub fn isolate(&mut self, n: ProcessId) -> Vec<(ProcessId, ProcessId)> {
        let mut newly_cut = Vec::new();
        for j in 0..self.adjacency[n.0].len() {
            let nb = self.adjacency[n.0][j];
            if self.set_cut(nb.link as usize, true) {
                newly_cut.push((n, ProcessId(nb.node as usize)));
            }
        }
        self.invalidate();
        newly_cut
    }

    /// Restores every link adjacent to `n`.
    pub fn rejoin(&mut self, n: ProcessId) {
        for j in 0..self.adjacency[n.0].len() {
            let link = self.adjacency[n.0][j].link;
            self.set_cut(link as usize, false);
        }
        self.invalidate();
    }

    /// Partitions the network into the given groups: every link whose
    /// endpoints fall in different groups is cut. Nodes not mentioned keep
    /// all their links. Returns the links that were newly cut, in
    /// endpoint order, so a healer can restore exactly them.
    pub fn partition(&mut self, groups: &[Vec<ProcessId>]) -> Vec<(ProcessId, ProcessId)> {
        let mut group_of: BTreeMap<usize, usize> = BTreeMap::new();
        for (gi, members) in groups.iter().enumerate() {
            for m in members {
                group_of.insert(m.0, gi);
            }
        }
        let mut newly_cut = Vec::new();
        for i in 0..self.links.len() {
            let (a, b) = self.links[i].ends();
            if let (Some(ga), Some(gb)) = (group_of.get(&a), group_of.get(&b)) {
                if ga != gb && self.set_cut(i, true) {
                    newly_cut.push((ProcessId(a), ProcessId(b)));
                }
            }
        }
        newly_cut.sort_unstable();
        self.invalidate();
        newly_cut
    }

    /// Heals every cut link.
    pub fn heal_all(&mut self) {
        let links = &self.links;
        for nb in self.adjacency.iter_mut().flatten() {
            if nb.weight == CUT {
                nb.weight = links[nb.link as usize].link.weight();
            }
        }
        self.invalidate();
    }

    /// Degrades a link: every message over it takes `factor` times its
    /// sampled latency (congestion or radio interference, §II's adverse
    /// environments). Factors below 1 are clamped to 1. Routing weights
    /// are unchanged — congestion is invisible to the (static) routing
    /// tables, as in real IP networks.
    pub fn degrade_link(&mut self, a: ProcessId, b: ProcessId, factor: f64) {
        if let Some(i) = self.link_index(a, b) {
            self.links[i].factor = Some(factor.max(1.0));
            // Routing is unaffected, but cached hop factors are now stale.
            self.clear_routes();
        }
    }

    /// Removes any degradation from a link.
    pub fn restore_link_quality(&mut self, a: ProcessId, b: ProcessId) {
        let restored = match self.link_index(a, b) {
            Some(i) => self.links[i].factor.take().is_some(),
            None => self.detached_factors.remove(&key(a, b)).is_some(),
        };
        if restored {
            self.clear_routes();
        }
    }

    /// The current degradation factor of a link (1.0 when healthy).
    pub fn degradation(&self, a: ProcessId, b: ProcessId) -> f64 {
        match self.link_index(a, b) {
            Some(i) => self.links[i].factor,
            None => self.detached_factors.get(&key(a, b)).copied(),
        }
        .unwrap_or(1.0)
    }

    /// `true` if a usable (existing and not cut) link joins `a` and `b`.
    pub fn link_usable(&self, a: ProcessId, b: ProcessId) -> bool {
        self.find(a.0, b.0).is_some_and(|nb| nb.weight != CUT)
    }

    /// Moves a device to a new parent: all current links of `dev` are
    /// removed and a single new link to `parent` is added — the mobility
    /// primitive (a phone roaming between gateways, a vehicle between road-
    /// side units).
    pub fn reattach(&mut self, dev: ProcessId, parent: ProcessId, link: Link) {
        while let Some(nb) = self.adjacency[dev.0].first() {
            let m = ProcessId(nb.node as usize);
            self.remove_link(dev, m);
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

    /// The adjacency entry of the link joining `a` and `b`, found by a
    /// scan of the shorter of the two adjacency lists.
    fn find(&self, a: usize, b: usize) -> Option<Neighbor> {
        let (na, nb) = (self.adjacency.get(a)?, self.adjacency.get(b)?);
        let (list, other) = if na.len() <= nb.len() {
            (na, b)
        } else {
            (nb, a)
        };
        list.iter().find(|n| n.node as usize == other).copied()
    }

    /// The link table index of the link joining `a` and `b`.
    fn link_index(&self, a: ProcessId, b: ProcessId) -> Option<usize> {
        self.find(a.0, b.0).map(|nb| nb.link as usize)
    }

    /// `node`'s adjacency entry for link `link`.
    fn neighbor_mut(&mut self, node: usize, link: usize) -> &mut Neighbor {
        self.adjacency[node]
            .iter_mut()
            .find(|n| n.link as usize == link)
            .expect("a link sits in both endpoints' adjacency lists")
    }

    /// Sets link `i`'s cut state in both adjacency entries. Returns
    /// `true` if the state changed.
    fn set_cut(&mut self, i: usize, cut: bool) -> bool {
        let slot = self.links[i];
        let (a, b) = slot.ends();
        let weight = if cut { CUT } else { slot.link.weight() };
        let nb = self.neighbor_mut(a, i);
        if (nb.weight == CUT) == cut {
            return false;
        }
        nb.weight = weight;
        self.neighbor_mut(b, i).weight = weight;
        true
    }

    fn invalidate(&mut self) {
        self.trees.clear();
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
    /// caching the result in `from`'s route list, and returns its position
    /// there. `None` hops record a partition.
    fn resolve_hops(&mut self, from: usize, to: usize) -> usize {
        if self.routes.len() < self.nodes.len() {
            self.routes.resize_with(self.nodes.len(), Vec::new);
        }
        let hops = self.path_indices(from, to).map(|path| {
            path.windows(2)
                .map(|pair| {
                    let nb = self.find(pair[0], pair[1]).expect("a path hop is a link");
                    let slot = self.links[nb.link as usize];
                    CachedHop {
                        loss: slot.link.loss,
                        latency: slot.link.latency,
                        factor: slot.factor,
                    }
                })
                // riot-lint: allow(A1, reason = "cold: one flattened route per (from, to) per topology or degradation change; warm sends hit the cached copy")
                .collect()
        });
        let list = &mut self.routes[from];
        let pos = list.partition_point(|e| e.0 < to as u32);
        list.insert(pos, (to as u32, hops));
        pos
    }

    fn path_indices(&mut self, from: usize, to: usize) -> Option<Vec<usize>> {
        if from >= self.nodes.len() || to >= self.nodes.len() {
            return None;
        }
        if let Some(pinned) = self.path_cache.get(&(from, to)) {
            // riot-lint: allow(A1, reason = "cold: a tied pair's pinned path, copied once per route-cache miss")
            return Some(pinned.clone());
        }
        let (root, other) = (from.min(to), from.max(to));
        let tree = self.tree(root);
        if !tree[other].tied {
            // Unique shortest path: every search finds this one.
            let mut path = tree_path(tree, other)?;
            if root == from {
                path.reverse();
            }
            return Some(path);
        }
        // Tied (so reachable): the answer of a search from `from`, pinned
        // with its reverse so the pair keeps the first asker's choice.
        let rev = tree_path(self.tree(from), to)?;
        // riot-lint: allow(A1, reason = "cold: tied pairs are pinned once per topology change")
        let mut path = rev.clone();
        path.reverse();
        self.path_cache.insert((to, from), rev);
        // riot-lint: allow(A1, reason = "cold: tied pairs are pinned once per topology change")
        self.path_cache.insert((from, to), path.clone());
        Some(path)
    }

    /// The shortest-path tree rooted at `root`, built on first use after a
    /// topology change.
    fn tree(&mut self, root: usize) -> &[TreeNode] {
        if !self.trees.contains_key(&root) {
            let tree = self.build_tree(root);
            self.trees.insert(root, tree);
        }
        &self.trees[&root]
    }

    /// One full Dijkstra from `root`. The heap orders by `(distance,
    /// node)` and relaxation is strict, so ties go to the node settled
    /// first; an equal-cost relaxation only marks the target tied, and a
    /// node inherits its parent's mark.
    fn build_tree(&mut self, root: usize) -> Box<[TreeNode]> {
        let n = self.nodes.len();
        let unreached = TreeNode {
            parent: UNREACHED,
            tied: false,
        };
        // riot-lint: allow(A1, reason = "cold: one tree per root per topology change")
        let mut tree = vec![unreached; n].into_boxed_slice();
        let dist = &mut self.dist;
        dist.clear();
        dist.resize(n, u64::MAX);
        let heap = &mut self.heap;
        heap.clear();
        dist[root] = 0;
        tree[root].parent = root as u32;
        heap.push(Reverse((0, root)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u] {
                continue;
            }
            let tied = tree[u].tied;
            for nb in &self.adjacency[u] {
                if nb.weight == CUT {
                    continue;
                }
                let v = nb.node as usize;
                let nd = d.saturating_add(nb.weight);
                if nd < dist[v] {
                    dist[v] = nd;
                    tree[v] = TreeNode {
                        parent: u as u32,
                        tied,
                    };
                    heap.push(Reverse((nd, v)));
                } else if nd == dist[v] {
                    tree[v].tied = true;
                }
            }
        }
        tree
    }
}

/// The tree path from `node` up to the tree's root, both included; `None`
/// when the root does not reach `node`.
fn tree_path(tree: &[TreeNode], node: usize) -> Option<Vec<usize>> {
    if tree[node].parent == UNREACHED {
        return None;
    }
    // riot-lint: allow(A1, reason = "cold: one path per route-cache miss")
    let mut path = vec![node];
    let mut cur = node;
    while tree[cur].parent as usize != cur {
        cur = tree[cur].parent as usize;
        path.push(cur);
    }
    Some(path)
}

impl Default for Network {
    fn default() -> Self {
        Network::new()
    }
}

impl<M> Medium<M> for Network {
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
        // Warm lookup: one index plus a binary search.
        let cached = self
            .routes
            .get(from.0)
            .map(|list| list.binary_search_by_key(&(to.0 as u32), |e| e.0));
        let pos = match cached {
            Some(Ok(pos)) => pos,
            _ => self.resolve_hops(from.0, to.0),
        };
        let Some(hops) = self.routes[from.0][pos].1.as_deref() else {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn line3() -> (Network, ProcessId, ProcessId, ProcessId) {
        let mut net = Network::new();
        let a = net.add_node(NodeKind::Device, "a");
        let b = net.add_node(NodeKind::Edge, "b");
        let c = net.add_node(NodeKind::Cloud, "c");
        net.add_link(a, b, Link::lossless(LatencyModel::fixed_ms(1)));
        net.add_link(b, c, Link::lossless(LatencyModel::fixed_ms(10)));
        (net, a, b, c)
    }

    #[test]
    fn routes_along_multi_hop_path() {
        let (mut net, a, b, c) = line3();
        assert_eq!(net.path(a, c).unwrap(), vec![a, b, c]);
        let mut rng = SimRng::seed_from(0);
        match Medium::<u32>::route(&mut net, SimTime::ZERO, a, c, &0, &mut rng) {
            Delivery::After(d) => assert_eq!(d, SimDuration::from_millis(11)),
            other => panic!("expected delivery, got {other:?}"),
        }
    }

    #[test]
    fn picks_cheapest_path() {
        let mut net = Network::new();
        let a = net.add_node(NodeKind::Device, "a");
        let b = net.add_node(NodeKind::Edge, "b");
        let c = net.add_node(NodeKind::Cloud, "c");
        net.add_link(a, c, Link::lossless(LatencyModel::fixed_ms(100)));
        net.add_link(a, b, Link::lossless(LatencyModel::fixed_ms(5)));
        net.add_link(b, c, Link::lossless(LatencyModel::fixed_ms(5)));
        assert_eq!(
            net.path(a, c).unwrap(),
            vec![a, b, c],
            "10ms via edge beats 100ms direct"
        );
        net.cut_link(a, b);
        assert_eq!(
            net.path(a, c).unwrap(),
            vec![a, c],
            "falls back to direct after cut"
        );
    }

    #[test]
    fn partition_drops_and_heal_restores() {
        let (mut net, a, b, c) = line3();
        net.partition(&[vec![a, b], vec![c]]);
        let mut rng = SimRng::seed_from(0);
        assert_eq!(
            Medium::<u32>::route(&mut net, SimTime::ZERO, a, c, &0, &mut rng),
            Delivery::Drop("partition")
        );
        assert!(net.reachable(a, b));
        assert!(!net.reachable(a, c));
        net.heal_all();
        assert!(net.reachable(a, c));
    }

    #[test]
    fn isolate_and_rejoin() {
        let (mut net, a, b, c) = line3();
        net.isolate(b);
        assert!(!net.reachable(a, b));
        assert!(!net.reachable(a, c));
        net.rejoin(b);
        assert!(net.reachable(a, c));
    }

    #[test]
    fn loss_is_per_link_and_calibrated() {
        let mut net = Network::new();
        let a = net.add_node(NodeKind::Device, "a");
        let b = net.add_node(NodeKind::Edge, "b");
        net.add_link(
            a,
            b,
            Link {
                latency: LatencyModel::fixed_ms(1),
                loss: 0.2,
            },
        );
        let mut rng = SimRng::seed_from(7);
        let drops = (0..10_000)
            .filter(|_| {
                matches!(
                    Medium::<u32>::route(&mut net, SimTime::ZERO, a, b, &0, &mut rng),
                    Delivery::Drop("loss")
                )
            })
            .count();
        assert!((1_700..2_300).contains(&drops), "drops {drops}");
    }

    #[test]
    fn reattach_moves_device() {
        let mut net = Network::new();
        let e1 = net.add_node(NodeKind::Edge, "e1");
        let e2 = net.add_node(NodeKind::Edge, "e2");
        let d = net.add_node(NodeKind::Device, "d");
        net.add_link(e1, e2, Link::lossless(LatencyModel::fixed_ms(5)));
        net.add_link(d, e1, Link::lossless(LatencyModel::fixed_ms(1)));
        assert_eq!(net.path(d, e2).unwrap(), vec![d, e1, e2]);
        net.reattach(d, e2, Link::lossless(LatencyModel::fixed_ms(1)));
        assert_eq!(net.path(d, e2).unwrap(), vec![d, e2]);
        assert_eq!(net.path(d, e1).unwrap(), vec![d, e2, e1]);
    }

    #[test]
    fn external_endpoints_use_external_latency() {
        let (mut net, a, _, _) = line3();
        let mut rng = SimRng::seed_from(0);
        let ext = ProcessId(usize::MAX);
        assert_eq!(
            Medium::<u32>::route(&mut net, SimTime::ZERO, ext, a, &0, &mut rng),
            Delivery::After(SimDuration::ZERO)
        );
    }

    #[test]
    fn self_route_is_instant() {
        let (mut net, a, _, _) = line3();
        let mut rng = SimRng::seed_from(0);
        assert_eq!(
            Medium::<u32>::route(&mut net, SimTime::ZERO, a, a, &0, &mut rng),
            Delivery::After(SimDuration::ZERO)
        );
    }

    #[test]
    fn per_hop_overhead_adds_up() {
        let (mut net, a, _, c) = line3();
        net.set_per_hop_overhead(SimDuration::from_millis(2));
        let mut rng = SimRng::seed_from(0);
        match Medium::<u32>::route(&mut net, SimTime::ZERO, a, c, &0, &mut rng) {
            Delivery::After(d) => assert_eq!(d, SimDuration::from_millis(15)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nodes_of_kind_filters() {
        let (net, a, b, c) = line3();
        assert_eq!(net.nodes_of_kind(NodeKind::Device), vec![a]);
        assert_eq!(net.nodes_of_kind(NodeKind::Edge), vec![b]);
        assert_eq!(net.nodes_of_kind(NodeKind::Cloud), vec![c]);
        assert_eq!(net.node_count(), 3);
        assert_eq!(net.node(a).unwrap().label, "a");
    }

    #[test]
    fn remove_link_is_permanent_across_heal() {
        let (mut net, a, b, c) = line3();
        net.remove_link(b, c);
        net.heal_all();
        assert!(!net.reachable(a, c));
        assert!(net.reachable(a, b));
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_link_panics() {
        let mut net = Network::new();
        let a = net.add_node(NodeKind::Device, "a");
        net.add_link(a, a, Link::lossless(LatencyModel::fixed_ms(1)));
    }

    #[test]
    fn degradation_multiplies_latency_without_rerouting() {
        let (mut net, a, b, c) = line3();
        let mut rng = SimRng::seed_from(0);
        net.degrade_link(a, b, 10.0);
        assert_eq!(net.degradation(a, b), 10.0);
        match Medium::<u32>::route(&mut net, SimTime::ZERO, a, c, &0, &mut rng) {
            Delivery::After(d) => assert_eq!(d, SimDuration::from_millis(20), "1ms*10 + 10ms"),
            other => panic!("unexpected {other:?}"),
        }
        // Path unchanged: degradation is invisible to routing.
        assert_eq!(net.path(a, c).unwrap(), vec![a, b, c]);
        net.restore_link_quality(a, b);
        assert_eq!(net.degradation(a, b), 1.0);
        match Medium::<u32>::route(&mut net, SimTime::ZERO, a, c, &0, &mut rng) {
            Delivery::After(d) => assert_eq!(d, SimDuration::from_millis(11)),
            other => panic!("unexpected {other:?}"),
        }
        // Sub-unity factors clamp to 1 (degradation never speeds links up).
        net.degrade_link(a, b, 0.1);
        assert_eq!(net.degradation(a, b), 1.0);
        // Unknown links are ignored.
        net.degrade_link(a, c, 5.0);
        assert_eq!(net.degradation(a, c), 1.0);
    }

    #[test]
    fn link_usable_reflects_cuts() {
        let (mut net, a, b, _) = line3();
        assert!(net.link_usable(a, b));
        net.cut_link(a, b);
        assert!(!net.link_usable(a, b));
        net.restore_link(a, b);
        assert!(net.link_usable(a, b));
    }
}
