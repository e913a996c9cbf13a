//! Topology: nodes, simplex links, and static shortest-path routing.
//!
//! Routing is equal-cost multipath (ECMP): for every `(node, destination)`
//! pair the table stores *all* first links on shortest paths, flattened
//! into one contiguous array (`route_offsets` + `route_links`) in ascending
//! link-id order. Single-path topologies (the paper's validation setups)
//! have one entry per pair and behave exactly as before; Clos fabrics
//! ([`Topology::fat_tree`]) expose their full path diversity, and flows
//! spread across it by a deterministic hash — see [`Topology::next_hop_for`].

use desim::SimDuration;
use faults::SimError;
use std::collections::VecDeque;

/// Node identifier (host or switch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Simplex link identifier; a "cable" is two simplex links.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(pub usize);

/// What a node is. Hosts terminate flows; switches forward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// End host with a NIC.
    Host,
    /// Store-and-forward switch.
    Switch,
}

/// One simplex link.
#[derive(Debug, Clone)]
pub struct Link {
    /// Transmitting node (owns the egress queue).
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Line rate in bits per second.
    pub bandwidth_bps: f64,
    /// Propagation delay.
    pub prop_delay: SimDuration,
}

/// A static network: nodes, links, and precomputed next-hop routing.
#[derive(Debug, Clone)]
pub struct Topology {
    nodes: Vec<NodeKind>,
    links: Vec<Link>,
    /// Outgoing links per node.
    out_links: Vec<Vec<LinkId>>,
    /// Incoming links per node, ascending by link id.
    in_links: Vec<Vec<LinkId>>,
    /// ECMP route table, flattened: the equal-cost next hops from node `at`
    /// toward `dst` are `route_links[route_offsets[dst·n + at] ..
    /// route_offsets[dst·n + at + 1]]`, sorted by link id. One flat array
    /// instead of n² `Vec`s keeps the table cache-dense and cheap to build.
    route_offsets: Vec<u32>,
    route_links: Vec<LinkId>,
}

impl Topology {
    /// Build from nodes and links; computes all-pairs next-hop routes by
    /// BFS (all links weight 1). Panics if the topology fails a sanity
    /// check — a misconfigured experiment should fail loudly at build time.
    /// [`Topology::try_new`] is the non-panicking equivalent.
    pub fn new(nodes: Vec<NodeKind>, links: Vec<Link>) -> Self {
        Self::try_new(nodes, links).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build from nodes and links, returning a descriptive [`SimError`] if
    /// any link has an out-of-range endpoint, a non-positive or non-finite
    /// capacity, or any host pair is disconnected.
    pub fn try_new(nodes: Vec<NodeKind>, links: Vec<Link>) -> Result<Self, SimError> {
        let bad = |detail: String| Err(SimError::topology("Topology::new", detail));
        let n = nodes.len();
        let mut out_links = vec![Vec::new(); n];
        for (i, l) in links.iter().enumerate() {
            if l.src.0 >= n || l.dst.0 >= n {
                return bad(format!(
                    "link {i} endpoint out of range ({} -> {}, {n} nodes)",
                    l.src.0, l.dst.0
                ));
            }
            if !(l.bandwidth_bps.is_finite() && l.bandwidth_bps > 0.0) {
                return bad(format!(
                    "link {i} bandwidth must be positive and finite, got {} (zero-capacity \
                     links cannot serialize packets)",
                    l.bandwidth_bps
                ));
            }
            out_links[l.src.0].push(LinkId(i));
        }
        // Reverse adjacency (links indexed by their receiving node) so each
        // per-destination BFS is O(V + E) instead of rescanning every link
        // per dequeued node — the difference between milliseconds and
        // minutes on a k=16 fat-tree (1 344 nodes, 6 144 simplex links).
        let mut in_links = vec![Vec::new(); n];
        for (li, l) in links.iter().enumerate() {
            in_links[l.dst.0].push(LinkId(li));
        }
        let mut route_offsets = Vec::with_capacity(n * n + 1);
        route_offsets.push(0u32);
        let mut route_links = Vec::new();
        // Scratch buffers reused across destinations (capacity persists).
        let mut dist = vec![u32::MAX; n];
        let mut hops: Vec<Vec<LinkId>> = vec![Vec::new(); n];
        for dst in 0..n {
            dist.iter_mut().for_each(|d| *d = u32::MAX);
            dist[dst] = 0;
            let mut queue = VecDeque::from([dst]);
            while let Some(v) = queue.pop_front() {
                for &li in &in_links[v] {
                    let u = links[li.0].src.0;
                    if dist[u] == u32::MAX {
                        dist[u] = dist[v] + 1;
                        queue.push_back(u);
                    }
                }
            }
            // Every link that steps one hop closer to `dst` is an equal-cost
            // next hop; scanning links in id order keeps each set sorted.
            for (li, l) in links.iter().enumerate() {
                if dist[l.dst.0] != u32::MAX && dist[l.src.0] == dist[l.dst.0] + 1 {
                    hops[l.src.0].push(LinkId(li));
                }
            }
            for (src, h) in hops.iter_mut().enumerate() {
                if src != dst
                    && matches!(nodes[src], NodeKind::Host)
                    && matches!(nodes[dst], NodeKind::Host)
                    && h.is_empty()
                {
                    return bad(format!("no route from host {src} to host {dst}"));
                }
                route_links.extend_from_slice(h);
                route_offsets.push(route_links.len() as u32);
                h.clear();
            }
        }
        Ok(Topology {
            nodes,
            links,
            out_links,
            in_links,
            route_offsets,
            route_links,
        })
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of simplex links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Node kind.
    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.nodes[n.0]
    }

    /// Link descriptor.
    pub fn link(&self, l: LinkId) -> &Link {
        &self.links[l.0]
    }

    /// All equal-cost next hops from `at` toward `dst`, sorted by link id.
    pub fn ecmp_next_hops(&self, at: NodeId, dst: NodeId) -> &[LinkId] {
        let idx = dst.0 * self.nodes.len() + at.0;
        let lo = self.route_offsets[idx] as usize;
        let hi = self.route_offsets[idx + 1] as usize;
        &self.route_links[lo..hi]
    }

    /// The next link from `at` toward `dst` (lowest-id equal-cost hop).
    pub fn next_hop(&self, at: NodeId, dst: NodeId) -> Option<LinkId> {
        self.ecmp_next_hops(at, dst).first().copied()
    }

    /// The next link from `at` toward `dst` for a flow whose ECMP hash is
    /// `flow_hash`: deterministic hash-mod selection over the equal-cost
    /// set, with the hop node mixed in so one flow's choices at successive
    /// fan-out stages decorrelate (as switch-local hash functions do). On
    /// single-path topologies this is exactly [`Topology::next_hop`].
    pub fn next_hop_for(&self, at: NodeId, dst: NodeId, flow_hash: u64) -> Option<LinkId> {
        let hops = self.ecmp_next_hops(at, dst);
        match hops.len() {
            0 => None,
            // In-bounds: this arm matches exactly when `hops.len() == 1`.
            1 => Some(hops[0]),
            n => {
                // murmur3-style finalizer over (flow hash, hop node).
                let mut x = flow_hash ^ (at.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                x ^= x >> 33;
                x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
                x ^= x >> 33;
                x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
                x ^= x >> 33;
                Some(hops[(x % n as u64) as usize])
            }
        }
    }

    /// Outgoing links of a node.
    pub fn out_links(&self, n: NodeId) -> &[LinkId] {
        &self.out_links[n.0]
    }

    /// Incoming links of a node, ascending by link id.
    pub fn in_links(&self, n: NodeId) -> &[LinkId] {
        &self.in_links[n.0]
    }

    /// All host node ids.
    pub fn hosts(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .filter(|&i| matches!(self.nodes[i], NodeKind::Host))
            .map(NodeId)
            .collect()
    }

    /// The validation topology of §3.1/§4.1: `n` sender hosts and one
    /// receiver host around a single switch. Every link has the given rate
    /// and delay. Returns `(topology, senders, receiver)`.
    ///
    /// Node layout: 0..n = senders, n = receiver, n+1 = switch.
    pub fn single_switch(
        n_senders: usize,
        bandwidth_bps: f64,
        prop_delay: SimDuration,
    ) -> (Topology, Vec<NodeId>, NodeId) {
        let mut nodes = vec![NodeKind::Host; n_senders + 1];
        nodes.push(NodeKind::Switch);
        let switch = NodeId(n_senders + 1);
        let receiver = NodeId(n_senders);
        let mut links = Vec::new();
        for h in 0..=n_senders {
            let host = NodeId(h);
            links.push(Link {
                src: host,
                dst: switch,
                bandwidth_bps,
                prop_delay,
            });
            links.push(Link {
                src: switch,
                dst: host,
                bandwidth_bps,
                prop_delay,
            });
        }
        let topo = Topology::new(nodes, links);
        let senders = (0..n_senders).map(NodeId).collect();
        (topo, senders, receiver)
    }

    /// The Figure 13 dumbbell: `n` senders on SW1, `n` receivers on SW2,
    /// one bottleneck link SW1→SW2. All links share the given rate/delay.
    /// Returns `(topology, senders, receivers, bottleneck_link)` where the
    /// bottleneck id refers to the SW1→SW2 direction.
    ///
    /// Node layout: 0..n = senders, n..2n = receivers, 2n = SW1, 2n+1 = SW2.
    pub fn dumbbell(
        n_pairs: usize,
        bandwidth_bps: f64,
        prop_delay: SimDuration,
    ) -> (Topology, Vec<NodeId>, Vec<NodeId>, LinkId) {
        let mut nodes = vec![NodeKind::Host; 2 * n_pairs];
        nodes.push(NodeKind::Switch); // SW1
        nodes.push(NodeKind::Switch); // SW2
        let sw1 = NodeId(2 * n_pairs);
        let sw2 = NodeId(2 * n_pairs + 1);
        let mut links = Vec::new();
        let duplex = |a: NodeId, b: NodeId, links: &mut Vec<Link>| {
            links.push(Link {
                src: a,
                dst: b,
                bandwidth_bps,
                prop_delay,
            });
            links.push(Link {
                src: b,
                dst: a,
                bandwidth_bps,
                prop_delay,
            });
        };
        for s in 0..n_pairs {
            duplex(NodeId(s), sw1, &mut links);
        }
        for r in 0..n_pairs {
            duplex(NodeId(n_pairs + r), sw2, &mut links);
        }
        let bottleneck = LinkId(links.len());
        duplex(sw1, sw2, &mut links);
        let topo = Topology::new(nodes, links);
        let senders = (0..n_pairs).map(NodeId).collect();
        let receivers = (n_pairs..2 * n_pairs).map(NodeId).collect();
        (topo, senders, receivers, bottleneck)
    }
}

impl Topology {
    /// A "parking lot" multi-bottleneck chain (the paper's future-work
    /// scenario): `n_hops` switches in a line; one host pair spans the
    /// whole chain (the "long" flow path) and one host pair hangs off each
    /// switch for per-hop cross traffic.
    ///
    /// Returns `(topology, long_src, long_dst, cross_pairs)` where
    /// `cross_pairs[i]` are the (src, dst) hosts whose traffic crosses only
    /// hop `i → i+1`.
    ///
    /// Node layout: 0 = long source, 1 = long destination, then cross hosts
    /// in pairs, then switches.
    pub fn parking_lot(
        n_hops: usize,
        bandwidth_bps: f64,
        prop_delay: SimDuration,
    ) -> (Topology, NodeId, NodeId, Vec<(NodeId, NodeId)>) {
        assert!(n_hops >= 1, "need at least one bottleneck hop");
        let n_switches = n_hops + 1;
        let n_cross = n_hops; // one cross pair per hop
        let mut nodes = vec![NodeKind::Host; 2 + 2 * n_cross];
        for _ in 0..n_switches {
            nodes.push(NodeKind::Switch);
        }
        let switch = |i: usize| NodeId(2 + 2 * n_cross + i);
        let long_src = NodeId(0);
        let long_dst = NodeId(1);
        let mut links = Vec::new();
        let duplex = |a: NodeId, b: NodeId, links: &mut Vec<Link>| {
            links.push(Link {
                src: a,
                dst: b,
                bandwidth_bps,
                prop_delay,
            });
            links.push(Link {
                src: b,
                dst: a,
                bandwidth_bps,
                prop_delay,
            });
        };
        duplex(long_src, switch(0), &mut links);
        duplex(long_dst, switch(n_switches - 1), &mut links);
        for h in 0..n_hops {
            duplex(switch(h), switch(h + 1), &mut links);
        }
        let mut cross_pairs = Vec::new();
        for h in 0..n_hops {
            let src = NodeId(2 + 2 * h);
            let dst = NodeId(3 + 2 * h);
            // Cross source enters at switch h, exits at switch h+1.
            duplex(src, switch(h), &mut links);
            duplex(dst, switch(h + 1), &mut links);
            cross_pairs.push((src, dst));
        }
        let topo = Topology::new(nodes, links);
        (topo, long_src, long_dst, cross_pairs)
    }

    /// A k-ary fat-tree (three-stage Clos, Al-Fares layout): `k` pods of
    /// `k/2` edge and `k/2` aggregation switches, `(k/2)²` core switches,
    /// and `k³/4` hosts — k=8 gives the 128-host fabric the datacenter
    /// incast experiments run on, k=16 scales to 1 024 hosts. Every link
    /// has the given rate and delay (no oversubscription), so any host pair
    /// in distinct pods has `(k/2)²` equal-cost paths for ECMP to spread
    /// flows over.
    ///
    /// Returns `(topology, hosts)`; hosts are numbered pod-major, so hosts
    /// `[p·k²/4, (p+1)·k²/4)` share pod `p`.
    ///
    /// Node layout: hosts first, then edge switches (pod-major), then
    /// aggregation switches (pod-major), then core switches.
    ///
    /// Panics unless `k` is even and within 4..=16 (k=16 already builds a
    /// 1 344-node, 6 144-link fabric; larger fabrics want a sparser route
    /// representation first).
    pub fn fat_tree(
        k: usize,
        bandwidth_bps: f64,
        prop_delay: SimDuration,
    ) -> (Topology, Vec<NodeId>) {
        assert!(
            (4..=16).contains(&k) && k.is_multiple_of(2),
            "fat_tree: k must be even and in 4..=16, got {k}"
        );
        let half = k / 2;
        let n_hosts = k * k * k / 4;
        let n_edge = k * half;
        let n_agg = k * half;
        let n_core = half * half;
        let mut nodes = vec![NodeKind::Host; n_hosts];
        for _ in 0..(n_edge + n_agg + n_core) {
            nodes.push(NodeKind::Switch);
        }
        let edge = |pod: usize, i: usize| NodeId(n_hosts + pod * half + i);
        let agg = |pod: usize, i: usize| NodeId(n_hosts + n_edge + pod * half + i);
        let core = |j: usize| NodeId(n_hosts + n_edge + n_agg + j);
        let mut links = Vec::new();
        let mut duplex = |a: NodeId, b: NodeId| {
            links.push(Link {
                src: a,
                dst: b,
                bandwidth_bps,
                prop_delay,
            });
            links.push(Link {
                src: b,
                dst: a,
                bandwidth_bps,
                prop_delay,
            });
        };
        // Hosts → edge: host h sits under edge switch (h / (k/2)) of pod
        // (h / (k²/4)).
        for h in 0..n_hosts {
            let pod = h / (k * k / 4);
            let e = (h % (k * k / 4)) / half;
            duplex(NodeId(h), edge(pod, e));
        }
        // Edge ↔ aggregation: full bipartite mesh within each pod.
        for pod in 0..k {
            for e in 0..half {
                for a in 0..half {
                    duplex(edge(pod, e), agg(pod, a));
                }
            }
        }
        // Aggregation ↔ core: aggregation switch a of every pod connects to
        // core group a (cores a·k/2 .. (a+1)·k/2).
        for pod in 0..k {
            for a in 0..half {
                for c in 0..half {
                    duplex(agg(pod, a), core(a * half + c));
                }
            }
        }
        let topo = Topology::new(nodes, links);
        let hosts = (0..n_hosts).map(NodeId).collect();
        (topo, hosts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    #[test]
    fn single_switch_routes() {
        let (topo, senders, receiver) = Topology::single_switch(3, 10e9, us(1));
        assert_eq!(topo.node_count(), 5);
        for &s in &senders {
            let l1 = topo.next_hop(s, receiver).unwrap();
            assert_eq!(topo.link(l1).dst, NodeId(4), "first hop is the switch");
            let l2 = topo.next_hop(NodeId(4), receiver).unwrap();
            assert_eq!(topo.link(l2).dst, receiver);
        }
        // Reverse path exists too (for ACK/CNP).
        assert!(topo.next_hop(receiver, senders[0]).is_some());
    }

    #[test]
    fn dumbbell_routes_cross_bottleneck() {
        let (topo, senders, receivers, bottleneck) = Topology::dumbbell(4, 10e9, us(1));
        assert_eq!(topo.node_count(), 10);
        let sw1 = NodeId(8);
        for (&s, &r) in senders.iter().zip(&receivers) {
            // sender -> SW1 -> SW2 -> receiver
            let l1 = topo.next_hop(s, r).unwrap();
            assert_eq!(topo.link(l1).dst, sw1);
            let l2 = topo.next_hop(sw1, r).unwrap();
            assert_eq!(l2, bottleneck, "all pairs cross the bottleneck");
        }
    }

    #[test]
    fn cross_pairs_also_routed() {
        let (topo, senders, receivers, _) = Topology::dumbbell(3, 10e9, us(1));
        // Any sender to any receiver must be routable (random pairing in
        // the FCT workload).
        for &s in &senders {
            for &r in &receivers {
                assert!(topo.next_hop(s, r).is_some());
            }
        }
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn disconnected_hosts_panic() {
        let nodes = vec![NodeKind::Host, NodeKind::Host];
        Topology::new(nodes, vec![]);
    }

    #[test]
    fn try_new_rejects_disconnected_hosts() {
        let nodes = vec![NodeKind::Host, NodeKind::Host];
        let e = Topology::try_new(nodes, vec![]).expect_err("disconnected");
        assert!(e.to_string().contains("no route from host"), "{e}");
    }

    #[test]
    fn try_new_rejects_zero_capacity_link() {
        let nodes = vec![NodeKind::Host, NodeKind::Host];
        let mk = |bw: f64| {
            vec![
                Link {
                    src: NodeId(0),
                    dst: NodeId(1),
                    bandwidth_bps: bw,
                    prop_delay: us(1),
                },
                Link {
                    src: NodeId(1),
                    dst: NodeId(0),
                    bandwidth_bps: 10e9,
                    prop_delay: us(1),
                },
            ]
        };
        for bad_bw in [0.0, -10e9, f64::NAN, f64::INFINITY] {
            let e = Topology::try_new(nodes.clone(), mk(bad_bw)).expect_err("bad bandwidth");
            let msg = e.to_string();
            assert!(msg.contains("link 0 bandwidth"), "{msg}");
            assert!(matches!(e, SimError::InvalidTopology { .. }), "{e:?}");
        }
        assert!(Topology::try_new(nodes, mk(10e9)).is_ok());
    }

    #[test]
    fn try_new_rejects_out_of_range_endpoint() {
        let nodes = vec![NodeKind::Host, NodeKind::Host];
        let links = vec![Link {
            src: NodeId(0),
            dst: NodeId(9),
            bandwidth_bps: 10e9,
            prop_delay: us(1),
        }];
        let e = Topology::try_new(nodes, links).expect_err("bad endpoint");
        assert!(e.to_string().contains("endpoint out of range"), "{e}");
    }

    #[test]
    fn out_links_indexed() {
        let (topo, _, _) = Topology::single_switch(2, 10e9, us(1));
        let switch = NodeId(3);
        // Switch has one egress link per attached host.
        assert_eq!(topo.out_links(switch).len(), 3);
        for &l in topo.out_links(switch) {
            assert_eq!(topo.link(l).src, switch);
        }
    }

    #[test]
    fn parking_lot_routes_span_hops() {
        let (topo, long_src, long_dst, cross) = Topology::parking_lot(3, 10e9, us(1));
        // Long path: src -> sw0 -> sw1 -> sw2 -> sw3 -> dst = 5 hops.
        let mut at = long_src;
        let mut hops = 0;
        while at != long_dst {
            let l = topo.next_hop(at, long_dst).expect("long route");
            at = topo.link(l).dst;
            hops += 1;
            assert!(hops < 10, "routing loop");
        }
        assert_eq!(hops, 5);
        // Every cross pair is two hops apart (src -> sw_h -> sw_h+1 -> dst).
        for &(s, d) in &cross {
            let mut at = s;
            let mut hops = 0;
            while at != d {
                let l = topo.next_hop(at, d).expect("cross route");
                at = topo.link(l).dst;
                hops += 1;
            }
            assert_eq!(hops, 3);
        }
    }

    #[test]
    fn hosts_listed() {
        let (topo, _, _) = Topology::single_switch(2, 10e9, us(1));
        assert_eq!(topo.hosts().len(), 3);
    }

    #[test]
    fn fat_tree_k4_shape() {
        let (topo, hosts) = Topology::fat_tree(4, 10e9, us(1));
        assert_eq!(hosts.len(), 16); // k³/4
        assert_eq!(topo.node_count(), 16 + 8 + 8 + 4);
        // 16 host cables + 4 pods × 4 edge-agg cables + 8 aggs × 2 core
        // cables, two simplex links each.
        assert_eq!(topo.link_count(), 2 * (16 + 16 + 16));
        // Every switch has exactly k ports.
        for n in 0..topo.node_count() {
            let node = NodeId(n);
            if matches!(topo.kind(node), NodeKind::Switch) {
                assert_eq!(topo.out_links(node).len(), 4, "switch {n} port count");
            }
        }
    }

    #[test]
    fn fat_tree_cross_pod_path_diversity() {
        let (topo, hosts) = Topology::fat_tree(4, 10e9, us(1));
        // Hosts 0 and 15 sit in pods 0 and 3: the edge switch fans out to
        // k/2 aggs, each agg to k/2 cores → (k/2)² = 4 distinct paths, and
        // ECMP must expose the full fan-out at each stage.
        let src = hosts[0];
        let dst = hosts[15];
        let uplink = topo.next_hop(src, dst).expect("routed");
        let edge_sw = topo.link(uplink).dst;
        assert_eq!(topo.ecmp_next_hops(edge_sw, dst).len(), 2);
        let agg_sw = topo.link(topo.ecmp_next_hops(edge_sw, dst)[0]).dst;
        assert_eq!(topo.ecmp_next_hops(agg_sw, dst).len(), 2);
        // Same-pod pairs never leave the pod: path length 4 (host-edge-agg-
        // edge-host) or 2 under the same edge.
        let same_edge = topo.next_hop(hosts[0], hosts[1]).expect("routed");
        assert_eq!(topo.link(same_edge).dst, edge_sw);
    }

    #[test]
    fn fat_tree_hash_routing_is_deterministic_and_valid() {
        let (topo, hosts) = Topology::fat_tree(4, 10e9, us(1));
        let src = hosts[2];
        let dst = hosts[13];
        for flow_hash in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            // Walk the hash-selected path hop by hop; it must reach dst in
            // exactly 6 hops (host-edge-agg-core-agg-edge-host) and repeat
            // identically on a second walk.
            let walk = || {
                let mut at = src;
                let mut path = Vec::new();
                while at != dst {
                    let l = topo.next_hop_for(at, dst, flow_hash).expect("routed");
                    path.push(l);
                    at = topo.link(l).dst;
                    assert!(path.len() <= 6, "routing loop for hash {flow_hash}");
                }
                path
            };
            let path = walk();
            assert_eq!(path.len(), 6);
            assert_eq!(path, walk(), "hash routing must be deterministic");
        }
        // Distinct hashes do spread over distinct paths.
        let distinct: std::collections::BTreeSet<Vec<usize>> = (0..32u64)
            .map(|h| {
                let mut at = src;
                let mut path = Vec::new();
                while at != dst {
                    let l = topo.next_hop_for(at, dst, h).expect("routed");
                    path.push(l.0);
                    at = topo.link(l).dst;
                }
                path
            })
            .collect();
        assert!(distinct.len() >= 3, "32 hashes must hit ≥3 of the 4 paths");
    }

    #[test]
    fn single_path_topologies_ignore_the_hash() {
        let (topo, senders, receiver) = Topology::single_switch(3, 10e9, us(1));
        for &s in &senders {
            let base = topo.next_hop(s, receiver);
            for h in [0u64, 7, u64::MAX] {
                assert_eq!(topo.next_hop_for(s, receiver, h), base);
            }
        }
    }

    #[test]
    #[should_panic(expected = "k must be even")]
    fn fat_tree_rejects_odd_k() {
        Topology::fat_tree(5, 10e9, us(1));
    }
}
