//! 2D mesh on-chip network model.
//!
//! The paper's 16-core chip uses a 4x4 2D mesh with 3 cycles per hop
//! (Table II). Requests to a shared NUCA LLC bank, to a directory home
//! node, or to a remote vault traverse the mesh with dimension-ordered
//! (XY) routing. The latency model is hop-count based — the paper itself
//! quotes average round-trip figures (23 cycles for a baseline LLC hit,
//! 41 for shared vaults) that we reproduce from first principles — and a
//! per-link traffic accounting layer exposes utilization statistics for
//! the interconnect-pressure discussion of Sec. V-D.
//!
//! XY routes are fixed, so [`Mesh::new`] computes all of them once: a
//! per-pair hop table (`u8`) and every pair's route as a run of `u8`
//! link ids in one flat list (compressed sparse rows). A
//! [`Mesh::send`] then bumps the route's links and adds its hops,
//! with no coordinate arithmetic and no per-hop branching. Meshes are
//! capped at [`MAX_NODES`] nodes, which bounds a route to 63 hops and
//! the link ids to 256.

#![forbid(unsafe_code)]

use silo_types::{Cycles, LineAddr};

/// Largest mesh [`Mesh::new`] accepts: the simulator's core limit
/// (sharer masks are `u64`).
pub const MAX_NODES: usize = 64;

/// Directed links of the largest mesh, four per node.
const MAX_LINKS: usize = MAX_NODES * 4;

/// A node coordinate in the mesh.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NodeId(pub usize);

impl NodeId {
    /// Returns the id as a usize.
    pub const fn as_usize(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// A `width x height` 2D mesh with XY routing.
#[derive(Clone, Debug)]
pub struct Mesh {
    width: usize,
    height: usize,
    hop_cycles: Cycles,
    /// Traffic counter per directed link. Links are indexed as
    /// `node * 4 + direction` (0=E, 1=W, 2=N, 3=S); sized for the
    /// largest mesh so a `u8` link id indexes it without a check.
    link_flits: [u64; MAX_LINKS],
    /// Hop count of the XY route from `a` to `b`, at `a * nodes + b`.
    hops: Vec<u8>,
    /// Where each pair's route starts in `route_links`, same indexing.
    route_start: Vec<u32>,
    /// Every pair's route, as the link ids it traverses in order.
    route_links: Vec<u8>,
    messages: u64,
    total_hops: u64,
}

/// Direction encoding for link indexing.
const EAST: usize = 0;
const WEST: usize = 1;
const NORTH: usize = 2;
const SOUTH: usize = 3;

impl Mesh {
    /// Creates a mesh of the given dimensions with a per-hop latency and
    /// precomputes its XY route table.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the mesh has more than
    /// [`MAX_NODES`] nodes.
    pub fn new(width: usize, height: usize, hop_cycles: Cycles) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be positive");
        let n = width * height;
        assert!(
            n <= MAX_NODES,
            "{width}x{height} mesh exceeds {MAX_NODES} nodes"
        );
        let mut hops = Vec::with_capacity(n * n);
        let mut route_start = Vec::with_capacity(n * n);
        let mut route_links = Vec::new();
        for a in 0..n {
            let (ax, ay) = (a % width, a / width);
            for b in 0..n {
                let (bx, by) = (b % width, b / width);
                let start = route_links.len();
                route_start.push(u32::try_from(start).expect("route list fits u32"));
                // X first.
                let mut x = ax;
                while x != bx {
                    let node = ay * width + x;
                    if bx > x {
                        route_links.push((node * 4 + EAST) as u8);
                        x += 1;
                    } else {
                        route_links.push((node * 4 + WEST) as u8);
                        x -= 1;
                    }
                }
                // Then Y.
                let mut y = ay;
                while y != by {
                    let node = y * width + bx;
                    if by > y {
                        route_links.push((node * 4 + SOUTH) as u8);
                        y += 1;
                    } else {
                        route_links.push((node * 4 + NORTH) as u8);
                        y -= 1;
                    }
                }
                hops.push((route_links.len() - start) as u8);
            }
        }
        Mesh {
            width,
            height,
            hop_cycles,
            link_flits: [0; MAX_LINKS],
            hops,
            route_start,
            route_links,
            messages: 0,
            total_hops: 0,
        }
    }

    /// The 4x4, 3-cycle-per-hop mesh of Table II.
    pub fn paper_16core() -> Self {
        Mesh::new(4, 4, Cycles(3))
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.width * self.height
    }

    /// Mesh width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Mesh height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Per-hop latency.
    pub fn hop_cycles(&self) -> Cycles {
        self.hop_cycles
    }

    /// (x, y) coordinate of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range.
    pub fn coords(&self, node: NodeId) -> (usize, usize) {
        assert!(node.0 < self.nodes(), "node {node} out of range");
        (node.0 % self.width, node.0 / self.width)
    }

    /// Route-table index of the ordered pair `(a, b)`.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    #[inline]
    fn pair(&self, a: NodeId, b: NodeId) -> usize {
        let n = self.nodes();
        assert!(a.0 < n && b.0 < n, "node {a} or {b} out of range");
        a.0 * n + b.0
    }

    /// Manhattan hop count between two nodes.
    pub fn hops(&self, a: NodeId, b: NodeId) -> u64 {
        u64::from(self.hops[self.pair(a, b)])
    }

    /// One-way latency between two nodes (zero when `a == b`).
    pub fn latency(&self, a: NodeId, b: NodeId) -> Cycles {
        self.hop_cycles * self.hops(a, b)
    }

    /// Round-trip latency between two nodes.
    pub fn round_trip(&self, a: NodeId, b: NodeId) -> Cycles {
        self.latency(a, b) * 2
    }

    /// Average one-way hop count from every node to every node (uniform
    /// traffic), the quantity behind the paper's "average round trip"
    /// figures.
    pub fn mean_hops(&self) -> f64 {
        let total: u64 = self.hops.iter().map(|&h| u64::from(h)).sum();
        total as f64 / self.hops.len() as f64
    }

    /// Home node for a line under address interleaving (scrambled so
    /// contiguous regions spread across nodes).
    pub fn home_of(&self, line: LineAddr) -> NodeId {
        NodeId(silo_types::interleave(line.scramble(), self.nodes()))
    }

    /// Sends a message from `a` to `b`, recording traffic on every XY
    /// link traversed, and returns the one-way latency.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    #[inline]
    pub fn send(&mut self, a: NodeId, b: NodeId) -> Cycles {
        let pair = self.pair(a, b);
        let hops = self.hops[pair];
        let start = self.route_start[pair] as usize;
        for &link in &self.route_links[start..start + usize::from(hops)] {
            self.link_flits[usize::from(link)] += 1;
        }
        self.messages += 1;
        self.total_hops += u64::from(hops);
        self.hop_cycles * u64::from(hops)
    }

    /// Messages sent through [`send`](Self::send).
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Total hops traversed by all messages.
    pub fn total_hops(&self) -> u64 {
        self.total_hops
    }

    /// Cumulative flit counters of every directed link, indexed as
    /// `node * 4 + direction` (0=E, 1=W, 2=N, 3=S). Exposed so the
    /// telemetry subsystem can difference consecutive snapshots into
    /// per-epoch link utilization.
    pub fn link_flits(&self) -> &[u64] {
        &self.link_flits[..self.nodes() * 4]
    }

    /// Flits carried by the busiest link.
    pub fn max_link_flits(&self) -> u64 {
        self.link_flits().iter().copied().max().unwrap_or(0)
    }

    /// Mean flits per link over links that carried any traffic.
    pub fn mean_link_flits(&self) -> f64 {
        let used: Vec<u64> = self
            .link_flits()
            .iter()
            .copied()
            .filter(|&f| f > 0)
            .collect();
        if used.is_empty() {
            0.0
        } else {
            used.iter().sum::<u64>() as f64 / used.len() as f64
        }
    }

    /// Clears traffic statistics.
    pub fn reset_stats(&mut self) {
        self.link_flits.iter_mut().for_each(|f| *f = 0);
        self.messages = 0;
        self.total_hops = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_and_hops() {
        let m = Mesh::paper_16core();
        assert_eq!(m.coords(NodeId(0)), (0, 0));
        assert_eq!(m.coords(NodeId(5)), (1, 1));
        assert_eq!(m.coords(NodeId(15)), (3, 3));
        assert_eq!(m.hops(NodeId(0), NodeId(15)), 6);
        assert_eq!(m.hops(NodeId(5), NodeId(5)), 0);
        assert_eq!(m.hops(NodeId(0), NodeId(3)), 3);
    }

    #[test]
    fn latency_is_hops_times_hop_cycles() {
        let m = Mesh::paper_16core();
        assert_eq!(m.latency(NodeId(0), NodeId(15)), Cycles(18));
        assert_eq!(m.round_trip(NodeId(0), NodeId(15)), Cycles(36));
        assert_eq!(m.latency(NodeId(7), NodeId(7)), Cycles::ZERO);
    }

    #[test]
    fn mean_hops_matches_4x4_analytic() {
        // For a 4x4 mesh under uniform traffic the mean one-way distance
        // is 2 * mean 1-D distance = 2 * 1.25 = 2.5.
        let m = Mesh::paper_16core();
        assert!((m.mean_hops() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn baseline_llc_round_trip_close_to_paper() {
        // Paper: 23-cycle average round trip for a shared LLC hit
        // including a 5-cycle bank access. Our mesh: 2.5 mean hops each
        // way at 3 cycles = 15, plus 5-cycle bank = 20; the paper's 23
        // includes router/injection overheads we fold into config, so the
        // mesh itself must land in [14, 16].
        let m = Mesh::paper_16core();
        let rt = 2.0 * m.mean_hops() * m.hop_cycles().as_u64() as f64;
        assert!((14.0..=16.0).contains(&rt), "round trip {rt}");
    }

    #[test]
    fn home_spreads_lines() {
        let m = Mesh::paper_16core();
        let mut seen = std::collections::HashSet::new();
        for i in 0..4096 {
            seen.insert(m.home_of(LineAddr::new(i)).0);
        }
        assert_eq!(seen.len(), 16, "all nodes should home some line");
    }

    #[test]
    fn send_records_traffic_on_xy_path() {
        let mut m = Mesh::paper_16core();
        let lat = m.send(NodeId(0), NodeId(15));
        assert_eq!(lat, Cycles(18));
        assert_eq!(m.messages(), 1);
        assert_eq!(m.total_hops(), 6);
        assert_eq!(m.max_link_flits(), 1);
        // Six links used.
        assert!((m.mean_link_flits() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn send_to_self_is_free() {
        let mut m = Mesh::paper_16core();
        assert_eq!(m.send(NodeId(3), NodeId(3)), Cycles::ZERO);
        assert_eq!(m.total_hops(), 0);
    }

    #[test]
    fn reset_clears_traffic() {
        let mut m = Mesh::paper_16core();
        m.send(NodeId(0), NodeId(15));
        m.reset_stats();
        assert_eq!(m.messages(), 0);
        assert_eq!(m.max_link_flits(), 0);
        assert_eq!(m.mean_link_flits(), 0.0);
    }

    #[test]
    fn rectangular_mesh_works() {
        let m = Mesh::new(2, 8, Cycles(1));
        assert_eq!(m.nodes(), 16);
        assert_eq!(m.coords(NodeId(9)), (1, 4));
        assert_eq!(m.hops(NodeId(0), NodeId(15)), 1 + 7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_node_panics() {
        Mesh::paper_16core().coords(NodeId(16));
    }

    /// Hop-by-hop XY walk from `a` to `b`: the link ids in order.
    fn reference_route(width: usize, a: usize, b: usize) -> Vec<usize> {
        let (ax, ay) = (a % width, a / width);
        let (bx, by) = (b % width, b / width);
        let mut links = Vec::new();
        let mut x = ax;
        while x != bx {
            let node = ay * width + x;
            if bx > x {
                links.push(node * 4 + EAST);
                x += 1;
            } else {
                links.push(node * 4 + WEST);
                x -= 1;
            }
        }
        let mut y = ay;
        while y != by {
            let node = y * width + bx;
            if by > y {
                links.push(node * 4 + SOUTH);
                y += 1;
            } else {
                links.push(node * 4 + NORTH);
                y -= 1;
            }
        }
        links
    }

    #[test]
    fn route_table_matches_a_hop_by_hop_xy_walk() {
        for (w, h) in [
            (1, 1),
            (1, 7),
            (2, 4),
            (3, 3),
            (4, 5),
            (8, 8),
            (1, 64),
            (64, 1),
        ] {
            let n = w * h;
            let mut m = Mesh::new(w, h, Cycles(3));
            let mut flits = vec![0u64; n * 4];
            let mut total_hops = 0u64;
            for a in 0..n {
                for b in 0..n {
                    let route = reference_route(w, a, b);
                    for &l in &route {
                        flits[l] += 1;
                    }
                    total_hops += route.len() as u64;
                    let (a, b) = (NodeId(a), NodeId(b));
                    let lat = Cycles(3 * route.len() as u64);
                    assert_eq!(m.send(a, b), lat, "{w}x{h} {a}->{b}");
                    assert_eq!(m.latency(a, b), lat);
                    assert_eq!(m.hops(a, b), route.len() as u64);
                    assert_eq!(m.round_trip(a, b), m.latency(a, b) * 2);
                    assert_eq!(m.link_flits(), &flits[..], "{w}x{h} {a}->{b}");
                    assert_eq!(m.total_hops(), total_hops);
                }
            }
            assert_eq!(m.messages(), (n * n) as u64);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds 64 nodes")]
    fn meshes_beyond_the_route_table_are_rejected() {
        Mesh::new(5, 13, Cycles(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn send_checks_bounds() {
        Mesh::new(2, 2, Cycles(1)).send(NodeId(0), NodeId(4));
    }

    #[test]
    fn westward_and_northward_routes_work() {
        let mut m = Mesh::paper_16core();
        // From 15 (3,3) to 0 (0,0): west then north.
        let lat = m.send(NodeId(15), NodeId(0));
        assert_eq!(lat, Cycles(18));
        assert_eq!(m.total_hops(), 6);
    }
}
