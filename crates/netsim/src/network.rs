//! The full-machine torus: every node, every directed link.
//!
//! Messages follow dimension-ordered routes; each hop acquires the
//! corresponding directed link FIFO for the message's serialization time.
//! Multi-hop transfers are **cut-through** (as on the real BGP torus): the
//! head of the message advances one `hop_latency` per router while the body
//! still streams through the earlier links, so an uncontended transfer
//! costs one serialization plus `hops × hop_latency` — not `hops`
//! serializations. Each traversed link is still occupied for the full
//! serialization time, so contention (e.g. mesh wrap-around traffic
//! crossing a whole axis) is charged on every link it crosses.

use crate::link::{Delivery, LinkState};
use gpaw_bgp_hw::spec::CostModel;
use gpaw_bgp_hw::topology::{Coord, LinkDir, Shape};
use gpaw_des::stats::Counter;
use gpaw_des::SimTime;

/// All nodes and links of a partition.
#[derive(Debug)]
pub struct FullNetwork {
    shape: Shape,
    /// `links[node][linkdir]`.
    links: Vec<[LinkState; 6]>,
    /// Network payload bytes injected per node (the Fig. 6 right axis).
    injected: Vec<Counter>,
}

impl FullNetwork {
    /// Build the idle network for a node shape.
    pub fn new(shape: Shape) -> FullNetwork {
        let n = shape.len();
        FullNetwork {
            shape,
            links: (0..n).map(|_| Default::default()).collect(),
            injected: vec![Counter::new(); n],
        }
    }

    /// The node shape the network spans.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Send `payload` bytes from `src` to `dst`, entering the network at
    /// `inject_at`.
    ///
    /// # Panics
    /// Panics if `src == dst` — node-local traffic is a memory copy and
    /// never enters the torus; the caller (`gpaw-simmpi`) routes it to the
    /// node's memory bus instead.
    pub fn transfer(
        &mut self,
        inject_at: SimTime,
        src: Coord,
        dst: Coord,
        payload: u64,
        model: &CostModel,
    ) -> Delivery {
        assert_ne!(src, dst, "intra-node traffic does not use the torus");
        self.injected[self.shape.index(src)].add(payload);

        // Cut-through: the head requests link i+1 one hop_latency after it
        // entered link i; the body streams behind it. A busy downstream
        // link stalls the head (and, approximately, the message) there.
        let mut head = inject_at;
        let mut injection_done = inject_at;
        let mut last_done = inject_at;
        for (i, (node, dir)) in self.shape.route(src, dst).enumerate() {
            let link = &mut self.links[self.shape.index(node)][dir.index()];
            let grant = link.push(head, payload, model);
            if i == 0 {
                injection_done = grant.done;
            }
            head = grant.start + model.hop_latency;
            last_done = grant.done;
        }
        Delivery {
            injection_done,
            deliver_at: last_done + model.hop_latency,
        }
    }

    /// Payload bytes injected by a node so far.
    pub fn injected_bytes(&self, node: Coord) -> u64 {
        self.injected[self.shape.index(node)].total()
    }

    /// Messages injected by a node so far.
    pub fn injected_messages(&self, node: Coord) -> u64 {
        self.injected[self.shape.index(node)].events()
    }

    /// Peak utilization across all links over `[0, horizon]`.
    pub fn max_link_utilization(&self, horizon: SimTime) -> f64 {
        self.links
            .iter()
            .flatten()
            .map(|l| l.utilization(horizon))
            .fold(0.0, f64::max)
    }

    /// Direct access to one link's statistics.
    pub fn link(&self, node: Coord, dir: LinkDir) -> &LinkState {
        &self.links[self.shape.index(node)][dir.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpaw_bgp_hw::topology::{Axis, Dir};

    fn model() -> CostModel {
        CostModel::bgp()
    }

    #[test]
    fn single_hop_delivery_time() {
        let m = model();
        let mut net = FullNetwork::new(Shape::torus([2, 1, 1]));
        let d = net.transfer(SimTime::ZERO, Coord([0, 0, 0]), Coord([1, 0, 0]), 224, &m);
        assert_eq!(d.injection_done, SimTime::ZERO + m.link_time(224));
        assert_eq!(d.deliver_at, d.injection_done + m.hop_latency);
    }

    #[test]
    fn multi_hop_crosses_every_link() {
        let m = model();
        let mut net = FullNetwork::new(Shape::mesh([4, 1, 1]));
        let src = Coord([0, 0, 0]);
        let dst = Coord([3, 0, 0]);
        let d = net.transfer(SimTime::ZERO, src, dst, 1000, &m);
        // Cut-through: one serialization plus 3 hop latencies.
        let expect = SimTime::ZERO + m.link_time(1000) + m.hop_latency * 3;
        assert_eq!(d.deliver_at, expect);
        // Intermediate nodes' +x links were all used.
        for x in 0..3 {
            let l = net.link(
                Coord([x, 0, 0]),
                LinkDir {
                    axis: Axis::X,
                    dir: Dir::Plus,
                },
            );
            assert_eq!(l.messages(), 1);
        }
    }

    #[test]
    fn contention_on_shared_link_serializes() {
        let m = model();
        let mut net = FullNetwork::new(Shape::torus([2, 1, 1]));
        let a = net.transfer(
            SimTime::ZERO,
            Coord([0, 0, 0]),
            Coord([1, 0, 0]),
            10_000,
            &m,
        );
        let b = net.transfer(
            SimTime::ZERO,
            Coord([0, 0, 0]),
            Coord([1, 0, 0]),
            10_000,
            &m,
        );
        assert!(b.deliver_at > a.deliver_at);
        assert_eq!(
            b.deliver_at.since(a.deliver_at),
            m.link_time(10_000),
            "second message queues for the full serialization time"
        );
    }

    #[test]
    fn opposite_directions_do_not_contend() {
        let m = model();
        let mut net = FullNetwork::new(Shape::torus([2, 1, 1]));
        let a = net.transfer(
            SimTime::ZERO,
            Coord([0, 0, 0]),
            Coord([1, 0, 0]),
            10_000,
            &m,
        );
        let b = net.transfer(
            SimTime::ZERO,
            Coord([1, 0, 0]),
            Coord([0, 0, 0]),
            10_000,
            &m,
        );
        assert_eq!(a.deliver_at, b.deliver_at, "the two ways are independent");
    }

    #[test]
    fn injection_accounting() {
        let m = model();
        let mut net = FullNetwork::new(Shape::torus([2, 2, 1]));
        net.transfer(SimTime::ZERO, Coord([0, 0, 0]), Coord([1, 0, 0]), 500, &m);
        net.transfer(SimTime::ZERO, Coord([0, 0, 0]), Coord([0, 1, 0]), 700, &m);
        assert_eq!(net.injected_bytes(Coord([0, 0, 0])), 1200);
        assert_eq!(net.injected_messages(Coord([0, 0, 0])), 2);
    }

    #[test]
    #[should_panic(expected = "intra-node")]
    fn rejects_self_transfer() {
        let m = model();
        let mut net = FullNetwork::new(Shape::torus([2, 1, 1]));
        net.transfer(SimTime::ZERO, Coord([0, 0, 0]), Coord([0, 0, 0]), 1, &m);
    }
}
