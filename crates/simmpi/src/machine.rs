//! The timed machine: executes rank programs on the simulated BGP.

use crate::diag;
use crate::instr::{Instr, Program, Tag};
use crate::report::{RunReport, ThreadPhases};
use gpaw_bgp_hw::spec::{CostModel, STENCIL_FLOPS_PER_POINT};
use gpaw_bgp_hw::topology::{Axis, Coord, Dir, LinkDir};
use gpaw_bgp_hw::CartMap;
use gpaw_des::{EventQueue, FifoServer, SimDuration, SimTime, SpanAgg, SpanKind};
use gpaw_netsim::{CollectiveTree, FullNetwork, UnitCellNetwork};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// A multiplicative hasher for the machine's integer keys: one rotate,
/// xor and multiply per word instead of SipHash's rounds. The keys are
/// simulator-chosen ranks and tags, so there is no adversary to resist.
#[derive(Default)]
struct IntHasher(u64);

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        // The product's entropy sits in the high bits; the table indexes
        // buckets with the low ones.
        self.0.rotate_left(26)
    }
}

/// A match table: `(source rank, tag)` → the entries waiting under that
/// pair, oldest first.
type MatchTable<V> = HashMap<(u64, Tag), VecDeque<V>, BuildHasherDefault<IntHasher>>;

/// Take the oldest entry waiting under `key`, retiring the key the moment
/// its queue drains: a match table holds only the traffic in flight.
fn take_oldest<V>(table: &mut MatchTable<V>, key: (u64, Tag)) -> Option<V> {
    match table.entry(key) {
        Entry::Occupied(mut e) => {
            let v = e.get_mut().pop_front();
            if e.get().is_empty() {
                e.remove();
            }
            v
        }
        Entry::Vacant(_) => None,
    }
}

/// A message size mismatch is a program bug on either side of the match:
/// name the pair and both sizes.
fn check_size(src: u64, tag: Tag, sent: u64, posted: u64) {
    assert!(
        sent == posted,
        "message size mismatch on {}: sent {sent} bytes, receive posted for {posted}",
        diag::pending_recv(src as usize, tag)
    );
}

/// The MPI thread support level of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadMode {
    /// `MPI_THREAD_SINGLE`: no library locking; only thread 0 of each
    /// process may issue communication instructions.
    Single,
    /// `MPI_THREAD_MULTIPLE`: any thread may call the library, but every
    /// call serializes through a per-process lock with a measurable hold
    /// time.
    Multiple,
}

/// How much of the machine is instantiated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Every rank, every link. Exact for any topology and any schedule.
    Full,
    /// One node plus mirrored neighbor traffic. Exact for SPMD-symmetric
    /// schedules on torus partitions (the FD workload); `neighbor_hops`
    /// is 1 for a reordered cartesian map.
    UnitCell {
        /// Torus distance to the logical neighbor.
        neighbor_hops: u64,
    },
}

enum Net {
    Full(FullNetwork),
    Cell(UnitCellNetwork),
}

#[derive(Debug)]
enum Ev {
    /// Thread CPU became free: fetch and start the next instruction.
    Fetch { tid: u32 },
    /// A send request (epoch) of a thread completed (buffer reusable).
    SendDone { tid: u32, epoch: u32 },
    /// A message reached its destination process.
    Deliver {
        proc: u32,
        src: u64,
        tag: Tag,
        bytes: u64,
    },
}

/// The requests one thread posted under one epoch, until its `WaitEpoch`
/// charges them.
struct EpochRec {
    epoch: u32,
    /// Requests not yet complete.
    open: u32,
    /// Requests posted in all (drives the wait-completion charge).
    posted: u32,
}

/// A receive waiting for its message.
struct PostedRecv {
    tid: u32,
    epoch: u32,
    bytes: u64,
}

struct Thread {
    proc: u32,
    slot: u32,
    /// The epochs with requests posted and not yet waited on — two or
    /// three at a time under double buffering, so a linear search wins.
    epochs: Vec<EpochRec>,
    waiting: Option<u32>,
    /// When the thread parked on its current `WaitEpoch` (valid while
    /// `waiting` is `Some`); anchors the Wait span.
    wait_started: SimTime,
    done: bool,
    finish: SimTime,
    /// CPU time in the stencil kernel (and explicit delays).
    busy_compute: SimDuration,
    /// CPU time in messaging: posting calls, lock waits, completion
    /// processing, intra-node copies.
    busy_comm: SimDuration,
    /// CPU time in synchronization: thread barriers, collectives.
    busy_sync: SimDuration,
    /// Span-level attribution of the whole timeline. Unlike the `busy_*`
    /// aggregates (which count only CPU-occupied time), the spans tile
    /// `[0, finish]` exactly: blocked waits and barrier arrival-to-release
    /// intervals are attributed to `Wait`/`ThreadBarrier`, and MULTIPLE-mode
    /// lock queueing is separated out as `LibLock`.
    spans: SpanAgg,
    flops: f64,
}

impl Thread {
    fn busy(&self) -> SimDuration {
        self.busy_compute + self.busy_comm + self.busy_sync
    }

    /// Count one posted request under `epoch`; `open` if it is still
    /// incomplete.
    fn post(&mut self, epoch: u32, open: bool) {
        let open = u32::from(open);
        match self.epochs.iter_mut().find(|r| r.epoch == epoch) {
            Some(r) => {
                r.open += open;
                r.posted += 1;
            }
            None => self.epochs.push(EpochRec {
                epoch,
                open,
                posted: 1,
            }),
        }
    }

    /// At `epoch`'s wait: `None` while any of its requests is open;
    /// otherwise retire its record and return how many requests the wait
    /// charges for.
    fn retire_if_complete(&mut self, epoch: u32) -> Option<u64> {
        match self.epochs.iter().position(|r| r.epoch == epoch) {
            None => Some(0),
            Some(i) if self.epochs[i].open == 0 => {
                Some(u64::from(self.epochs.swap_remove(i).posted))
            }
            Some(_) => None,
        }
    }
}

struct Proc {
    rank: usize,
    node_idx: usize,
    /// Payload bytes this process posted with `Isend` (any destination) —
    /// the paper's Fig. 6 counts intra-node virtual-mode messages too.
    sent_payload: u64,
    mpi_lock: FifoServer,
    /// Receives posted before their message arrived.
    posted: MatchTable<PostedRecv>,
    /// Sizes of messages that arrived before their receive was posted.
    unexpected: MatchTable<u64>,
    barrier: Vec<(u32, SimTime)>,
}

/// The simulated machine, ready to run one set of programs.
pub struct Machine {
    model: CostModel,
    map: CartMap,
    mode: ThreadMode,
    net: Net,
    tree: CollectiveTree,
    queue: EventQueue<Ev>,
    procs: Vec<Proc>,
    threads: Vec<Thread>,
    programs: Vec<Box<dyn Program>>,
    /// Process index of each global rank; `None` for ranks the scope does
    /// not instantiate.
    proc_of_rank: Vec<Option<u32>>,
    node_bus: Vec<FifoServer>,
    ar_arrived: Vec<(u32, SimTime)>,
    ar_bytes: u64,
    finished: usize,
    messages: u64,
    cell_dims: [usize; 3],
}

impl Machine {
    /// The global ranks that will be instantiated (and therefore need
    /// programs) for a map at a given scope, in ascending order.
    pub fn instantiated_ranks(map: &CartMap, scope: Scope) -> Vec<usize> {
        match scope {
            Scope::Full => (0..map.ranks()).collect(),
            Scope::UnitCell { .. } => {
                let origin = Coord([0, 0, 0]);
                (0..map.ranks())
                    .filter(|&r| map.node_of(r) == origin)
                    .collect()
            }
        }
    }

    /// Build a machine. `programs` is indexed `[proc][thread-slot]`,
    /// flattened, with processes in [`Machine::instantiated_ranks`] order
    /// and `threads_per_process` slots each.
    ///
    /// # Panics
    /// Panics if the program count is wrong, or if `UnitCell` scope is
    /// combined with an unreordered map (the symmetry argument needs the
    /// cartesian embedding).
    pub fn new(
        map: CartMap,
        model: CostModel,
        mode: ThreadMode,
        scope: Scope,
        programs: Vec<Box<dyn Program>>,
    ) -> Machine {
        if matches!(scope, Scope::UnitCell { .. }) {
            assert!(
                map.reordered,
                "unit-cell scope requires a reordered cartesian map"
            );
        }
        let ranks = Self::instantiated_ranks(&map, scope);
        let t_per_proc = map.partition.threads_per_process();
        assert_eq!(
            programs.len(),
            ranks.len() * t_per_proc,
            "need one program per (process, thread-slot)"
        );

        let cell_dims = match scope {
            Scope::Full => [1, 1, 1],
            Scope::UnitCell { .. } => map.block,
        };
        let net = match scope {
            Scope::Full => Net::Full(FullNetwork::new(map.partition.node_shape)),
            Scope::UnitCell { neighbor_hops } => Net::Cell(UnitCellNetwork::new(neighbor_hops)),
        };
        let n_nodes = match scope {
            Scope::Full => map.partition.nodes(),
            Scope::UnitCell { .. } => 1,
        };

        let mut proc_of_rank = vec![None; map.ranks()];
        let mut procs = Vec::with_capacity(ranks.len());
        let mut threads = Vec::with_capacity(ranks.len() * t_per_proc);
        for (pi, &rank) in ranks.iter().enumerate() {
            proc_of_rank[rank] = Some(pi as u32);
            let node_idx = match scope {
                Scope::Full => map.partition.node_shape.index(map.node_of(rank)),
                Scope::UnitCell { .. } => 0,
            };
            procs.push(Proc {
                rank,
                node_idx,
                sent_payload: 0,
                mpi_lock: FifoServer::new(),
                posted: MatchTable::default(),
                unexpected: MatchTable::default(),
                barrier: Vec::new(),
            });
            for slot in 0..t_per_proc {
                threads.push(Thread {
                    proc: pi as u32,
                    slot: slot as u32,
                    epochs: Vec::new(),
                    waiting: None,
                    wait_started: SimTime::ZERO,
                    done: false,
                    finish: SimTime::ZERO,
                    busy_compute: SimDuration::ZERO,
                    busy_comm: SimDuration::ZERO,
                    busy_sync: SimDuration::ZERO,
                    spans: SpanAgg::new(),
                    flops: 0.0,
                });
            }
        }

        Machine {
            tree: CollectiveTree::new(map.partition.nodes()),
            model,
            map,
            mode,
            net,
            queue: EventQueue::new(),
            procs,
            threads,
            programs,
            proc_of_rank,
            node_bus: vec![FifoServer::new(); n_nodes],
            ar_arrived: Vec::new(),
            ar_bytes: 0,
            finished: 0,
            messages: 0,
            cell_dims,
        }
    }

    /// Run to completion and report.
    ///
    /// # Panics
    /// Panics on deadlock (some thread never reaches `Done`) with a
    /// description of the stuck threads, on a message that arrived but
    /// was never received, on a receive that was posted but never
    /// matched, and on a message whose size differs from its receive's.
    pub fn run(mut self) -> RunReport {
        self.simulate();
        self.report()
    }

    /// Drive the event loop until no event is left, then check that every
    /// thread finished, every message was received and every posted
    /// receive was matched.
    fn simulate(&mut self) {
        for tid in 0..self.threads.len() {
            self.queue
                .schedule_at(SimTime::ZERO, Ev::Fetch { tid: tid as u32 });
        }
        while let Some((now, ev)) = self.queue.pop() {
            match ev {
                Ev::Fetch { tid } => self.fetch(tid, now),
                Ev::SendDone { tid, epoch } => self.complete_request(tid, epoch, now),
                Ev::Deliver {
                    proc,
                    src,
                    tag,
                    bytes,
                } => self.deliver(proc, src, tag, bytes, now),
            }
        }
        if self.finished < self.threads.len() {
            let stuck: Vec<String> = self
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| !t.done)
                .map(|(i, t)| {
                    format!(
                        "tid {i} (rank {}, slot {}) {}",
                        self.procs[t.proc as usize].rank,
                        t.slot,
                        self.pending_op(i as u32, t)
                    )
                })
                .collect();
            panic!(
                "{}: {}",
                diag::stuck_header(stuck.len(), "threads"),
                stuck.join("; ")
            );
        }
        let (mut unreceived, mut unmatched) = (Vec::new(), Vec::new());
        for p in &self.procs {
            for (&(src, tag), q) in &p.unexpected {
                let recv = diag::pending_recv(src as usize, tag);
                let line = format!("rank {} never posted {recv}", p.rank);
                unreceived.extend(std::iter::repeat_n(line, q.len()));
            }
            for (&(src, tag), q) in &p.posted {
                let recv = diag::pending_recv(src as usize, tag);
                let line = format!("rank {} posted {recv}, never matched", p.rank);
                unmatched.extend(std::iter::repeat_n(line, q.len()));
            }
        }
        for (header, mut lines) in [
            (diag::unreceived_header(unreceived.len()), unreceived),
            (diag::unmatched_header(unmatched.len()), unmatched),
        ] {
            if !lines.is_empty() {
                lines.sort();
                panic!("{header}: {}", lines.join("; "));
            }
        }
    }

    /// What a stuck thread is blocked on, for the deadlock report: the
    /// pending receives of its waited epoch — each named with its peer and
    /// tag in the wording shared with the native fabric's watchdog
    /// ([`diag::pending_recv`]) — or the thread barrier / allreduce it
    /// arrived at and never left.
    fn pending_op(&self, tid: u32, t: &Thread) -> String {
        let p = &self.procs[t.proc as usize];
        if let Some(epoch) = t.waiting {
            let mut pending: Vec<String> = p
                .posted
                .iter()
                .flat_map(|(&(src, tag), q)| {
                    q.iter()
                        .filter(move |r| r.tid == tid && r.epoch == epoch)
                        .map(move |_| diag::pending_recv(src as usize, tag))
                })
                .collect();
            pending.sort();
            if pending.is_empty() {
                // Unmatched sends complete on their own schedule, so an
                // epoch stuck without pending receives means the matching
                // traffic never progressed (e.g. the peer deadlocked).
                format!("waiting on epoch {epoch} (no pending receives)")
            } else {
                format!("waiting on {}", pending.join(" + "))
            }
        } else if p.barrier.iter().any(|&(b, _)| b == tid) {
            format!(
                "in thread barrier ({} of {} arrived)",
                p.barrier.len(),
                self.map.partition.threads_per_process()
            )
        } else if self.ar_arrived.iter().any(|&(b, _)| b == tid) {
            format!(
                "in allreduce ({} of {} processes arrived)",
                self.ar_arrived.len(),
                self.procs.len()
            )
        } else {
            "blocked outside any instruction (program never completed)".to_string()
        }
    }

    fn report(&self) -> RunReport {
        let makespan = self
            .threads
            .iter()
            .map(|t| t.finish)
            .max()
            .unwrap_or(SimTime::ZERO);
        let flops: f64 = self.threads.iter().map(|t| t.flops).sum();
        let busy = self
            .threads
            .iter()
            .fold(SimDuration::ZERO, |acc, t| acc + t.busy());
        let busy_compute = self
            .threads
            .iter()
            .fold(SimDuration::ZERO, |acc, t| acc + t.busy_compute);
        let busy_comm = self
            .threads
            .iter()
            .fold(SimDuration::ZERO, |acc, t| acc + t.busy_comm);
        let busy_sync = self
            .threads
            .iter()
            .fold(SimDuration::ZERO, |acc, t| acc + t.busy_sync);
        let net = match &self.net {
            Net::Full(n) => n.report(makespan),
            Net::Cell(c) => c.report(makespan),
        };
        let mut phases = SpanAgg::new();
        let mut thread_phases = Vec::with_capacity(self.threads.len());
        for t in &self.threads {
            phases.merge(&t.spans);
            thread_phases.push(ThreadPhases {
                rank: self.procs[t.proc as usize].rank,
                slot: t.slot as usize,
                finish: t.finish.since(SimTime::ZERO),
                spans: t.spans.clone(),
            });
        }
        // All posted payload, grouped by node (the Fig. 6 metric).
        let mut per_node = vec![0u64; self.node_bus.len()];
        for p in &self.procs {
            per_node[p.node_idx] += p.sent_payload;
        }
        let bytes_per_node = per_node.into_iter().max().unwrap_or(0);
        RunReport {
            makespan: makespan.since(SimTime::ZERO),
            events: self.queue.events_processed(),
            messages: self.messages,
            bytes_per_node,
            network_bytes_per_node: net.bytes_per_node_max,
            total_network_bytes: net.bytes_total,
            busy,
            busy_compute,
            busy_comm,
            busy_sync,
            flops,
            threads: self.threads.len(),
            utilization: self.model.utilization(
                flops,
                self.threads.len(),
                makespan.since(SimTime::ZERO),
            ),
            max_link_utilization: net.max_link_utilization,
            core_peak_flops: self.model.node.core_peak_flops(),
            paper_ref_flops: self.model.ref_flops_paper,
            phases,
            thread_phases,
            net,
        }
    }

    // ---- instruction execution ----------------------------------------

    fn fetch(&mut self, tid: u32, now: SimTime) {
        let instr = self.programs[tid as usize].next();
        let ti = tid as usize;
        match instr {
            Instr::Isend {
                dst,
                bytes,
                tag,
                epoch,
            } => {
                self.assert_comm_allowed(ti);
                let cpu_done = self.charge_call(ti, now, self.model.o_send, SpanKind::Post);
                self.threads[ti].post(epoch, true);
                self.messages += 1;
                self.procs[self.threads[ti].proc as usize].sent_payload += bytes;
                let src_rank = self.procs[self.threads[ti].proc as usize].rank;
                let routed = self.route(src_rank, dst, bytes, cpu_done, ti);
                self.queue
                    .schedule_at(routed.injection_done, Ev::SendDone { tid, epoch });
                self.queue.schedule_at(
                    routed.deliver_at,
                    Ev::Deliver {
                        proc: routed.dst_proc,
                        src: routed.perceived_src,
                        tag,
                        bytes,
                    },
                );
                self.queue.schedule_at(routed.cpu_free, Ev::Fetch { tid });
            }
            Instr::Irecv {
                src,
                bytes,
                tag,
                epoch,
            } => {
                self.assert_comm_allowed(ti);
                let cpu_done = self.charge_call(ti, now, self.model.o_recv, SpanKind::Post);
                let pi = self.threads[ti].proc as usize;
                let key = (src as u64, tag);
                let matched = take_oldest(&mut self.procs[pi].unexpected, key);
                if let Some(sent) = matched {
                    check_size(key.0, tag, sent, bytes);
                    // Completed immediately; still counts toward the epoch's
                    // wait-time charge.
                    self.threads[ti].post(epoch, false);
                } else {
                    self.procs[pi]
                        .posted
                        .entry(key)
                        .or_default()
                        .push_back(PostedRecv { tid, epoch, bytes });
                    self.threads[ti].post(epoch, true);
                }
                self.queue.schedule_at(cpu_done, Ev::Fetch { tid });
            }
            Instr::WaitEpoch { epoch } => {
                let t = &mut self.threads[ti];
                if let Some(k) = t.retire_if_complete(epoch) {
                    let charge = self.model.o_wait * k;
                    t.busy_comm += charge;
                    t.spans.add(SpanKind::Wait, charge);
                    self.queue.schedule_at(now + charge, Ev::Fetch { tid });
                } else {
                    t.waiting = Some(epoch);
                    t.wait_started = now;
                }
            }
            Instr::Compute {
                points,
                rows,
                grids,
            } => {
                let d = self.model.compute_time(points, rows, grids);
                let t = &mut self.threads[ti];
                t.busy_compute += d;
                t.spans.add(SpanKind::Compute, d);
                t.flops += points as f64 * STENCIL_FLOPS_PER_POINT;
                self.queue.schedule_at(now + d, Ev::Fetch { tid });
            }
            Instr::Delay { d } => {
                let t = &mut self.threads[ti];
                t.busy_compute += d;
                t.spans.add(SpanKind::Compute, d);
                self.queue.schedule_at(now + d, Ev::Fetch { tid });
            }
            Instr::ThreadBarrier => {
                let pi = self.threads[ti].proc as usize;
                let t_per_proc = self.map.partition.threads_per_process();
                if t_per_proc == 1 {
                    self.queue.schedule_at(now, Ev::Fetch { tid });
                    return;
                }
                self.procs[pi].barrier.push((tid, now));
                if self.procs[pi].barrier.len() == t_per_proc {
                    let latest = self.procs[pi]
                        .barrier
                        .iter()
                        .map(|&(_, t)| t)
                        .max()
                        .expect("barrier is non-empty");
                    let release = latest + self.model.t_barrier;
                    let waiters = std::mem::take(&mut self.procs[pi].barrier);
                    for (wtid, arrived) in waiters {
                        let t = &mut self.threads[wtid as usize];
                        t.busy_sync += self.model.t_barrier;
                        t.spans.add(SpanKind::ThreadBarrier, release.since(arrived));
                        self.queue.schedule_at(release, Ev::Fetch { tid: wtid });
                    }
                }
            }
            Instr::AllReduce { bytes } => {
                assert_eq!(
                    self.threads[ti].slot, 0,
                    "AllReduce must be issued by thread 0 of each process"
                );
                self.ar_arrived.push((tid, now));
                self.ar_bytes = self.ar_bytes.max(bytes);
                if self.ar_arrived.len() == self.procs.len() {
                    let latest = self
                        .ar_arrived
                        .iter()
                        .map(|&(_, t)| t)
                        .max()
                        .expect("non-empty");
                    let cost = self.tree.allreduce(self.ar_bytes, &self.model);
                    let release = latest + cost;
                    let waiters = std::mem::take(&mut self.ar_arrived);
                    self.ar_bytes = 0;
                    for (wtid, arrived) in waiters {
                        let t = &mut self.threads[wtid as usize];
                        t.busy_sync += cost;
                        t.spans.add(SpanKind::Collective, release.since(arrived));
                        self.queue.schedule_at(release, Ev::Fetch { tid: wtid });
                    }
                }
            }
            Instr::Done => {
                let t = &mut self.threads[ti];
                t.done = true;
                t.finish = now;
                self.finished += 1;
            }
        }
    }

    fn assert_comm_allowed(&self, ti: usize) {
        if self.mode == ThreadMode::Single {
            assert_eq!(
                self.threads[ti].slot, 0,
                "MPI_THREAD_SINGLE: only thread 0 may communicate"
            );
        }
    }

    /// CPU time of an MPI call, including MULTIPLE-mode lock serialization.
    /// Returns when the call completes (thread busy until then). The span
    /// attribution separates the time queueing on the library lock
    /// (`LibLock`) from the call itself (`kind`, normally `Post`).
    fn charge_call(
        &mut self,
        ti: usize,
        now: SimTime,
        cost: SimDuration,
        kind: SpanKind,
    ) -> SimTime {
        let done = match self.mode {
            ThreadMode::Single => {
                self.threads[ti].spans.add(kind, cost);
                now + cost
            }
            ThreadMode::Multiple => {
                let pi = self.threads[ti].proc as usize;
                let grant = self.procs[pi]
                    .mpi_lock
                    .acquire(now, cost + self.model.o_lock_multiple);
                let t = &mut self.threads[ti];
                t.spans.add(SpanKind::LibLock, grant.queue_delay(now));
                t.spans.add(kind, grant.done.since(grant.start));
                grant.done
            }
        };
        self.threads[ti].busy_comm += done.since(now);
        done
    }

    // ---- message routing -----------------------------------------------

    fn route(
        &mut self,
        src_rank: usize,
        dst_rank: usize,
        bytes: u64,
        at: SimTime,
        sender_ti: usize,
    ) -> Routed {
        if let Some(dst_proc) = self.proc_of_rank[dst_rank] {
            let same_node = match &self.net {
                Net::Full(_) => self.map.same_node(src_rank, dst_rank),
                // Everything instantiated in cell scope lives on the one
                // cell node.
                Net::Cell(_) => true,
            };
            if same_node {
                return self.route_memcpy(dst_proc, src_rank, bytes, at, sender_ti);
            }
        }
        match &mut self.net {
            Net::Full(net) => {
                let dst_proc =
                    self.proc_of_rank[dst_rank].expect("full scope instantiates every rank");
                let d = net.transfer(
                    at,
                    self.map.node_of(src_rank),
                    self.map.node_of(dst_rank),
                    bytes,
                    &self.model,
                );
                Routed {
                    cpu_free: at,
                    injection_done: d.injection_done,
                    deliver_at: d.deliver_at,
                    dst_proc,
                    perceived_src: src_rank as u64,
                }
            }
            Net::Cell(net) => {
                let shape = self.map.proc_shape();
                let sc = shape.coord(src_rank);
                let dc = shape.coord(dst_rank);
                // Proc-level displacement: identifies the perceived source.
                let delta = shape.displacement(sc, dc);
                // Node-level displacement: identifies the physical link.
                let ndelta = self
                    .map
                    .partition
                    .node_shape
                    .displacement(self.map.node_of(src_rank), self.map.node_of(dst_rank));
                let (axis, step) = single_axis_step(ndelta)
                    .expect("unit-cell scope only supports nearest-neighbor node traffic");
                let dir = if step > 0 { Dir::Plus } else { Dir::Minus };
                let d = net.transfer(at, LinkDir { axis, dir }, bytes, &self.model);
                // Mirror target: the cell rank at the destination's position
                // within its node block.
                let mirror = Coord([
                    dc.0[0] % self.cell_dims[0],
                    dc.0[1] % self.cell_dims[1],
                    dc.0[2] % self.cell_dims[2],
                ]);
                let mirror_rank = self.map.rank_of(mirror);
                let dst_proc = self.proc_of_rank[mirror_rank]
                    .expect("mirror target is in the cell by construction");
                // Perceived source: the rank the mirror target would really
                // have received this message from.
                let psrc = Coord([
                    wrap_sub(mirror.0[0], delta[0], shape.dims[0]),
                    wrap_sub(mirror.0[1], delta[1], shape.dims[1]),
                    wrap_sub(mirror.0[2], delta[2], shape.dims[2]),
                ]);
                Routed {
                    cpu_free: at,
                    injection_done: d.injection_done,
                    deliver_at: d.deliver_at,
                    dst_proc,
                    perceived_src: self.map.rank_of(psrc) as u64,
                }
            }
        }
    }

    /// Intra-node transfer: the sending core performs the copy through the
    /// node's shared memory bus.
    fn route_memcpy(
        &mut self,
        dst_proc: u32,
        src_rank: usize,
        bytes: u64,
        at: SimTime,
        sender_ti: usize,
    ) -> Routed {
        let pi = self.threads[sender_ti].proc as usize;
        let node = self.procs[pi].node_idx;
        let grant =
            self.node_bus[node].acquire(at + self.model.o_memcpy, self.model.memcpy_time(bytes));
        let t = &mut self.threads[sender_ti];
        t.busy_comm += grant.done.since(at);
        // The copy (including any bus queueing) occupies the posting core;
        // it is part of the send call, so it extends the Post span.
        t.spans.add(SpanKind::Post, grant.done.since(at));
        Routed {
            cpu_free: grant.done,
            injection_done: grant.done,
            deliver_at: grant.done,
            dst_proc,
            perceived_src: src_rank as u64,
        }
    }

    // ---- completion ------------------------------------------------------

    fn complete_request(&mut self, tid: u32, epoch: u32, now: SimTime) {
        let t = &mut self.threads[tid as usize];
        let rec = t
            .epochs
            .iter_mut()
            .find(|r| r.epoch == epoch)
            .expect("completion for unknown epoch");
        rec.open -= 1;
        if t.waiting != Some(epoch) {
            return;
        }
        if let Some(k) = t.retire_if_complete(epoch) {
            t.waiting = None;
            let charge = self.model.o_wait * k;
            t.busy_comm += charge;
            // The whole parked interval plus the completion charge is
            // MPI-wait time.
            t.spans
                .add(SpanKind::Wait, (now + charge).since(t.wait_started));
            self.queue.schedule_at(now + charge, Ev::Fetch { tid });
        }
    }

    fn deliver(&mut self, proc: u32, src: u64, tag: Tag, bytes: u64, now: SimTime) {
        let pi = proc as usize;
        let key = (src, tag);
        match take_oldest(&mut self.procs[pi].posted, key) {
            Some(recv) => {
                check_size(src, tag, bytes, recv.bytes);
                self.complete_request(recv.tid, recv.epoch, now);
            }
            None => self.procs[pi]
                .unexpected
                .entry(key)
                .or_default()
                .push_back(bytes),
        }
    }
}

struct Routed {
    cpu_free: SimTime,
    injection_done: SimTime,
    deliver_at: SimTime,
    dst_proc: u32,
    perceived_src: u64,
}

/// Decompose a displacement into its single non-zero axis step.
fn single_axis_step(delta: [isize; 3]) -> Option<(Axis, isize)> {
    let mut found = None;
    for axis in Axis::ALL {
        let d = delta[axis.index()];
        if d != 0 {
            if found.is_some() || d.abs() != 1 {
                return None;
            }
            found = Some((axis, d));
        }
    }
    found
}

/// `(a - d) mod n` with signed `d`.
fn wrap_sub(a: usize, d: isize, n: usize) -> usize {
    (a as isize - d).rem_euclid(n as isize) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::VecProgram;
    use gpaw_bgp_hw::{ExecMode, Partition};

    fn model() -> CostModel {
        CostModel::bgp()
    }

    /// Two SMP nodes; slots 1..3 idle.
    fn two_node_map() -> CartMap {
        let p = Partition::new([1, 1, 2], ExecMode::Smp);
        CartMap::new(p, [1, 1, 2]).unwrap()
    }

    fn pad_idle(mut progs: Vec<Vec<Instr>>, threads: usize) -> Vec<Box<dyn Program>> {
        let mut out: Vec<Box<dyn Program>> = Vec::new();
        for p in progs.drain(..) {
            out.push(Box::new(VecProgram::new(p)));
            for _ in 1..threads {
                out.push(Box::new(VecProgram::new(vec![])));
            }
        }
        out
    }

    #[test]
    fn one_message_end_to_end() {
        let m = model();
        let map = two_node_map();
        let progs = pad_idle(
            vec![
                vec![
                    Instr::Isend {
                        dst: 1,
                        bytes: 224,
                        tag: 7,
                        epoch: 0,
                    },
                    Instr::WaitEpoch { epoch: 0 },
                ],
                vec![
                    Instr::Irecv {
                        src: 0,
                        bytes: 224,
                        tag: 7,
                        epoch: 0,
                    },
                    Instr::WaitEpoch { epoch: 0 },
                ],
            ],
            4,
        );
        let r = Machine::new(map, m.clone(), ThreadMode::Single, Scope::Full, progs).run();
        // Receiver finishes at o_send + link + hop + o_wait (recv posted at
        // t=0 ⇒ o_recv happens concurrently with the send).
        let expect = m.o_send + m.link_time(224) + m.hop_latency + m.o_wait;
        assert_eq!(r.makespan, expect);
        assert_eq!(r.messages, 1);
        assert_eq!(r.bytes_per_node, 224);
    }

    #[test]
    fn unexpected_message_is_buffered() {
        let m = model();
        let map = two_node_map();
        // Receiver delays long enough that the message arrives first.
        let progs = pad_idle(
            vec![
                vec![
                    Instr::Isend {
                        dst: 1,
                        bytes: 100,
                        tag: 1,
                        epoch: 0,
                    },
                    Instr::WaitEpoch { epoch: 0 },
                ],
                vec![
                    Instr::Delay {
                        d: SimDuration::from_ms(1),
                    },
                    Instr::Irecv {
                        src: 0,
                        bytes: 100,
                        tag: 1,
                        epoch: 0,
                    },
                    Instr::WaitEpoch { epoch: 0 },
                ],
            ],
            4,
        );
        let r = Machine::new(map, m.clone(), ThreadMode::Single, Scope::Full, progs).run();
        // Makespan dominated by the receiver's delay, not the network.
        let floor = SimDuration::from_ms(1) + m.o_recv + m.o_wait;
        assert_eq!(r.makespan, floor);
    }

    #[test]
    fn wait_with_nothing_outstanding_is_instant() {
        let m = model();
        let map = two_node_map();
        let progs = pad_idle(vec![vec![Instr::WaitEpoch { epoch: 3 }], vec![]], 4);
        let r = Machine::new(map, m, ThreadMode::Single, Scope::Full, progs).run();
        assert_eq!(r.makespan, SimDuration::ZERO);
    }

    #[test]
    fn simultaneous_exchange_beats_serialized() {
        // The §V optimization: posting all three dimensions at once
        // overlaps the six directions on six independent links.
        let m = model();
        let p = Partition::new([2, 2, 2], ExecMode::Smp);
        let map = CartMap::new(p, [2, 2, 2]).unwrap();
        let bytes = 50_000u64;

        let build = |serialized: bool| -> Vec<Box<dyn Program>> {
            let mut progs: Vec<Vec<Instr>> = Vec::new();
            for r in 0..8usize {
                let mut is: Vec<Instr> = Vec::new();
                for (e, axis) in Axis::ALL.into_iter().enumerate() {
                    let e = if serialized { e as u32 } else { 0 };
                    for dir in Dir::ALL {
                        let nb = map.neighbor_rank(r, axis, dir);
                        let tag_s =
                            (axis.index() * 2 + if dir == Dir::Plus { 1 } else { 0 }) as u64;
                        // The matching receive: our neighbor's send toward
                        // us travels the opposite direction.
                        let tag_r =
                            (axis.index() * 2 + if dir == Dir::Plus { 0 } else { 1 }) as u64;
                        is.push(Instr::Irecv {
                            src: nb,
                            bytes,
                            tag: tag_r,
                            epoch: e,
                        });
                        is.push(Instr::Isend {
                            dst: nb,
                            bytes,
                            tag: tag_s,
                            epoch: e,
                        });
                    }
                    if serialized {
                        is.push(Instr::WaitEpoch { epoch: e });
                    }
                }
                if !serialized {
                    is.push(Instr::WaitEpoch { epoch: 0 });
                }
                progs.push(is);
            }
            pad_idle(progs, 4)
        };

        let t_serial = Machine::new(
            map.clone(),
            m.clone(),
            ThreadMode::Single,
            Scope::Full,
            build(true),
        )
        .run()
        .makespan;
        let par_progs = build(false);
        let t_parallel = Machine::new(map.clone(), m, ThreadMode::Single, Scope::Full, par_progs)
            .run()
            .makespan;
        assert!(
            t_parallel.as_secs_f64() < 0.55 * t_serial.as_secs_f64(),
            "parallel {t_parallel} vs serial {t_serial}"
        );
    }

    #[test]
    fn thread_barrier_synchronizes() {
        let m = model();
        let p = Partition::new([1, 1, 1], ExecMode::Smp);
        let map = CartMap::new(p, [1, 1, 1]).unwrap();
        let mk = |d_ms: u64| {
            vec![
                Instr::Delay {
                    d: SimDuration::from_ms(d_ms),
                },
                Instr::ThreadBarrier,
            ]
        };
        let progs: Vec<Box<dyn Program>> = vec![
            Box::new(VecProgram::new(mk(1))),
            Box::new(VecProgram::new(mk(5))),
            Box::new(VecProgram::new(mk(2))),
            Box::new(VecProgram::new(mk(3))),
        ];
        let r = Machine::new(map, m.clone(), ThreadMode::Single, Scope::Full, progs).run();
        assert_eq!(r.makespan, SimDuration::from_ms(5) + m.t_barrier);
    }

    #[test]
    fn multiple_mode_serializes_library_calls() {
        let m = model();
        let p = Partition::new([1, 1, 2], ExecMode::Smp);
        let map = CartMap::new(p, [1, 1, 2]).unwrap();
        // All four threads of node 0 send to ranks... in Multiple mode the
        // per-process lock serializes the four posts.
        let n_sends = 8u64;
        let build = || {
            let mut progs: Vec<Box<dyn Program>> = Vec::new();
            for proc in 0..2usize {
                for slot in 0..4usize {
                    let mut is = Vec::new();
                    if proc == 0 {
                        for k in 0..n_sends {
                            is.push(Instr::Isend {
                                dst: 1,
                                bytes: 1,
                                tag: (slot as u64) << 32 | k,
                                epoch: 0,
                            });
                        }
                        is.push(Instr::WaitEpoch { epoch: 0 });
                    } else if slot == 0 {
                        for s in 0..4u64 {
                            for k in 0..n_sends {
                                is.push(Instr::Irecv {
                                    src: 0,
                                    bytes: 1,
                                    tag: s << 32 | k,
                                    epoch: 0,
                                });
                            }
                        }
                        is.push(Instr::WaitEpoch { epoch: 0 });
                    }
                    progs.push(Box::new(VecProgram::new(is)));
                }
            }
            progs
        };
        let multi = Machine::new(
            map.clone(),
            m.clone(),
            ThreadMode::Multiple,
            Scope::Full,
            build(),
        )
        .run();
        // Lower bound: 4 threads × 8 calls serialized through the lock.
        let lock_floor = (m.o_send + m.o_lock_multiple) * (4 * n_sends);
        assert!(
            multi.makespan >= lock_floor,
            "multiple-mode lock must serialize: {} < {}",
            multi.makespan,
            lock_floor
        );
    }

    #[test]
    fn intra_node_messages_use_the_memory_bus() {
        let m = model();
        // One node, virtual mode: 4 single-thread ranks exchanging on-node.
        let p = Partition::new([1, 1, 1], ExecMode::Virtual);
        let map = CartMap::new(p, [1, 1, 4]).unwrap();
        let bytes = 1 << 20;
        let mut progs: Vec<Box<dyn Program>> = Vec::new();
        for r in 0..4usize {
            let dst = (r + 1) % 4;
            let src = (r + 3) % 4;
            progs.push(Box::new(VecProgram::new(vec![
                Instr::Irecv {
                    src,
                    bytes,
                    tag: 0,
                    epoch: 0,
                },
                Instr::Isend {
                    dst,
                    bytes,
                    tag: 0,
                    epoch: 0,
                },
                Instr::WaitEpoch { epoch: 0 },
            ])));
        }
        let r = Machine::new(map, m.clone(), ThreadMode::Single, Scope::Full, progs).run();
        // No torus traffic at all — but the Fig. 6 metric still counts the
        // four intra-node messages.
        assert_eq!(r.network_bytes_per_node, 0);
        assert_eq!(r.bytes_per_node, 4 * bytes);
        // Four 1 MB copies serialized on one 6.8 GB/s bus ≳ 0.6 ms.
        let copy = m.memcpy_time(bytes) * 4;
        assert!(r.makespan >= copy);
    }

    #[test]
    fn allreduce_joins_all_processes() {
        let m = model();
        let map = two_node_map();
        let progs = pad_idle(
            vec![
                vec![
                    Instr::Delay {
                        d: SimDuration::from_ms(2),
                    },
                    Instr::AllReduce { bytes: 8 },
                ],
                vec![Instr::AllReduce { bytes: 8 }],
            ],
            4,
        );
        let r = Machine::new(map, m.clone(), ThreadMode::Single, Scope::Full, progs).run();
        let expect = SimDuration::from_ms(2) + m.allreduce_time(8, 2);
        assert_eq!(r.makespan, expect);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn unmatched_wait_deadlocks_loudly() {
        let m = model();
        let map = two_node_map();
        let progs = pad_idle(
            vec![
                vec![
                    Instr::Irecv {
                        src: 1,
                        bytes: 8,
                        tag: 9,
                        epoch: 0,
                    },
                    Instr::WaitEpoch { epoch: 0 },
                ],
                vec![],
            ],
            4,
        );
        Machine::new(map, m, ThreadMode::Single, Scope::Full, progs).run();
    }

    #[test]
    fn deadlock_report_names_the_pending_receive_and_peer() {
        let m = model();
        let map = two_node_map();
        let progs = pad_idle(
            vec![
                vec![
                    Instr::Irecv {
                        src: 1,
                        bytes: 8,
                        tag: 9,
                        epoch: 0,
                    },
                    Instr::WaitEpoch { epoch: 0 },
                ],
                vec![],
            ],
            4,
        );
        let msg = run_panic(Machine::new(map, m, ThreadMode::Single, Scope::Full, progs));
        // The shared `diag` wording: the same phrases the native fabric's
        // watchdog uses, so one grep covers both planes.
        assert!(msg.contains("deadlock: 1 threads stuck"), "{msg}");
        assert!(msg.contains("rank 0"), "{msg}");
        assert!(msg.contains("waiting on recv(src=1, tag=9)"), "{msg}");
    }

    /// The panic message of a run that must fail.
    fn run_panic(machine: Machine) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| machine.run()))
            .expect_err("the run must fail");
        payload
            .downcast_ref::<String>()
            .expect("panic carries a message")
            .clone()
    }

    #[test]
    fn unreceived_message_is_named() {
        let map = two_node_map();
        let progs = pad_idle(
            vec![
                vec![
                    Instr::Isend {
                        dst: 1,
                        bytes: 8,
                        tag: 5,
                        epoch: 0,
                    },
                    Instr::WaitEpoch { epoch: 0 },
                ],
                vec![],
            ],
            4,
        );
        let msg = run_panic(Machine::new(
            map,
            model(),
            ThreadMode::Single,
            Scope::Full,
            progs,
        ));
        assert!(
            msg.contains("unreceived: 1 messages delivered, never matched"),
            "{msg}"
        );
        assert!(
            msg.contains("rank 1 never posted recv(src=0, tag=5)"),
            "{msg}"
        );
    }

    /// A receive that is posted and never waited on, with no sender, ends
    /// the run as a failure naming it rather than leaving it behind.
    #[test]
    fn unmatched_receive_is_named() {
        let progs = pad_idle(
            vec![
                vec![],
                vec![Instr::Irecv {
                    src: 0,
                    bytes: 8,
                    tag: 9,
                    epoch: 0,
                }],
            ],
            4,
        );
        let msg = run_panic(Machine::new(
            two_node_map(),
            model(),
            ThreadMode::Single,
            Scope::Full,
            progs,
        ));
        assert!(
            msg.contains("unmatched: 1 receives posted, never matched"),
            "{msg}"
        );
        assert!(
            msg.contains("rank 1 posted recv(src=0, tag=9), never matched"),
            "{msg}"
        );
    }

    /// Rank 0 sends `sent` bytes; rank 1 posts a receive for `posted`,
    /// after a delay when `late` (so the message waits as unexpected).
    fn mismatched_sizes(sent: u64, posted: u64, late: bool) -> Machine {
        let mut recv = vec![
            Instr::Irecv {
                src: 0,
                bytes: posted,
                tag: 3,
                epoch: 0,
            },
            Instr::WaitEpoch { epoch: 0 },
        ];
        if late {
            recv.insert(
                0,
                Instr::Delay {
                    d: SimDuration::from_ms(1),
                },
            );
        }
        let send = vec![
            Instr::Isend {
                dst: 1,
                bytes: sent,
                tag: 3,
                epoch: 0,
            },
            Instr::WaitEpoch { epoch: 0 },
        ];
        let progs = pad_idle(vec![send, recv], 4);
        Machine::new(
            two_node_map(),
            model(),
            ThreadMode::Single,
            Scope::Full,
            progs,
        )
    }

    #[test]
    fn size_mismatch_on_a_late_receive_is_named() {
        let msg = run_panic(mismatched_sizes(64, 32, true));
        assert!(
            msg.contains(
                "message size mismatch on recv(src=0, tag=3): sent 64 bytes, receive posted for 32"
            ),
            "{msg}"
        );
    }

    #[test]
    fn size_mismatch_on_delivery_is_named() {
        let msg = run_panic(mismatched_sizes(64, 128, false));
        assert!(
            msg.contains(
                "message size mismatch on recv(src=0, tag=3): sent 64 bytes, receive posted for 128"
            ),
            "{msg}"
        );
    }

    /// A finished run holds no match entries and no epoch records: every
    /// table is sized by the traffic in flight, so it drains with it. Both
    /// match paths are exercised — epoch 0's receives are posted before
    /// their messages, epoch 1's after.
    #[test]
    fn a_finished_run_leaves_no_match_state() {
        let map = two_node_map();
        let mut progs = Vec::new();
        for rank in 0..2usize {
            let peer = 1 - rank;
            let mut is = Vec::new();
            for epoch in 0..2u32 {
                if epoch == 1 {
                    is.push(Instr::Delay {
                        d: SimDuration::from_ms(rank as u64 + 1),
                    });
                }
                for k in 0..3u64 {
                    is.push(Instr::Irecv {
                        src: peer,
                        bytes: 256,
                        tag: u64::from(epoch) << 8 | k,
                        epoch,
                    });
                    is.push(Instr::Isend {
                        dst: peer,
                        bytes: 256,
                        tag: u64::from(epoch) << 8 | k,
                        epoch,
                    });
                }
                is.push(Instr::WaitEpoch { epoch });
            }
            progs.push(is);
        }
        let mut machine = Machine::new(
            map,
            model(),
            ThreadMode::Single,
            Scope::Full,
            pad_idle(progs, 4),
        );
        machine.simulate();
        for p in &machine.procs {
            assert!(p.posted.is_empty(), "rank {} posted", p.rank);
            assert!(p.unexpected.is_empty(), "rank {} unexpected", p.rank);
        }
        assert!(machine.threads.iter().all(|t| t.epochs.is_empty()));
        assert_eq!(machine.report().messages, 12);
    }

    #[test]
    #[should_panic(expected = "SINGLE")]
    fn single_mode_rejects_worker_comm() {
        let m = model();
        let p = Partition::new([1, 1, 1], ExecMode::Smp);
        let map = CartMap::new(p, [1, 1, 1]).unwrap();
        let progs: Vec<Box<dyn Program>> = vec![
            Box::new(VecProgram::new(vec![])),
            Box::new(VecProgram::new(vec![Instr::Isend {
                dst: 0,
                bytes: 1,
                tag: 0,
                epoch: 0,
            }])),
            Box::new(VecProgram::new(vec![])),
            Box::new(VecProgram::new(vec![])),
        ];
        Machine::new(map, m, ThreadMode::Single, Scope::Full, progs).run();
    }

    /// The unit-cell scope must time a symmetric neighbor exchange exactly
    /// like the full machine.
    #[test]
    fn unit_cell_matches_full_machine_on_symmetric_exchange() {
        let m = model();
        let p = Partition::new([8, 8, 8], ExecMode::Smp); // 512-node torus
        let map = CartMap::new(p, [8, 8, 8]).unwrap();
        let bytes = 30_000u64;

        let prog_for = |map: &CartMap, r: usize| -> Vec<Instr> {
            let mut is = Vec::new();
            for axis in Axis::ALL {
                for dir in Dir::ALL {
                    let nb = map.neighbor_rank(r, axis, dir);
                    let tag_s = (axis.index() * 2 + if dir == Dir::Plus { 1 } else { 0 }) as u64;
                    let tag_r = (axis.index() * 2 + if dir == Dir::Plus { 0 } else { 1 }) as u64;
                    is.push(Instr::Irecv {
                        src: nb,
                        bytes,
                        tag: tag_r,
                        epoch: 0,
                    });
                    is.push(Instr::Isend {
                        dst: nb,
                        bytes,
                        tag: tag_s,
                        epoch: 0,
                    });
                }
            }
            is.push(Instr::WaitEpoch { epoch: 0 });
            is.push(Instr::Compute {
                points: 100_000,
                rows: 1000,
                grids: 1,
            });
            is
        };

        let full_progs = pad_idle((0..map.ranks()).map(|r| prog_for(&map, r)).collect(), 4);
        let full = Machine::new(
            map.clone(),
            m.clone(),
            ThreadMode::Single,
            Scope::Full,
            full_progs,
        )
        .run();

        let cell_ranks = Machine::instantiated_ranks(&map, Scope::UnitCell { neighbor_hops: 1 });
        assert_eq!(cell_ranks, vec![0]);
        let cell_progs = pad_idle(vec![prog_for(&map, 0)], 4);
        let cell = Machine::new(
            map,
            m,
            ThreadMode::Single,
            Scope::UnitCell { neighbor_hops: 1 },
            cell_progs,
        )
        .run();

        assert_eq!(cell.makespan, full.makespan, "scopes must agree");
        assert_eq!(cell.bytes_per_node, full.bytes_per_node);
        assert!(cell.events < full.events / 100, "cell must be far cheaper");
    }

    /// Same equivalence in virtual mode, where the cell holds four ranks
    /// and some neighbors are intra-node.
    #[test]
    fn unit_cell_matches_full_machine_virtual_mode() {
        let m = model();
        let p = Partition::new([8, 8, 8], ExecMode::Virtual);
        let map = CartMap::best(p, [192, 192, 192]);
        let bytes = 10_000u64;

        let prog_for = |map: &CartMap, r: usize| -> Vec<Instr> {
            let mut is = Vec::new();
            for axis in Axis::ALL {
                for dir in Dir::ALL {
                    let nb = map.neighbor_rank(r, axis, dir);
                    let tag_s = (axis.index() * 2 + if dir == Dir::Plus { 1 } else { 0 }) as u64;
                    let tag_r = (axis.index() * 2 + if dir == Dir::Plus { 0 } else { 1 }) as u64;
                    is.push(Instr::Irecv {
                        src: nb,
                        bytes,
                        tag: tag_r,
                        epoch: 0,
                    });
                    is.push(Instr::Isend {
                        dst: nb,
                        bytes,
                        tag: tag_s,
                        epoch: 0,
                    });
                }
            }
            is.push(Instr::WaitEpoch { epoch: 0 });
            is
        };

        let full_progs: Vec<Box<dyn Program>> = (0..map.ranks())
            .map(|r| Box::new(VecProgram::new(prog_for(&map, r))) as Box<dyn Program>)
            .collect();
        let full = Machine::new(
            map.clone(),
            m.clone(),
            ThreadMode::Single,
            Scope::Full,
            full_progs,
        )
        .run();

        let cell_ranks = Machine::instantiated_ranks(&map, Scope::UnitCell { neighbor_hops: 1 });
        assert_eq!(cell_ranks.len(), 4);
        let cell_progs: Vec<Box<dyn Program>> = cell_ranks
            .iter()
            .map(|&r| Box::new(VecProgram::new(prog_for(&map, r))) as Box<dyn Program>)
            .collect();
        let cell = Machine::new(
            map,
            m,
            ThreadMode::Single,
            Scope::UnitCell { neighbor_hops: 1 },
            cell_progs,
        )
        .run();

        assert_eq!(cell.makespan, full.makespan);
        // Full reports the max per node; the cell reports its own node.
        assert_eq!(cell.bytes_per_node, full.bytes_per_node);
    }

    /// Conservation: every picosecond of a thread's life is attributed to
    /// exactly one span kind, so the per-thread span totals must equal the
    /// thread's finish time *exactly* (integer picoseconds, no tolerance).
    /// Exercises sends, receives, blocked and instant waits, compute,
    /// thread barriers, collectives, and the MULTIPLE-mode library lock.
    #[test]
    fn spans_tile_each_threads_lifetime_exactly() {
        let m = model();
        let p = Partition::new([1, 1, 2], ExecMode::Smp);
        let map = CartMap::new(p, [1, 1, 2]).unwrap();
        let mut progs: Vec<Box<dyn Program>> = Vec::new();
        for rank in 0..2usize {
            let peer = 1 - rank;
            for slot in 0..4usize {
                // Identical compute: all four threads hit the library lock
                // at the same instant, so MULTIPLE-mode queueing shows up.
                let mut is = vec![Instr::Compute {
                    points: 10_000,
                    rows: 100,
                    grids: 1,
                }];
                // Every thread communicates: MULTIPLE mode contends on the
                // per-process lock.
                is.push(Instr::Irecv {
                    src: peer,
                    bytes: 4096,
                    tag: slot as u64,
                    epoch: 0,
                });
                is.push(Instr::Isend {
                    dst: peer,
                    bytes: 4096,
                    tag: slot as u64,
                    epoch: 0,
                });
                is.push(Instr::WaitEpoch { epoch: 0 });
                is.push(Instr::WaitEpoch { epoch: 1 }); // instant: nothing open
                is.push(Instr::ThreadBarrier);
                if slot == 0 {
                    is.push(Instr::AllReduce { bytes: 64 });
                }
                progs.push(Box::new(VecProgram::new(is)));
            }
        }
        let r = Machine::new(map, m, ThreadMode::Multiple, Scope::Full, progs).run();
        assert_eq!(r.thread_phases.len(), 8);
        let mut merged = gpaw_des::SpanAgg::new();
        for tp in &r.thread_phases {
            assert_eq!(
                tp.spans.total(),
                tp.finish,
                "rank {} slot {}: spans must tile [0, finish]",
                tp.rank,
                tp.slot
            );
            merged.merge(&tp.spans);
        }
        // The machine-level aggregate is exactly the merge of the threads.
        for kind in gpaw_des::SpanKind::ALL {
            assert_eq!(r.phases.get(kind), merged.get(kind));
        }
        // The interesting kinds all appear.
        use gpaw_des::SpanKind::*;
        for kind in [Compute, Post, Wait, LibLock, ThreadBarrier, Collective] {
            assert!(r.phases.get(kind) > SimDuration::ZERO, "{kind:?} missing");
        }
    }
}
