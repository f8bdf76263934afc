//! Task DAGs: every RAID operation compiles to a dependency graph of typed
//! resource steps, which the executor schedules on the simulation.
//!
//! The DAG is where the paper's parallelism arguments become explicit
//! structure: dRAID's §5.3 pipeline is "drive-write and partial-parity
//! forwarding both depend only on the fetch/read, not on each other"; the
//! §5.2 non-blocking multi-stage write is "reduction steps do not depend on
//! the Parity command's arrival"; the serial NVMe-oF baseline is a chain.

use draid_block::ServerId;
use draid_net::NodeId;
use draid_sim::SimTime;

/// One schedulable step of a RAID operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepKind {
    /// Move `bytes` from one node to another over the fabric.
    Transfer {
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// Payload size.
        bytes: u64,
    },
    /// Read `bytes` from a server's drive.
    DriveRead {
        /// The drive's server.
        server: ServerId,
        /// Read size.
        bytes: u64,
    },
    /// Write `bytes` to a server's drive.
    DriveWrite {
        /// The drive's server.
        server: ServerId,
        /// Write size.
        bytes: u64,
    },
    /// XOR pass over `bytes` on a node's core (parity generation/reduction).
    Xor {
        /// The computing node.
        node: NodeId,
        /// Bytes processed.
        bytes: u64,
    },
    /// GF(256) multiply-accumulate pass (RAID-6 Q terms).
    GfMul {
        /// The computing node.
        node: NodeId,
        /// Bytes processed.
        bytes: u64,
    },
    /// Fixed per-I/O software cost on a node's core.
    PerIo {
        /// The node paying the cost.
        node: NodeId,
    },
    /// Fixed busy time on a node's core (e.g. Linux stripe-cache page
    /// handling).
    CoreBusy {
        /// The node paying the cost.
        node: NodeId,
        /// Busy duration.
        duration: SimTime,
    },
    /// Pure delay consuming no resource.
    Delay {
        /// Wait duration.
        duration: SimTime,
    },
    /// Zero-cost synchronization point.
    Join,
}

/// A step plus its dependencies (indices into the owning [`Dag`]), borrowed
/// from the DAG's flat arrays.
#[derive(Clone, Copy, Debug)]
pub struct Step<'a> {
    /// What the step does.
    pub kind: StepKind,
    /// Steps that must complete first.
    pub deps: &'a [usize],
}

/// A dependency DAG of steps. Indices are creation-ordered, and dependencies
/// may only point backwards, which makes cycles unrepresentable.
///
/// Stored as compressed sparse rows: one flat array holds every step's
/// dependencies back to back, and `dep_end[i]` is where step `i`'s run ends
/// (it starts where step `i - 1`'s ends), so a graph costs three
/// allocations however many steps it has.
#[derive(Clone, Debug, Default)]
pub struct Dag {
    kinds: Vec<StepKind>,
    deps: Vec<usize>,
    dep_end: Vec<usize>,
}

impl Dag {
    /// Creates an empty DAG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty DAG with room for `steps` steps and as many
    /// dependency edges before it reallocates.
    pub fn with_capacity(steps: usize) -> Self {
        Dag {
            kinds: Vec::with_capacity(steps),
            deps: Vec::with_capacity(steps),
            dep_end: Vec::with_capacity(steps),
        }
    }

    /// Adds a step depending on earlier steps; returns its index.
    ///
    /// # Panics
    ///
    /// Panics if any dependency index is not an earlier step.
    pub fn add(&mut self, kind: StepKind, deps: &[usize]) -> usize {
        let id = self.kinds.len();
        for &d in deps {
            assert!(d < id, "dependency {d} must precede step {id}");
        }
        self.kinds.push(kind);
        self.deps.extend_from_slice(deps);
        self.dep_end.push(self.deps.len());
        id
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the DAG has no steps.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Immutable step access.
    pub fn step(&self, id: usize) -> Step<'_> {
        let start = if id == 0 { 0 } else { self.dep_end[id - 1] };
        Step {
            kind: self.kinds[id],
            deps: &self.deps[start..self.dep_end[id]],
        }
    }

    /// Iterates over steps in index order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Step<'_>)> {
        (0..self.len()).map(|id| (id, self.step(id)))
    }

    /// Total payload bytes moved by `Transfer` steps whose source is `node`
    /// (DAG-level traffic accounting used in tests).
    pub fn bytes_sent_by(&self, node: NodeId) -> u64 {
        self.kinds
            .iter()
            .filter_map(|k| match *k {
                StepKind::Transfer { from, bytes, .. } if from == node => Some(bytes),
                _ => None,
            })
            .sum()
    }

    /// Total payload bytes received by `node` via `Transfer` steps.
    pub fn bytes_received_by(&self, node: NodeId) -> u64 {
        self.kinds
            .iter()
            .filter_map(|k| match *k {
                StepKind::Transfer { to, bytes, .. } if to == node => Some(bytes),
                _ => None,
            })
            .sum()
    }

    /// Counts steps matching a predicate (test helper).
    pub fn count_steps(&self, pred: impl Fn(&StepKind) -> bool) -> usize {
        self.kinds.iter().filter(|k| pred(k)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_queries() {
        let mut dag = Dag::new();
        let host = NodeId(0);
        let target = NodeId(1);
        let a = dag.add(
            StepKind::Transfer {
                from: host,
                to: target,
                bytes: 1024,
            },
            &[],
        );
        let b = dag.add(
            StepKind::DriveRead {
                server: ServerId(0),
                bytes: 1024,
            },
            &[a],
        );
        let c = dag.add(
            StepKind::Transfer {
                from: target,
                to: host,
                bytes: 1024,
            },
            &[b],
        );
        assert_eq!(dag.len(), 3);
        assert_eq!(dag.step(c).deps, [b]);
        assert!(dag.step(a).deps.is_empty());
        assert_eq!(dag.bytes_sent_by(host), 1024);
        assert_eq!(dag.bytes_received_by(host), 1024);
        assert_eq!(
            dag.count_steps(|k| matches!(k, StepKind::DriveRead { .. })),
            1
        );
    }

    #[test]
    #[should_panic(expected = "must precede")]
    fn forward_dependencies_rejected() {
        let mut dag = Dag::new();
        dag.add(StepKind::Join, &[0]);
    }
}
