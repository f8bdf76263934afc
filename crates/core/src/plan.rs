//! Compiled stripe-op plans and the per-array plan cache.
//!
//! A [`Plan`] is what the executor reads of a DAG: each step's kind, the
//! dependency count each step starts with, and its dependents in compressed
//! sparse rows. Each op slot keeps a plan and overwrites it at every
//! launch. The builders are pure functions of their inputs, and the ops of
//! one array fall into a few dozen shapes, so [`ArraySim`] compiles each
//! shape once into its [`PlanCache`] and copies it into the op's slot on
//! later launches (DESIGN §9.9).
//!
//! The cache key is everything a builder reads that can differ between the
//! user ops of one array: the purpose, the parity rotation (`stripe %
//! width`), each segment's `(member, len)`, the parity extent when the
//! builder sizes parity by it, the faulty set, and the reducer. The
//! configuration, the layout and the host never change; member bindings
//! change only when a rebuild swaps a spare in, which clears the cache.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap};
use std::hash::BuildHasherDefault;
use std::ops::Range;

use draid_block::ServerId;
use draid_net::NodeId;
use draid_sim::SimTime;

use crate::array::ArraySim;
use crate::builders::{self, parity_extent, Purpose};
use crate::config::{ArrayConfig, SystemKind};
use crate::dag::{Dag, StepKind};
use crate::layout::{Layout, StripeIo, WriteMode};

/// Plans kept per array before the cache starts over. The benchmark
/// workloads stay under 256; the cap bounds a workload whose I/O sizes or
/// alignments keep producing new shapes.
const PLAN_CACHE_CAP: usize = 1024;

/// A compiled DAG: packed steps, and `u16` step indices.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Plan {
    steps: Vec<PlanStep>,
    /// Each step's unmet dependency count (`n` words, which the executor
    /// counts down), then the dependents as compressed sparse rows: `n + 1`
    /// offsets and the dependents. Step `i`'s dependents are
    /// `dependents[off[i]..off[i + 1]]`, in ascending step order.
    words: Vec<u16>,
}

impl Plan {
    /// Overwrites this plan with `dag`'s, inverting its dependency lists
    /// into dependents.
    ///
    /// # Panics
    ///
    /// Panics if the DAG has `u16::MAX` steps or edges or more, or names a
    /// node or server id above `u16::MAX`.
    pub(crate) fn compile(&mut self, dag: &Dag) {
        let n = dag.len();
        let edges: usize = dag.iter().map(|(_, step)| step.deps.len()).sum();
        // Below `u16::MAX`, so the `as u16` casts below are lossless and no
        // unmet count reaches the executor's done marker.
        assert!(
            n.max(edges) < usize::from(u16::MAX),
            "DAG too large for a u16-indexed plan"
        );
        self.steps.clear();
        self.steps
            .extend(dag.iter().map(|(_, step)| PlanStep::new(step.kind)));
        self.words.clear();
        self.words.resize(2 * n + 1 + edges, 0);
        let (unmet, index) = self.words.split_at_mut(n);
        let (off, dependents) = index.split_at_mut(n + 1);
        for (id, step) in dag.iter() {
            unmet[id] = step.deps.len() as u16;
            for &d in step.deps {
                off[d + 1] += 1;
            }
        }
        for i in 1..=n {
            off[i] += off[i - 1];
        }
        let mut cursor: Vec<u16> = off[..n].to_vec();
        for (id, step) in dag.iter() {
            for &d in step.deps {
                dependents[cursor[d] as usize] = id as u16;
                cursor[d] += 1;
            }
        }
    }

    /// Overwrites this plan with a copy of `steps` and `words`.
    fn load(&mut self, steps: &[PlanStep], words: &[u16]) {
        self.steps.clear();
        self.steps.extend_from_slice(steps);
        self.words.clear();
        self.words.extend_from_slice(words);
    }

    /// Number of steps.
    pub(crate) fn len(&self) -> usize {
        self.steps.len()
    }

    /// What step `sid` does.
    pub(crate) fn kind(&self, sid: usize) -> StepKind {
        self.steps[sid].kind()
    }

    /// Each step's unmet dependency count: as compiled until the executor
    /// counts it down.
    pub(crate) fn unmet(&self) -> &[u16] {
        &self.words[..self.len()]
    }

    /// [`Plan::unmet`], to count down.
    pub(crate) fn unmet_mut(&mut self) -> &mut [u16] {
        let n = self.len();
        &mut self.words[..n]
    }

    /// Where step `sid`'s dependents lie, for [`Plan::dependent`].
    pub(crate) fn dependents(&self, sid: usize) -> Range<usize> {
        let (n, off) = (self.len(), &self.words[self.len()..]);
        let base = 2 * n + 1;
        base + usize::from(off[sid])..base + usize::from(off[sid + 1])
    }

    /// The dependent at position `k` of a [`Plan::dependents`] range.
    pub(crate) fn dependent(&self, k: usize) -> usize {
        usize::from(self.words[k])
    }
}

/// One step's kind in 16 bytes, where a [`StepKind`] takes 32: its node
/// and server ids narrowed to `u16`. The cache's memory is mostly steps,
/// and `ycsb_a_degraded`'s peak resident set measured 0.1 MB lower with
/// them packed (DESIGN §9.9).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PlanStep {
    /// Bytes moved or processed, or a duration in nanoseconds.
    arg: u64,
    /// The node or server the step runs on; a transfer's source.
    at: u16,
    /// A transfer's destination.
    to: u16,
    tag: StepTag,
}

const _: () = assert!(std::mem::size_of::<PlanStep>() == 16);

/// The variant of a [`PlanStep`]'s kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StepTag {
    Transfer,
    DriveRead,
    DriveWrite,
    Xor,
    GfMul,
    PerIo,
    CoreBusy,
    Delay,
    Join,
}

impl PlanStep {
    fn new(kind: StepKind) -> PlanStep {
        let id = |x: usize| u16::try_from(x).expect("node or server id too large for a plan");
        let (tag, at, to, arg) = match kind {
            StepKind::Transfer { from, to, bytes } => {
                (StepTag::Transfer, id(from.0), id(to.0), bytes)
            }
            StepKind::DriveRead { server, bytes } => (StepTag::DriveRead, id(server.0), 0, bytes),
            StepKind::DriveWrite { server, bytes } => (StepTag::DriveWrite, id(server.0), 0, bytes),
            StepKind::Xor { node, bytes } => (StepTag::Xor, id(node.0), 0, bytes),
            StepKind::GfMul { node, bytes } => (StepTag::GfMul, id(node.0), 0, bytes),
            StepKind::PerIo { node } => (StepTag::PerIo, id(node.0), 0, 0),
            StepKind::CoreBusy { node, duration } => {
                (StepTag::CoreBusy, id(node.0), 0, duration.as_nanos())
            }
            StepKind::Delay { duration } => (StepTag::Delay, 0, 0, duration.as_nanos()),
            StepKind::Join => (StepTag::Join, 0, 0, 0),
        };
        PlanStep { arg, at, to, tag }
    }

    fn kind(&self) -> StepKind {
        let (node, server) = (NodeId(self.at.into()), ServerId(self.at.into()));
        let bytes = self.arg;
        match self.tag {
            StepTag::Transfer => StepKind::Transfer {
                from: node,
                to: NodeId(self.to.into()),
                bytes,
            },
            StepTag::DriveRead => StepKind::DriveRead { server, bytes },
            StepTag::DriveWrite => StepKind::DriveWrite { server, bytes },
            StepTag::Xor => StepKind::Xor { node, bytes },
            StepTag::GfMul => StepKind::GfMul { node, bytes },
            StepTag::PerIo => StepKind::PerIo { node },
            StepTag::CoreBusy => StepKind::CoreBusy {
                node,
                duration: SimTime::from_nanos(self.arg),
            },
            StepTag::Delay => StepKind::Delay {
                duration: SimTime::from_nanos(self.arg),
            },
            StepTag::Join => StepKind::Join,
        }
    }
}

/// Steps per block of cached plans. A block is allocated once, at this
/// size or at its one plan's if that is larger, so caching a plan never
/// moves the plans before it. Of 32 to 2,048 steps, 512 gave
/// `ycsb_a_degraded` the lowest peak resident set (DESIGN §9.9).
const BLOCK_STEPS: usize = 512;

/// Words per block: a plan has about three words per step.
const BLOCK_WORDS: usize = 4 * BLOCK_STEPS;

/// Where a cached plan lies: its block, and its ranges in the block's
/// arrays.
#[derive(Clone, Debug)]
struct Span {
    block: usize,
    steps: Range<usize>,
    words: Range<usize>,
}

/// The compiled plans of one array, by key, stored end to end in blocks so
/// that a cache holds few allocations however many plans it has. Keys are
/// hashed with fixed SipHash keys: they are the simulator's own, and a
/// fresh array draws no random state.
#[derive(Default)]
pub(crate) struct PlanCache {
    spans: HashMap<Box<[u64]>, Span, BuildHasherDefault<DefaultHasher>>,
    blocks: Vec<Plan>,
    /// Reused buffer for the key of the op being launched, so a hit allocates
    /// nothing.
    key: Vec<u64>,
}

impl PlanCache {
    /// Drops every plan: called when a member's node or server changes.
    /// Ops in flight run on their slots' copies.
    pub(crate) fn clear(&mut self) {
        self.spans.clear();
        self.blocks.clear();
    }

    /// Caches a copy of `plan` under the current key.
    fn insert(&mut self, plan: &Plan) {
        if self.spans.len() >= PLAN_CACHE_CAP {
            self.clear();
        }
        let fits = |b: &Plan| {
            b.steps.len() + plan.steps.len() <= b.steps.capacity()
                && b.words.len() + plan.words.len() <= b.words.capacity()
        };
        if !self.blocks.last().is_some_and(fits) {
            self.blocks.push(Plan {
                steps: Vec::with_capacity(BLOCK_STEPS.max(plan.steps.len())),
                words: Vec::with_capacity(BLOCK_WORDS.max(plan.words.len())),
            });
        }
        let block = self.blocks.len() - 1;
        let b = &mut self.blocks[block];
        let span = Span {
            block,
            steps: b.steps.len()..b.steps.len() + plan.steps.len(),
            words: b.words.len()..b.words.len() + plan.words.len(),
        };
        b.steps.extend_from_slice(&plan.steps);
        b.words.extend_from_slice(&plan.words);
        self.spans.insert(self.key.as_slice().into(), span);
    }
}

/// Writes the cache key of one user op into `key`.
///
/// One word each for the purpose, the rotation, the reducer and the parity
/// extent; then the faulty count and each faulty member, and for each
/// segment its member and its length. The reducer and the extent are
/// keyed only where a builder reads them (dRAID degraded reads, healthy
/// read-modify-writes) and are 0 elsewhere, so ops that differ only in an
/// unread value share a plan.
fn encode_key(
    key: &mut Vec<u64>,
    cfg: &ArrayConfig,
    layout: &Layout,
    faulty: &BTreeSet<usize>,
    purpose: Purpose,
    io: &StripeIo,
    reducer: Option<usize>,
) {
    let purpose_code: u64 = match purpose {
        Purpose::Read { degraded } => u64::from(degraded),
        Purpose::Write { mode, degraded } => {
            let mode = match mode {
                WriteMode::FullStripe => 0,
                WriteMode::ReadModifyWrite => 1,
                WriteMode::ReconstructWrite => 2,
            };
            2 + 2 * mode + u64::from(degraded)
        }
    };
    let reducer = match purpose {
        Purpose::Read { degraded: true } if cfg.system == SystemKind::Draid => {
            reducer.map_or(0, |r| r as u64 + 1)
        }
        _ => 0,
    };
    let extent = match purpose {
        Purpose::Write {
            mode: WriteMode::ReadModifyWrite,
            degraded: false,
        } => parity_extent(io),
        _ => 0,
    };
    key.clear();
    let rotation = io.stripe % layout.width() as u64;
    key.extend([purpose_code, rotation, reducer, extent]);
    key.push(faulty.len() as u64);
    key.extend(faulty.iter().map(|&m| m as u64));
    for seg in io.segments.iter() {
        key.extend([seg.member as u64, seg.len]);
    }
}

impl ArraySim {
    /// Writes the compiled plan of a user op into `plan`, from the cache
    /// when its shape was seen before. With invariants on, every hit is
    /// checked against a fresh build.
    pub(crate) fn plan_into(
        &mut self,
        plan: &mut Plan,
        purpose: Purpose,
        io: &StripeIo,
        reducer: Option<usize>,
    ) {
        let build = |sim: &ArraySim| builders::build(&sim.build_ctx(reducer), purpose, io);
        let cache = &mut self.plans;
        encode_key(
            &mut cache.key,
            &self.cfg,
            &self.layout,
            &self.faulty,
            purpose,
            io,
            reducer,
        );
        if let Some(span) = cache.spans.get(&cache.key[..]) {
            let block = &cache.blocks[span.block];
            plan.load(
                &block.steps[span.steps.clone()],
                &block.words[span.words.clone()],
            );
            if draid_sim::invariants_enabled() {
                let mut fresh = Plan::default();
                fresh.compile(&build(self));
                draid_sim::draid_invariant!(
                    fresh == *plan,
                    "cached plan differs from a fresh build: {purpose:?} on stripe {}",
                    io.stripe
                );
            }
            return;
        }
        plan.compile(&build(self));
        self.plans.insert(plan);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeSet, HashMap};

    use draid_block::{Cluster, ServerId};
    use draid_net::NodeId;
    use draid_sim::SimTime;

    use super::{encode_key, Plan, PlanStep};
    use crate::array::ArraySim;
    use crate::builders::{self, Purpose};
    use crate::config::{ArrayConfig, RaidLevel, SystemKind};
    use crate::dag::{Dag, StepKind};
    use crate::io::IoKind;
    use crate::layout::{Segment, StripeIo};

    #[test]
    fn compiled_dependents_invert_the_deps_in_step_order() {
        // 0 -> {1, 2, 4}, 1 -> 3, 2 -> 3, {0, 3} -> 4; step 5 is a second
        // root with no dependents.
        let mut dag = Dag::new();
        dag.add(StepKind::Join, &[]);
        dag.add(StepKind::Join, &[0]);
        dag.add(StepKind::Join, &[0]);
        dag.add(StepKind::Join, &[2, 1]);
        dag.add(StepKind::Join, &[3, 0]);
        dag.add(StepKind::Join, &[]);
        let mut plan = Plan::default();
        plan.compile(&dag);
        let dependents =
            |sid| -> Vec<usize> { plan.dependents(sid).map(|k| plan.dependent(k)).collect() };
        assert_eq!(plan.len(), 6);
        assert_eq!(dependents(0), [1, 2, 4]);
        assert_eq!(dependents(1), [3]);
        assert_eq!(dependents(2), [3]);
        assert_eq!(dependents(3), [4]);
        assert!(dependents(4).is_empty());
        assert!(dependents(5).is_empty());
        assert_eq!(plan.unmet(), [0, 1, 1, 2, 2, 0]);
    }

    #[test]
    fn compiling_overwrites_the_previous_plan() {
        let mut big = Dag::new();
        big.add(StepKind::Join, &[]);
        big.add(StepKind::Join, &[0]);
        big.add(StepKind::Join, &[0, 1]);
        let mut small = Dag::new();
        small.add(StepKind::PerIo { node: NodeId(1) }, &[]);
        let (mut reused, mut fresh) = (Plan::default(), Plan::default());
        reused.compile(&big);
        reused.compile(&small);
        fresh.compile(&small);
        assert_eq!(reused, fresh);
        assert_eq!(reused.unmet(), [0]);
        assert!(reused.dependents(0).is_empty());
    }

    #[test]
    fn every_step_kind_survives_packing() {
        let (a, b) = (NodeId(3), NodeId(65_535));
        let t = SimTime::from_nanos(u64::MAX);
        for kind in [
            StepKind::Transfer {
                from: a,
                to: b,
                bytes: u64::MAX,
            },
            StepKind::DriveRead {
                server: ServerId(7),
                bytes: 4096,
            },
            StepKind::DriveWrite {
                server: ServerId(0),
                bytes: 1,
            },
            StepKind::Xor { node: b, bytes: 9 },
            StepKind::GfMul { node: a, bytes: 10 },
            StepKind::PerIo { node: a },
            StepKind::CoreBusy {
                node: b,
                duration: t,
            },
            StepKind::Delay { duration: t },
            StepKind::Join,
        ] {
            assert_eq!(PlanStep::new(kind).kind(), kind);
        }
    }

    const KIB: u64 = 1024;

    /// The healthy set, every single faulty member, and for RAID-6 every
    /// faulty pair.
    fn faulty_sets(width: usize, level: RaidLevel) -> Vec<BTreeSet<usize>> {
        let mut sets = vec![BTreeSet::new()];
        for a in 0..width {
            sets.push(BTreeSet::from([a]));
            if level == RaidLevel::Raid6 {
                sets.extend((a + 1..width).map(|b| BTreeSet::from([a, b])));
            }
        }
        sets
    }

    /// Stripe I/Os of `stripe`: 4 KiB inside each data chunk, 8 KiB
    /// straddling the first two chunks, the whole stripe, and the
    /// straddle's two 4 KiB segments moved to offset 8 KiB. No user I/O
    /// maps to that last one, but it differs from the straddle only in its
    /// parity extent.
    fn stripe_ios(array: &ArraySim, stripe: u64) -> Vec<StripeIo> {
        let l = array.layout;
        let base = stripe * l.stripe_data_bytes();
        let chunk = l.chunk_size();
        let mut extents: Vec<(u64, u64)> = (0..l.data_chunks() as u64)
            .map(|k| (k * chunk + 8 * KIB, 4 * KIB))
            .collect();
        extents.push((chunk - 4 * KIB, 8 * KIB));
        extents.push((0, l.stripe_data_bytes()));
        let mut ios: Vec<StripeIo> = extents
            .into_iter()
            .flat_map(|(off, len)| l.map(base + off, len))
            .collect();
        let straddle = &ios[ios.len() - 2];
        let moved = straddle
            .segments
            .iter()
            .map(|&s| Segment {
                offset: 8 * KIB,
                ..s
            })
            .collect();
        ios.push(StripeIo::new(stripe, 0, moved));
        ios
    }

    /// Every purpose `launch_op` can pick for `io` now, each with the
    /// reducers it may draw: every eligible member for a degraded read.
    fn launches(array: &ArraySim, io: &StripeIo) -> Vec<(Purpose, Option<usize>)> {
        let l = array.layout;
        let mut out = Vec::new();
        match array.purpose_of(io, IoKind::Read, false) {
            purpose @ Purpose::Read { degraded: true } => {
                let eligible = (0..l.data_chunks())
                    .map(|k| l.data_member(io.stripe, k))
                    .chain([l.p_member(io.stripe)])
                    .filter(|m| !array.faulty.contains(m));
                out.extend(eligible.map(|r| (purpose, Some(r))));
            }
            purpose => out.push((purpose, None)),
        }
        for rcw in [false, true] {
            out.push((array.purpose_of(io, IoKind::Write, rcw), None));
        }
        out
    }

    /// The cache key is sound: across RAID-5/6 at widths 4-8 on all three
    /// systems, every rotation, every faulty member or pair and every
    /// reducer, ops that share a key build the same plan, and the cache
    /// serves each op exactly what a fresh build gives (with invariants on,
    /// `plan_into` also rebuilds on every hit and compares).
    #[test]
    fn every_cache_hit_matches_a_fresh_build() {
        for system in [SystemKind::Draid, SystemKind::SpdkRaid, SystemKind::LinuxMd] {
            for level in [RaidLevel::Raid5, RaidLevel::Raid6] {
                for width in 4..=8 {
                    let mut cfg = ArrayConfig::paper_default(system);
                    cfg.level = level;
                    cfg.width = width;
                    cfg.chunk_size = 16 * KIB;
                    let mut array =
                        ArraySim::new(Cluster::homogeneous(width), cfg).expect("valid config");
                    let mut by_key: HashMap<Vec<u64>, Plan> = HashMap::new();
                    let (mut ops, mut key) = (0usize, Vec::new());
                    for faulty in faulty_sets(width, level) {
                        array.faulty = faulty;
                        // Every rotation, and rotation 0 again on another
                        // stripe: stripes 0 and `width` share their plans.
                        for stripe in 0..=width as u64 {
                            for io in stripe_ios(&array, stripe) {
                                for (purpose, reducer) in launches(&array, &io) {
                                    let what = |array: &ArraySim| {
                                        format!(
                                            "{system:?} {level:?} x{width} faulty {:?} \
                                             {purpose:?} reducer {reducer:?} on {io:?}",
                                            array.faulty
                                        )
                                    };
                                    let mut cached = Plan::default();
                                    array.plan_into(&mut cached, purpose, &io, reducer);
                                    let mut fresh = Plan::default();
                                    fresh.compile(&builders::build(
                                        &array.build_ctx(reducer),
                                        purpose,
                                        &io,
                                    ));
                                    assert!(cached == fresh, "stale plan: {}", what(&array));
                                    encode_key(
                                        &mut key,
                                        &array.cfg,
                                        &array.layout,
                                        &array.faulty,
                                        purpose,
                                        &io,
                                        reducer,
                                    );
                                    let first = by_key.entry(key.clone()).or_insert(cached);
                                    assert!(*first == fresh, "key collision: {}", what(&array));
                                    ops += 1;
                                }
                            }
                        }
                    }
                    assert!(
                        by_key.len() < ops,
                        "{system:?} {level:?} x{width}: no two ops shared a key"
                    );
                }
            }
        }
    }
}
