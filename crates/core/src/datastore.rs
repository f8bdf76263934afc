//! The real-bytes data plane: chunk contents, parity maintenance, and
//! degraded reconstruction.
//!
//! In [`DataMode::Full`] the simulation doesn't just account for time — every
//! write stores real bytes and real parity (computed with `draid-ec` using
//! the mode-appropriate path: delta XOR for read-modify-write, encode
//! otherwise), and every read returns bytes, reconstructing through the
//! Reed-Solomon decoder when members are lost. Integration tests assert
//! end-to-end data integrity across failures, which validates the layout,
//! write-mode, and recovery logic the timing model alone could not.
//!
//! Parity is column-wise: byte `o` of P and Q depends only on byte `o` of
//! each data chunk. So every operation works on the byte window it touches
//! and updates the stored chunks in place — a write re-derives parity only
//! over `[min segment offset, max segment end)`, a degraded read decodes
//! only the bytes it returns. A segment-less write (parity resync) has the
//! whole chunk as its window, which is what lets repair heal any parity
//! byte.
//!
//! [`DataMode::Full`]: crate::DataMode::Full

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::OnceLock;

use draid_ec::{Raid5, Raid6, ReedSolomon};

use crate::layout::{Layout, StripeIo, WriteMode};

/// Per-array chunk contents keyed by `(stripe, member)`.
///
/// Unwritten chunks read as zeros, like a freshly created (and implicitly
/// synchronized) array. Chunks live in a `BTreeMap` (and failure sets are
/// `BTreeSet`s) so every iteration — fsck sweeps, rebuild scans — observes a
/// deterministic order; hash-iteration order leaking into simulation results
/// would break replayability.
#[derive(Debug)]
pub struct ChunkStore {
    layout: Layout,
    codec: ReedSolomon,
    chunks: BTreeMap<(u64, usize), Vec<u8>>,
    /// The contents of every unwritten chunk, borrowed instead of
    /// materialized; allocated on first use.
    zeros: OnceLock<Vec<u8>>,
}

impl ChunkStore {
    /// Creates an empty store for the given geometry.
    pub fn new(layout: Layout) -> Self {
        ChunkStore {
            layout,
            codec: ReedSolomon::new(layout.data_chunks(), layout.level().parity_count()),
            chunks: BTreeMap::new(),
            zeros: OnceLock::new(),
        }
    }

    /// Number of materialized chunks (test/diagnostic aid).
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    fn chunk_len(&self) -> usize {
        self.layout.chunk_size() as usize
    }

    /// The chunk `member` stores for `stripe` (zeros if never written).
    fn chunk(&self, stripe: u64, member: usize) -> &[u8] {
        match self.chunks.get(&(stripe, member)) {
            Some(chunk) => chunk,
            None => self.zeros.get_or_init(|| vec![0; self.chunk_len()]),
        }
    }

    /// The stored chunk, materialized as zeros on first write.
    fn chunk_mut(&mut self, stripe: u64, member: usize) -> &mut [u8] {
        let len = self.chunk_len();
        self.chunks
            .entry((stripe, member))
            .or_insert_with(|| vec![0; len])
    }

    /// Moves a chunk out of the store (zeros if never written) so it can be
    /// updated while the other chunks of its stripe are borrowed.
    fn take_chunk(&mut self, stripe: u64, member: usize) -> Vec<u8> {
        let len = self.chunk_len();
        self.chunks
            .remove(&(stripe, member))
            .unwrap_or_else(|| vec![0; len])
    }

    /// Discards every chunk stored on `member` — the drive is gone (§5.4
    /// prolonged failure). Parity on the surviving members still encodes the
    /// lost contents.
    pub fn drop_member(&mut self, member: usize) {
        self.chunks.retain(|&(_, m), _| m != member);
    }

    /// Decodes window `win` of data chunk `k` into `out` from the window of
    /// every member not in `failed`.
    ///
    /// # Panics
    ///
    /// Panics if more members failed than the level tolerates.
    fn decode_into(
        &self,
        stripe: u64,
        k: usize,
        win: Range<usize>,
        failed: &BTreeSet<usize>,
        out: &mut [u8],
    ) {
        let l = &self.layout;
        let shards: Vec<Option<&[u8]>> = (0..l.data_chunks())
            .map(|i| l.data_member(stripe, i))
            .chain(std::iter::once(l.p_member(stripe)))
            .chain(l.q_member(stripe))
            .map(|m| (!failed.contains(&m)).then(|| &self.chunk(stripe, m)[win.clone()]))
            .collect();
        self.codec
            .decode_data_into(&shards, k, out)
            .expect("failures exceed the RAID level's tolerance");
    }

    /// Decodes window `win` of every data chunk whose member is in `failed`,
    /// as `(data index, bytes)`.
    fn decode_lost(
        &self,
        stripe: u64,
        win: Range<usize>,
        failed: &BTreeSet<usize>,
    ) -> Vec<(usize, Vec<u8>)> {
        (0..self.layout.data_chunks())
            .filter(|&k| failed.contains(&self.layout.data_member(stripe, k)))
            .map(|k| {
                let mut buf = vec![0; win.len()];
                self.decode_into(stripe, k, win.clone(), failed, &mut buf);
                (k, buf)
            })
            .collect()
    }

    /// Window `win` of every data chunk in index order: stored bytes, or the
    /// `lost` buffer of a data index that has one.
    fn data_window<'a>(
        &'a self,
        stripe: u64,
        win: Range<usize>,
        lost: &'a [(usize, Vec<u8>)],
    ) -> Vec<&'a [u8]> {
        (0..self.layout.data_chunks())
            .map(|k| match lost.iter().find(|(i, _)| *i == k) {
                Some((_, buf)) => &buf[..],
                None => &self.chunk(stripe, self.layout.data_member(stripe, k))[win.clone()],
            })
            .collect()
    }

    /// Returns the bytes a read of `io` must produce, reconstructing lost
    /// chunks as needed (the §6.1 degraded read, data-plane side).
    pub fn read(&self, io: &StripeIo, failed: &BTreeSet<usize>) -> Vec<u8> {
        let mut out = Vec::with_capacity(io.bytes() as usize);
        self.read_into(&mut out, io, failed);
        out
    }

    /// Gathers the bytes a read of `io` must produce into a caller-provided
    /// buffer (cleared first) — the zero-copy form of [`ChunkStore::read`].
    /// Segments on healthy members are copied from the stored chunks; a
    /// segment on a failed member is decoded, over its own bytes only,
    /// straight into `out`.
    pub fn read_into(&self, out: &mut Vec<u8>, io: &StripeIo, failed: &BTreeSet<usize>) {
        out.clear();
        out.reserve(io.bytes() as usize);
        for seg in io.segments.iter() {
            let win = seg.offset as usize..(seg.offset + seg.len) as usize;
            if failed.contains(&seg.member) {
                let at = out.len();
                out.resize(at + win.len(), 0);
                self.decode_into(io.stripe, seg.data_index, win, failed, &mut out[at..]);
            } else {
                out.extend_from_slice(&self.chunk(io.stripe, seg.member)[win]);
            }
        }
    }

    /// Applies a stripe write: updates data chunks with `payload` and brings
    /// parity up to date using the mode's arithmetic path. Chunks on `failed`
    /// members are not stored (the drive is dead) but parity still encodes
    /// their intended contents, so later degraded reads return the new data.
    ///
    /// Read-modify-write without failures applies per-segment deltas
    /// (`P' = P ⊕ D ⊕ D'`, and the `g^i`-scaled Q deltas); everything else
    /// re-encodes parity over the write's window.
    ///
    /// # Panics
    ///
    /// Panics if `payload` length differs from the stripe I/O size, or more
    /// members failed than tolerated.
    pub fn apply_write(
        &mut self,
        io: &StripeIo,
        payload: &[u8],
        mode: WriteMode,
        failed: &BTreeSet<usize>,
    ) {
        assert_eq!(payload.len() as u64, io.bytes(), "payload size mismatch");
        if mode == WriteMode::ReadModifyWrite && failed.is_empty() {
            self.apply_delta(io, payload);
        } else {
            self.apply_encode(io, payload, failed);
        }
    }

    /// The read-modify-write path: each segment XORs `old ⊕ new` into the
    /// same bytes of P and adds `g^i·(old ⊕ new)` to those of Q.
    fn apply_delta(&mut self, io: &StripeIo, payload: &[u8]) {
        let stripe = io.stripe;
        let pm = self.layout.p_member(stripe);
        let qm = self.layout.q_member(stripe);
        let mut p = self.take_chunk(stripe, pm);
        let mut q = qm.map(|m| self.take_chunk(stripe, m));
        let mut cursor = 0usize;
        for seg in io.segments.iter() {
            let win = seg.offset as usize..(seg.offset + seg.len) as usize;
            let new = &payload[cursor..cursor + win.len()];
            cursor += win.len();
            let old = &self.chunk(stripe, seg.member)[win.clone()];
            draid_ec::xor_into(&mut p[win.clone()], old);
            draid_ec::xor_into(&mut p[win.clone()], new);
            if let Some(q) = &mut q {
                Raid6::apply_q_delta(&mut q[win.clone()], seg.data_index, old, new);
            }
            self.chunk_mut(stripe, seg.member)[win].copy_from_slice(new);
        }
        self.chunks.insert((stripe, pm), p);
        if let (Some(m), Some(q)) = (qm, q) {
            self.chunks.insert((stripe, m), q);
        }
    }

    /// The encode path (reconstruct-write, full-stripe, or any write with a
    /// failed member): lost members' bytes are decoded over the window
    /// before anything is overwritten, the new bytes land, and P/Q are
    /// re-encoded over the window from the new data.
    fn apply_encode(&mut self, io: &StripeIo, payload: &[u8], failed: &BTreeSet<usize>) {
        let stripe = io.stripe;
        let win = match (
            io.segments.iter().map(|s| s.offset).min(),
            io.segments.iter().map(|s| s.offset + s.len).max(),
        ) {
            (Some(lo), Some(hi)) => lo as usize..hi as usize,
            _ => 0..self.chunk_len(),
        };
        let mut lost = self.decode_lost(stripe, win.clone(), failed);
        let mut cursor = 0usize;
        for seg in io.segments.iter() {
            let range = seg.offset as usize..(seg.offset + seg.len) as usize;
            let new = &payload[cursor..cursor + range.len()];
            cursor += range.len();
            match lost.iter_mut().find(|(k, _)| *k == seg.data_index) {
                Some((_, buf)) => {
                    buf[range.start - win.start..range.end - win.start].copy_from_slice(new);
                }
                None => self.chunk_mut(stripe, seg.member)[range].copy_from_slice(new),
            }
        }

        let pm = self.layout.p_member(stripe);
        let qm = self.layout.q_member(stripe).filter(|m| !failed.contains(m));
        let mut p = (!failed.contains(&pm)).then(|| self.take_chunk(stripe, pm));
        let mut q = qm.map(|m| self.take_chunk(stripe, m));
        let data = self.data_window(stripe, win.clone(), &lost);
        if let Some(p) = &mut p {
            Raid5::encode_into(&mut p[win.clone()], &data);
        }
        if let Some(q) = &mut q {
            draid_ec::kernels::raid6_q_into(&mut q[win], &data);
        }
        if let Some(p) = p {
            self.chunks.insert((stripe, pm), p);
        }
        if let (Some(m), Some(q)) = (qm, q) {
            self.chunks.insert((stripe, m), q);
        }
    }

    /// Reconstructs the chunk `member` held in `stripe` from the survivors
    /// and stores it — the data-plane side of a hot-spare rebuild. A data
    /// chunk is decoded; a parity chunk is re-encoded from the data.
    ///
    /// # Panics
    ///
    /// Panics if more members than tolerated are in `failed` (excluding
    /// `member` itself, which is the one being restored).
    pub fn rebuild_chunk(&mut self, stripe: u64, member: usize, failed: &BTreeSet<usize>) {
        let mut lost_members = failed.clone();
        lost_members.insert(member);
        let whole = 0..self.chunk_len();
        let mut chunk = vec![0; whole.len()];
        if let Some(k) = self.layout.data_index_of(stripe, member) {
            self.decode_into(stripe, k, whole, &lost_members, &mut chunk);
        } else {
            let lost = self.decode_lost(stripe, whole.clone(), &lost_members);
            let data = self.data_window(stripe, whole, &lost);
            if member == self.layout.p_member(stripe) {
                Raid5::encode_into(&mut chunk, &data);
            } else {
                draid_ec::kernels::raid6_q_into(&mut chunk, &data);
            }
        }
        self.chunks.insert((stripe, member), chunk);
    }

    /// Fault injection for tests: flips one byte of a stored chunk (e.g. a
    /// parity chunk left torn by a crashed write).
    ///
    /// # Panics
    ///
    /// Panics if the chunk was never written.
    pub fn corrupt_chunk(&mut self, stripe: u64, member: usize, byte: usize) {
        let chunk = self
            .chunks
            .get_mut(&(stripe, member))
            .expect("cannot corrupt an unwritten chunk");
        let idx = byte % chunk.len();
        chunk[idx] ^= 0xFF;
    }

    /// Array-wide consistency check ("fsck"): verifies every materialized
    /// stripe's parity against its data. Returns the inconsistent stripe
    /// indices (empty = clean). Only meaningful on a non-degraded array —
    /// faulty members' chunks are absent by design.
    pub fn verify_all(&self) -> Vec<u64> {
        // BTreeMap keys are already sorted by (stripe, member).
        let mut stripes: Vec<u64> = self.chunks.keys().map(|&(s, _)| s).collect();
        stripes.dedup();
        stripes
            .into_iter()
            .filter(|&s| !self.verify_stripe(s))
            .collect()
    }

    /// Verifies that a stripe's stored parity matches its stored data
    /// (healthy members only; returns `true` for never-written stripes).
    pub fn verify_stripe(&self, stripe: u64) -> bool {
        let data = self.data_window(stripe, 0..self.chunk_len(), &[]);
        let p = self.chunk(stripe, self.layout.p_member(stripe));
        match self.layout.q_member(stripe) {
            None => Raid5::verify(&data, p),
            Some(qm) => Raid6::verify(&data, p, self.chunk(stripe, qm)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ArrayConfig, RaidLevel, SystemKind};
    use crate::layout::Segment;
    use draid_sim::DetRng;

    /// The whole-chunk data plane the windowed store replaced, kept as the
    /// differential oracle: every operation clones whole chunks, decodes
    /// whole stripes and re-encodes whole parity chunks.
    struct WholeChunkOracle {
        layout: Layout,
        codec: ReedSolomon,
        chunks: BTreeMap<(u64, usize), Vec<u8>>,
    }

    impl WholeChunkOracle {
        fn new(layout: Layout) -> Self {
            WholeChunkOracle {
                layout,
                codec: ReedSolomon::new(layout.data_chunks(), layout.level().parity_count()),
                chunks: BTreeMap::new(),
            }
        }

        fn chunk(&self, stripe: u64, member: usize) -> Vec<u8> {
            self.chunks
                .get(&(stripe, member))
                .cloned()
                .unwrap_or_else(|| vec![0; self.layout.chunk_size() as usize])
        }

        fn drop_member(&mut self, member: usize) {
            self.chunks.retain(|&(_, m), _| m != member);
        }

        fn data_chunks(&self, stripe: u64, failed: &BTreeSet<usize>) -> Vec<Vec<u8>> {
            let l = &self.layout;
            let mut shards: Vec<Option<Vec<u8>>> = (0..l.data_chunks())
                .map(|k| l.data_member(stripe, k))
                .chain(std::iter::once(l.p_member(stripe)))
                .chain(l.q_member(stripe))
                .map(|m| (!failed.contains(&m)).then(|| self.chunk(stripe, m)))
                .collect();
            self.codec
                .reconstruct(&mut shards)
                .expect("within tolerance");
            shards
                .into_iter()
                .take(l.data_chunks())
                .map(|s| s.expect("reconstructed"))
                .collect()
        }

        fn read(&self, io: &StripeIo, failed: &BTreeSet<usize>) -> Vec<u8> {
            let data = self.data_chunks(io.stripe, failed);
            io.segments
                .iter()
                .flat_map(|s| {
                    data[s.data_index][s.offset as usize..(s.offset + s.len) as usize].to_vec()
                })
                .collect()
        }

        fn apply_write(
            &mut self,
            io: &StripeIo,
            payload: &[u8],
            mode: WriteMode,
            failed: &BTreeSet<usize>,
        ) {
            let stripe = io.stripe;
            let old = self.data_chunks(stripe, failed);
            let mut new = old.clone();
            let mut cursor = 0usize;
            for seg in io.segments.iter() {
                new[seg.data_index][seg.offset as usize..(seg.offset + seg.len) as usize]
                    .copy_from_slice(&payload[cursor..cursor + seg.len as usize]);
                cursor += seg.len as usize;
            }
            let pm = self.layout.p_member(stripe);
            let qm = self.layout.q_member(stripe);
            let (p, q) = if mode == WriteMode::ReadModifyWrite && failed.is_empty() {
                let mut p = self.chunk(stripe, pm);
                let mut q = qm.map(|m| self.chunk(stripe, m));
                for seg in io.segments.iter() {
                    let k = seg.data_index;
                    draid_ec::xor_into(&mut p, &old[k]);
                    draid_ec::xor_into(&mut p, &new[k]);
                    if let Some(q) = &mut q {
                        Raid6::apply_q_delta(q, k, &old[k], &new[k]);
                    }
                }
                (p, q)
            } else {
                let refs: Vec<&[u8]> = new.iter().map(|d| &d[..]).collect();
                let (p, q) = Raid6::encode(&refs);
                (p, qm.map(|_| q))
            };
            for seg in io.segments.iter() {
                if !failed.contains(&seg.member) {
                    self.chunks
                        .insert((stripe, seg.member), new[seg.data_index].clone());
                }
            }
            if !failed.contains(&pm) {
                self.chunks.insert((stripe, pm), p);
            }
            if let (Some(m), Some(q)) = (qm, q) {
                if !failed.contains(&m) {
                    self.chunks.insert((stripe, m), q);
                }
            }
        }

        fn rebuild_chunk(&mut self, stripe: u64, member: usize, failed: &BTreeSet<usize>) {
            let mut effective = failed.clone();
            effective.insert(member);
            let data = self.data_chunks(stripe, &effective);
            let chunk = match self.layout.data_index_of(stripe, member) {
                Some(k) => data[k].clone(),
                None => {
                    let refs: Vec<&[u8]> = data.iter().map(|d| &d[..]).collect();
                    let (p, q) = Raid6::encode(&refs);
                    if member == self.layout.p_member(stripe) {
                        p
                    } else {
                        q
                    }
                }
            };
            self.chunks.insert((stripe, member), chunk);
        }
    }

    /// Fails with the first chunk and byte where the two stores differ.
    fn assert_same(store: &ChunkStore, oracle: &WholeChunkOracle, what: &str) {
        let keys: Vec<_> = store.chunks.keys().collect();
        let oracle_keys: Vec<_> = oracle.chunks.keys().collect();
        assert_eq!(keys, oracle_keys, "{what}: materialized chunks differ");
        for (key, chunk) in &store.chunks {
            let expected = &oracle.chunks[key];
            if let Some(i) = (0..chunk.len()).find(|&i| chunk[i] != expected[i]) {
                panic!("{what}: chunk {key:?} differs at byte {i}");
            }
        }
    }

    /// Segments on a random subset of the data chunks, each at a random
    /// offset and length (so odd ones too), or on every whole chunk.
    fn random_io(layout: &Layout, rng: &mut DetRng, stripe: u64, full: bool) -> StripeIo {
        let chunk = layout.chunk_size();
        let segments = (0..layout.data_chunks())
            .filter_map(|k| {
                let (offset, len) = if full {
                    (0, chunk)
                } else if rng.chance(0.5) {
                    let offset = rng.below(chunk);
                    (offset, 1 + rng.below(chunk - offset))
                } else {
                    return None;
                };
                Some(Segment {
                    data_index: k,
                    member: layout.data_member(stripe, k),
                    offset,
                    len,
                })
            })
            .collect();
        StripeIo::new(stripe, 0, segments)
    }

    fn random_bytes(rng: &mut DetRng, len: u64) -> Vec<u8> {
        let mut data = vec![0; len as usize];
        rng.fill_bytes(&mut data);
        data
    }

    /// Every failed set within the level's tolerance, the empty one first.
    fn failed_sets(layout: &Layout) -> Vec<BTreeSet<usize>> {
        let width = layout.width();
        let mut sets = vec![BTreeSet::new()];
        for a in 0..width {
            sets.push([a].into());
            if layout.level().parity_count() == 2 {
                sets.extend((a + 1..width).map(|b| [a, b].into()));
            }
        }
        sets
    }

    #[test]
    fn windowed_store_matches_whole_chunk_oracle() {
        const STRIPES: u64 = 3;
        for level in [RaidLevel::Raid5, RaidLevel::Raid6] {
            let layout = small_layout(level);
            for failed in failed_sets(&layout) {
                let mut rng =
                    DetRng::new(failed.iter().fold(level as u64, |h, &m| h * 31 + m as u64));
                let mut store = ChunkStore::new(layout);
                let mut oracle = WholeChunkOracle::new(layout);
                // Stripes 0 and 1 start fully written; stripe 2 starts empty.
                for stripe in 0..STRIPES - 1 {
                    let io = random_io(&layout, &mut rng, stripe, true);
                    let data = random_bytes(&mut rng, io.bytes());
                    store.apply_write(&io, &data, WriteMode::FullStripe, &BTreeSet::new());
                    oracle.apply_write(&io, &data, WriteMode::FullStripe, &BTreeSet::new());
                }
                for &m in &failed {
                    store.drop_member(m);
                    oracle.drop_member(m);
                }
                let modes = [
                    WriteMode::ReadModifyWrite,
                    WriteMode::ReconstructWrite,
                    WriteMode::FullStripe,
                ];
                for step in 0..48 {
                    let what = format!("{level:?} failed={failed:?} step {step}");
                    let mode = modes[step % modes.len()];
                    let stripe = rng.below(STRIPES);
                    let io = random_io(&layout, &mut rng, stripe, mode == WriteMode::FullStripe);
                    let data = random_bytes(&mut rng, io.bytes());
                    store.apply_write(&io, &data, mode, &failed);
                    oracle.apply_write(&io, &data, mode, &failed);
                    assert_same(&store, &oracle, &what);
                    let stripe = rng.below(STRIPES);
                    let read = random_io(&layout, &mut rng, stripe, false);
                    assert_eq!(
                        store.read(&read, &failed),
                        oracle.read(&read, &failed),
                        "{what}"
                    );
                }
                for &m in &failed {
                    for stripe in 0..STRIPES {
                        store.rebuild_chunk(stripe, m, &failed);
                        oracle.rebuild_chunk(stripe, m, &failed);
                    }
                }
                assert_same(
                    &store,
                    &oracle,
                    &format!("{level:?} failed={failed:?} rebuilt"),
                );
                assert!(store.verify_all().is_empty(), "{level:?} failed={failed:?}");
            }
        }
    }

    #[test]
    fn resync_heals_parity_outside_every_write_window() {
        for level in [RaidLevel::Raid5, RaidLevel::Raid6] {
            let layout = small_layout(level);
            let mut store = ChunkStore::new(layout);
            let none = BTreeSet::new();
            let full = &layout.map(0, layout.stripe_data_bytes())[0];
            store.apply_write(
                full,
                &payload(full.bytes(), 21),
                WriteMode::FullStripe,
                &none,
            );
            // Tear parity bytes past the end of every later user write.
            store.corrupt_chunk(0, layout.p_member(0), 4000);
            if let Some(qm) = layout.q_member(0) {
                store.corrupt_chunk(0, qm, 3999);
            }
            let io = &layout.map(100, 2000)[0];
            for mode in [WriteMode::ReadModifyWrite, WriteMode::ReconstructWrite] {
                store.apply_write(io, &payload(io.bytes(), 23), mode, &none);
                assert!(
                    !store.verify_stripe(0),
                    "{level:?} {mode:?} keeps the torn bytes"
                );
            }
            // The parity resync behind `ArraySim::repair_stripe` carries no
            // segments, so its window is the whole chunk.
            let resync = StripeIo::new(0, 0, Vec::new());
            store.apply_write(&resync, &[], WriteMode::ReconstructWrite, &none);
            assert!(store.verify_stripe(0), "{level:?} resync heals parity");
            assert_eq!(store.read(io, &none), payload(io.bytes(), 23));
        }
    }

    fn small_layout(level: RaidLevel) -> Layout {
        let mut cfg = ArrayConfig::paper_default(SystemKind::Draid);
        cfg.level = level;
        cfg.width = 5;
        cfg.chunk_size = 4096;
        Layout::new(&cfg)
    }

    fn payload(len: u64, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31) ^ seed)
            .collect()
    }

    #[test]
    fn write_then_read_roundtrip() {
        let layout = small_layout(RaidLevel::Raid5);
        let mut store = ChunkStore::new(layout);
        let none = BTreeSet::new();
        let io = &layout.map(1000, 6000)[0];
        let data = payload(io.bytes(), 7);
        store.apply_write(io, &data, layout.write_mode(io), &none);
        assert_eq!(store.read(io, &none), data);
        assert!(store.verify_stripe(io.stripe));
    }

    #[test]
    fn rmw_delta_matches_full_encode() {
        for level in [RaidLevel::Raid5, RaidLevel::Raid6] {
            let layout = small_layout(level);
            let mut a = ChunkStore::new(layout);
            let mut b = ChunkStore::new(layout);
            let none = BTreeSet::new();
            // Pre-populate with a full-stripe write.
            let full = &layout.map(0, layout.stripe_data_bytes())[0];
            let base = payload(full.bytes(), 3);
            a.apply_write(full, &base, WriteMode::FullStripe, &none);
            b.apply_write(full, &base, WriteMode::FullStripe, &none);
            // Partial update via delta on one store, full re-encode on the other.
            let io = &layout.map(4096, 4096)[0];
            let upd = payload(io.bytes(), 9);
            a.apply_write(io, &upd, WriteMode::ReadModifyWrite, &none);
            b.apply_write(io, &upd, WriteMode::ReconstructWrite, &none);
            assert!(a.verify_stripe(0), "{level:?} delta path consistent");
            assert_eq!(a.read(io, &none), b.read(io, &none));
            let pm = layout.p_member(0);
            assert_eq!(a.chunk(0, pm), b.chunk(0, pm), "{level:?} parity equal");
        }
    }

    #[test]
    fn degraded_read_returns_written_bytes() {
        let layout = small_layout(RaidLevel::Raid5);
        let mut store = ChunkStore::new(layout);
        let none = BTreeSet::new();
        let io = &layout.map(0, 3 * 4096)[0];
        let data = payload(io.bytes(), 5);
        store.apply_write(io, &data, layout.write_mode(io), &none);
        // Fail the member holding data chunk 1.
        let victim = layout.data_member(io.stripe, 1);
        store.drop_member(victim);
        let failed: BTreeSet<usize> = [victim].into();
        assert_eq!(store.read(io, &failed), data, "reconstructed read");
    }

    #[test]
    fn degraded_write_preserved_through_parity() {
        let layout = small_layout(RaidLevel::Raid5);
        let mut store = ChunkStore::new(layout);
        let victim = layout.data_member(0, 0);
        store.drop_member(victim);
        let failed: BTreeSet<usize> = [victim].into();
        // Write to the failed chunk itself: bytes land only in parity.
        let io = &layout.map(0, 4096)[0];
        assert_eq!(io.segments[0].member, victim);
        let data = payload(4096, 11);
        store.apply_write(io, &data, WriteMode::ReconstructWrite, &failed);
        assert!(
            !store.chunks.contains_key(&(0, victim)),
            "dead drive not written"
        );
        assert_eq!(store.read(io, &failed), data, "parity encodes new data");
    }

    #[test]
    fn raid6_survives_two_failures() {
        let layout = small_layout(RaidLevel::Raid6);
        let mut store = ChunkStore::new(layout);
        let none = BTreeSet::new();
        let io = &layout.map(0, layout.stripe_data_bytes())[0];
        let data = payload(io.bytes(), 13);
        store.apply_write(io, &data, WriteMode::FullStripe, &none);
        let v1 = layout.data_member(0, 0);
        let v2 = layout.data_member(0, 2);
        store.drop_member(v1);
        store.drop_member(v2);
        let failed: BTreeSet<usize> = [v1, v2].into();
        assert_eq!(store.read(io, &failed), data);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn raid5_two_failures_panics() {
        let layout = small_layout(RaidLevel::Raid5);
        let store = ChunkStore::new(layout);
        let failed: BTreeSet<usize> = [0usize, 1].into();
        let io = &layout.map(0, 4096)[0];
        // Force a reconstructing read with two lost members.
        let mut segments = io.segments.to_vec();
        segments[0].member = 0;
        let io = StripeIo::new(io.stripe, io.buf_offset, segments);
        store.read(&io, &failed);
    }

    #[test]
    fn unwritten_chunks_read_zero() {
        let layout = small_layout(RaidLevel::Raid5);
        let store = ChunkStore::new(layout);
        let io = &layout.map(12345, 100)[0];
        assert_eq!(store.read(io, &BTreeSet::new()), vec![0u8; 100]);
        assert!(
            store.verify_stripe(io.stripe),
            "all-zero stripe is consistent"
        );
    }
}
