//! Randomized property tests of the core's pure logic: stripe geometry,
//! write-mode selection and the reducer optimizer.
//! Driven by the simulator's seeded [`DetRng`] (the environment has no
//! crates.io access, so these are plain loops rather than `proptest`
//! strategies — same invariants, reproducible cases).

use draid_core::reducer::water_fill;
use draid_core::{ArrayConfig, Layout, RaidLevel, SystemKind, WriteMode};
use draid_sim::DetRng;

fn random_layout(rng: &mut DetRng) -> Layout {
    let level = if rng.chance(0.5) {
        RaidLevel::Raid5
    } else {
        RaidLevel::Raid6
    };
    let mut cfg = ArrayConfig::paper_default(SystemKind::Draid);
    cfg.level = level;
    cfg.width = 4 + rng.below(15) as usize;
    cfg.chunk_size = (1 + rng.below(16)) * 4096;
    Layout::new(&cfg)
}

#[test]
fn map_partitions_the_byte_range() {
    let mut rng = DetRng::new(0xC0DE1);
    for _ in 0..200 {
        let layout = random_layout(&mut rng);
        let offset = rng.below(1 << 30);
        let len = 1 + rng.below((16 << 20) - 1);
        let ios = layout.map(offset, len);
        // Total bytes conserved.
        let total: u64 = ios.iter().map(|io| io.bytes()).sum();
        assert_eq!(total, len);
        // Stripes strictly increasing; buffer offsets contiguous.
        let mut expected_buf = 0u64;
        for win in ios.windows(2) {
            assert!(win[0].stripe < win[1].stripe);
        }
        for io in &ios {
            assert_eq!(io.buf_offset, expected_buf);
            expected_buf += io.bytes();
            // Segments ordered by data index, within chunk bounds, on the
            // member the layout assigns.
            for win in io.segments.windows(2) {
                assert!(win[0].data_index < win[1].data_index);
            }
            for seg in io.segments.iter() {
                assert!(seg.offset + seg.len <= layout.chunk_size());
                assert!(seg.len > 0);
                assert_eq!(seg.member, layout.data_member(io.stripe, seg.data_index));
            }
        }
    }
}

#[test]
fn members_partition_every_stripe() {
    let mut rng = DetRng::new(0xC0DE2);
    for _ in 0..200 {
        let layout = random_layout(&mut rng);
        let stripe = rng.below(10_000);
        // P, Q and the data chunks together cover all members exactly once.
        let mut seen = vec![0u8; layout.width()];
        seen[layout.p_member(stripe)] += 1;
        if let Some(q) = layout.q_member(stripe) {
            seen[q] += 1;
        }
        for k in 0..layout.data_chunks() {
            seen[layout.data_member(stripe, k)] += 1;
        }
        assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
        // data_index_of inverts data_member and rejects parity members.
        for m in 0..layout.width() {
            match layout.data_index_of(stripe, m) {
                Some(k) => assert_eq!(layout.data_member(stripe, k), m),
                None => assert!(m == layout.p_member(stripe) || Some(m) == layout.q_member(stripe)),
            }
        }
    }
}

#[test]
fn write_mode_minimizes_remote_reads() {
    let mut rng = DetRng::new(0xC0DE3);
    for _ in 0..200 {
        let layout = random_layout(&mut rng);
        let offset = rng.below(1 << 28);
        let len = 1 + rng.below((8 << 20) - 1);
        for io in layout.map(offset, len) {
            let d = layout.data_chunks();
            let p = layout.level().parity_count();
            let full = io
                .segments
                .iter()
                .filter(|s| s.covers_chunk(layout.chunk_size()))
                .count();
            let mode = layout.write_mode(&io);
            let rmw_reads = io.segments.len() + p;
            let rcw_reads = d - full;
            match mode {
                WriteMode::FullStripe => assert_eq!(full, d),
                WriteMode::ReadModifyWrite => assert!(rmw_reads < rcw_reads),
                WriteMode::ReconstructWrite => assert!(rcw_reads <= rmw_reads),
            }
        }
    }
}

#[test]
fn water_fill_is_a_distribution_and_maximin() {
    let mut rng = DetRng::new(0xC0DE5);
    for _ in 0..300 {
        let n = 1 + rng.below(19) as usize;
        let bandwidths: Vec<f64> = (0..n).map(|_| rng.unit_f64() * 1e6).collect();
        let load = rng.unit_f64() * 1e7;
        let p = water_fill(&bandwidths, load);
        assert_eq!(p.len(), bandwidths.len());
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum {sum}");
        assert!(p.iter().all(|&x| (-1e-9..=1.0 + 1e-6).contains(&x)));
        if load > 0.0 {
            // Maximin optimality: no probability mass can move between two
            // members to raise the minimum headroom (water level property:
            // every active member sits at the same headroom, and inactive
            // members' raw bandwidth is below that level).
            let headroom: Vec<f64> = bandwidths
                .iter()
                .zip(&p)
                .map(|(&b, &pi)| b - pi * load)
                .collect();
            let active_min = headroom
                .iter()
                .zip(&p)
                .filter(|(_, &pi)| pi > 1e-12)
                .map(|(&h, _)| h)
                .fold(f64::MAX, f64::min);
            for (&h, &pi) in headroom.iter().zip(&p) {
                if pi <= 1e-12 && active_min != f64::MAX {
                    assert!(
                        h <= active_min + 1e-3,
                        "inactive member above water level: {h} vs {active_min}"
                    );
                }
            }
        }
    }
}
