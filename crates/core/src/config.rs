//! Array configuration: RAID level, engine selection, and the dRAID ablation
//! switches.

use draid_sim::SimTime;

/// Parity-based RAID level (the paper's scope, §2.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum RaidLevel {
    /// Single parity (P), tolerates one member loss.
    Raid5,
    /// Dual parity (P+Q), tolerates two member losses.
    Raid6,
}

impl RaidLevel {
    /// Number of parity chunks per stripe.
    pub fn parity_count(self) -> usize {
        match self {
            RaidLevel::Raid5 => 1,
            RaidLevel::Raid6 => 2,
        }
    }
}

/// Which RAID engine services the array — the paper's three comparison
/// systems (§9.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum SystemKind {
    /// Linux software RAID (MD driver): kernel path, stripe-cache page
    /// handling, centralized data movement.
    LinuxMd,
    /// The Intel SPDK RAID-5 POC (with ISA-L and our RAID-6 extension):
    /// user-space, centralized data movement, stripe locks on reads.
    SpdkRaid,
    /// dRAID: host-side coordinator + server-side controllers with
    /// peer-to-peer partial-parity movement.
    Draid,
}

impl SystemKind {
    /// Display label matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::LinuxMd => "Linux",
            SystemKind::SpdkRaid => "SPDK",
            SystemKind::Draid => "dRAID",
        }
    }
}

/// Reducer-selection policy for degraded reads / reconstruction (§6).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ReducerPolicy {
    /// Uniform random choice among available bdevs (optimal for homogeneous
    /// networks, Theorem 1).
    Random,
    /// Bandwidth-aware probabilistic selection: max–min headroom
    /// water-filling over EWMA-estimated load (§6.2).
    BandwidthAware,
}

/// dRAID design toggles; every `true` is the paper's design, every `false`
/// an ablation used by the `ablation` bench.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DraidOptions {
    /// §5.3 parallel I/O pipeline on each bdev (false = serial NVMe-oF-style
    /// fetch → read → write → forward chain).
    pub pipeline: bool,
    /// §5.2 non-blocking multi-stage write (false = barrier between the
    /// Broadcast and Reduce phases).
    pub nonblocking: bool,
    /// §2.3/§5 peer-to-peer partial-parity movement (false = partials routed
    /// through the host like a centralized design).
    pub peer_to_peer: bool,
    /// §8/§9.2 lock-free normal reads (false = SPDK-POC-style stripe lock on
    /// reads).
    pub lockfree_read: bool,
    /// Reducer selection for degraded reads and rebuild.
    pub reducer: ReducerPolicy,
}

impl Default for DraidOptions {
    fn default() -> Self {
        DraidOptions {
            pipeline: true,
            nonblocking: true,
            peer_to_peer: true,
            lockfree_read: true,
            reducer: ReducerPolicy::Random,
        }
    }
}

/// Whether the simulation carries real payload bytes through the chunk store.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum DataMode {
    /// Timing only; payloads are synthetic lengths (benchmarks).
    Timing,
    /// Full data plane: writes store real bytes and real parity; reads
    /// (including degraded) return reconstructed bytes (tests, examples).
    Full,
}

/// Full configuration of a simulated RAID array.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ArrayConfig {
    /// Parity level.
    pub level: RaidLevel,
    /// Stripe width: number of member drives (data + parity).
    pub width: usize,
    /// Chunk size in bytes (the paper defaults to 512 KiB, the MD default).
    pub chunk_size: u64,
    /// Which engine runs the array.
    pub system: SystemKind,
    /// dRAID design toggles (ignored by the baselines except where noted).
    pub draid: DraidOptions,
    /// Timing-only or full data plane.
    pub data_mode: DataMode,
    /// Per-operation deadline before the host declares a timeout and retries
    /// (§5.4 "explicit timeout").
    pub op_deadline: SimTime,
    /// RNG seed (reducer selection, workloads derive from it).
    pub seed: u64,
}

impl ArrayConfig {
    /// The paper's default setting (§9.1): RAID-5, 8 targets, 512 KiB chunks.
    pub fn paper_default(system: SystemKind) -> Self {
        ArrayConfig {
            level: RaidLevel::Raid5,
            width: 8,
            chunk_size: 512 * 1024,
            system,
            draid: DraidOptions::default(),
            data_mode: DataMode::Timing,
            op_deadline: SimTime::from_millis(250),
            seed: 0xD5A1D,
        }
    }

    /// Number of data chunks per stripe.
    pub fn data_chunks(&self) -> usize {
        self.width - self.level.parity_count()
    }

    /// Total user-visible bytes per stripe.
    pub fn stripe_data_bytes(&self) -> u64 {
        self.data_chunks() as u64 * self.chunk_size
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.width < self.level.parity_count() + 2 {
            return Err(format!(
                "width {} too small for {:?} (needs >= {})",
                self.width,
                self.level,
                self.level.parity_count() + 2
            ));
        }
        if self.chunk_size == 0 || !self.chunk_size.is_multiple_of(4096) {
            return Err(format!(
                "chunk size {} must be a positive multiple of 4096",
                self.chunk_size
            ));
        }
        if self.op_deadline == SimTime::ZERO {
            return Err("op deadline must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid() {
        let cfg = ArrayConfig::paper_default(SystemKind::Draid);
        cfg.validate().expect("paper default must validate");
        assert_eq!(cfg.data_chunks(), 7);
        assert_eq!(cfg.stripe_data_bytes(), 7 * 512 * 1024); // 3584 KiB (§9.3)
    }

    #[test]
    fn raid6_stripe_size_matches_appendix() {
        let mut cfg = ArrayConfig::paper_default(SystemKind::Draid);
        cfg.level = RaidLevel::Raid6;
        assert_eq!(cfg.stripe_data_bytes(), 6 * 512 * 1024); // 3072 KiB (App. A)
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut cfg = ArrayConfig::paper_default(SystemKind::Draid);
        cfg.width = 2;
        assert!(cfg.validate().is_err());
        let mut cfg = ArrayConfig::paper_default(SystemKind::Draid);
        cfg.chunk_size = 1000;
        assert!(cfg.validate().is_err());
        let mut cfg = ArrayConfig::paper_default(SystemKind::Draid);
        cfg.level = RaidLevel::Raid6;
        cfg.width = 3;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn labels_match_figure_legends() {
        assert_eq!(SystemKind::LinuxMd.label(), "Linux");
        assert_eq!(SystemKind::SpdkRaid.label(), "SPDK");
        assert_eq!(SystemKind::Draid.label(), "dRAID");
    }
}
