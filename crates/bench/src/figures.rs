//! The experiment registry: every table and figure of the paper's
//! evaluation, addressable by id.

use draid_core::RaidLevel;

use crate::exp_app;
use crate::exp_fio;
use crate::exp_misc;
use crate::Figure;

/// A registered experiment.
#[derive(Clone, Copy)]
pub struct FigureSpec {
    /// Paper identifier ("fig10", "table1", "ablation", …).
    pub id: &'static str,
    /// Short description.
    pub title: &'static str,
    build: fn() -> Figure,
}

impl FigureSpec {
    /// Runs the experiment and returns the regenerated figure.
    pub fn build(&self) -> Figure {
        (self.build)()
    }
}

impl std::fmt::Debug for FigureSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FigureSpec({})", self.id)
    }
}

macro_rules! spec {
    ($id:literal, $title:literal, $body:expr) => {
        FigureSpec {
            id: $id,
            title: $title,
            build: || $body,
        }
    };
}

/// Every experiment, in paper order.
pub fn all() -> Vec<FigureSpec> {
    use RaidLevel::{Raid5, Raid6};
    vec![
        spec!(
            "table1",
            "Comparison of 3 remote RAID architectures",
            exp_misc::table1("table1")
        ),
        spec!(
            "fig09",
            "RAID-5 normal-state read on different I/O sizes",
            exp_fio::read_vs_io_size("fig09", Raid5)
        ),
        spec!(
            "fig10",
            "RAID-5 write on different I/O sizes",
            exp_fio::write_vs_io_size("fig10", Raid5)
        ),
        spec!(
            "fig11",
            "RAID-5 write on different chunk sizes",
            exp_fio::write_vs_chunk("fig11", Raid5)
        ),
        spec!(
            "fig12",
            "RAID-5 write on different stripe widths",
            exp_fio::write_vs_width("fig12", Raid5)
        ),
        spec!(
            "fig13",
            "RAID-5 write on different read/write ratios",
            exp_fio::write_vs_mix("fig13", Raid5)
        ),
        spec!(
            "fig14a",
            "RAID-5 latency vs bandwidth (write-only)",
            exp_fio::latency_vs_bandwidth("fig14a", Raid5, 0.0)
        ),
        spec!(
            "fig14b",
            "RAID-5 latency vs bandwidth (50% read + 50% write)",
            exp_fio::latency_vs_bandwidth("fig14b", Raid5, 0.5)
        ),
        spec!(
            "fig15",
            "RAID-5 degraded read on different I/O sizes",
            exp_fio::degraded_read_vs_io("fig15", Raid5)
        ),
        spec!(
            "fig16",
            "RAID-5 degraded read on different stripe widths",
            exp_fio::degraded_read_vs_width("fig16", Raid5)
        ),
        spec!(
            "fig17a",
            "Reconstruction scalability",
            exp_fio::reconstruction_scalability("fig17a")
        ),
        spec!(
            "fig17b",
            "Reconstruction with different reducer-selection algorithms",
            exp_fio::bandwidth_aware_reconstruction("fig17b")
        ),
        spec!(
            "fig18",
            "RAID-5 degraded-state write on different I/O sizes",
            exp_fio::degraded_write_vs_io("fig18", Raid5)
        ),
        spec!(
            "fig19a",
            "RocksDB-style KV YCSB throughput (normal state)",
            exp_app::lsm_ycsb("fig19a", false)
        ),
        spec!(
            "fig19b",
            "RocksDB-style KV YCSB throughput (degraded state)",
            exp_app::lsm_ycsb("fig19b", true)
        ),
        spec!(
            "fig20",
            "Object store on normal-state RAID-5",
            exp_app::object_ycsb("fig20", false)
        ),
        spec!(
            "fig21",
            "Object store on degraded-state RAID-5",
            exp_app::object_ycsb("fig21", true)
        ),
        spec!(
            "fig22",
            "RAID-6 normal-state read on different I/O sizes",
            exp_fio::read_vs_io_size("fig22", Raid6)
        ),
        spec!(
            "fig23",
            "RAID-6 write on different I/O sizes",
            exp_fio::write_vs_io_size("fig23", Raid6)
        ),
        spec!(
            "fig24",
            "RAID-6 write on different chunk sizes",
            exp_fio::write_vs_chunk("fig24", Raid6)
        ),
        spec!(
            "fig25",
            "RAID-6 write on different stripe widths",
            exp_fio::write_vs_width("fig25", Raid6)
        ),
        spec!(
            "fig26",
            "RAID-6 write on different read/write ratios",
            exp_fio::write_vs_mix("fig26", Raid6)
        ),
        spec!(
            "fig27a",
            "RAID-6 latency vs bandwidth (write-only)",
            exp_fio::latency_vs_bandwidth("fig27a", Raid6, 0.0)
        ),
        spec!(
            "fig27b",
            "RAID-6 latency vs bandwidth (50% read + 50% write)",
            exp_fio::latency_vs_bandwidth("fig27b", Raid6, 0.5)
        ),
        spec!(
            "fig28",
            "RAID-6 degraded read on different I/O sizes",
            exp_fio::degraded_read_vs_io("fig28", Raid6)
        ),
        spec!(
            "fig29",
            "RAID-6 degraded read on different stripe widths",
            exp_fio::degraded_read_vs_width("fig29", Raid6)
        ),
        spec!(
            "fig30",
            "RAID-6 degraded-state write on different I/O sizes",
            exp_fio::degraded_write_vs_io("fig30", Raid6)
        ),
        spec!(
            "ablation",
            "dRAID design-choice ablations",
            exp_misc::ablation("ablation")
        ),
    ]
}

/// Looks up an experiment by id.
pub fn by_id(id: &str) -> Option<FigureSpec> {
    all().into_iter().find(|s| s.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_unique_and_ordered() {
        let ids: Vec<&str> = all().iter().map(|s| s.id).collect();
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "duplicate figure ids");
        assert!(ids.contains(&"fig10"));
        assert!(ids.contains(&"fig30"));
        assert!(ids.contains(&"table1"));
    }

    #[test]
    fn lookup() {
        assert!(by_id("fig17b").is_some());
        assert!(by_id("nope").is_none());
    }
}
