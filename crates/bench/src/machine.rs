//! The machine a benchmark report was measured on: CPU model, `nproc`, the
//! compiler that built the binary and the git revision of the checkout it
//! runs in — the fields simbench records with every result. `simperf` and
//! `kernels` write it into `BENCH_sim.json` and `BENCH_kernels.json`, so a
//! checked-in number always says where it came from.

use std::process::Command;

use crate::json::escape;

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The machine record as a one-line JSON object.
pub fn json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "{{\"cpu_model\": \"{}\", \"nproc\": {nproc}, \"rustc\": \"{}\", \"git_rev\": \"{}\"}}",
        escape(&cpu_model()),
        escape(env!("DRAID_BENCH_RUSTC")),
        escape(&git_rev()),
    )
}
