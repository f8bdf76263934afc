//! Machine and build metadata recorded with every result.

use crate::json_str;

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

/// The metadata as a JSON object.
pub fn json(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let fields = [
        ("cpu_model", json_str(&cpu_model())),
        ("nproc", nproc.to_string()),
        ("rustc", json_str(env!("SIMBENCH_RUSTC"))),
        ("git_rev", json_str(env!("SIMBENCH_GIT_REV"))),
        (
            "profile",
            json_str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("simd_active", draid_ec::kernels::simd_active().to_string()),
        ("threads", "1".into()),
        ("workload", json_str(workload)),
        ("seed", seed.to_string()),
        ("seconds", seconds.to_string()),
        ("trace", u8::from(trace).to_string()),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}
