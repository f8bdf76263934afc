//! Records the compiler version for the machine record that the `simperf`
//! and `kernels` reports carry.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(&rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=DRAID_BENCH_RUSTC={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
