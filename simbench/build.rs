//! Records the compiler version and, when built inside a git work tree, the
//! revision, for the metadata printed with every result.

use std::path::Path;
use std::process::Command;

fn output(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = output(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=SIMBENCH_RUSTC={version}");

    let git = Path::new("../.git");
    let rev = if git.exists() {
        output("git", &["-C", "..", "rev-parse", "HEAD"])
    } else {
        None
    };
    println!(
        "cargo:rustc-env=SIMBENCH_GIT_REV={}",
        rev.unwrap_or_else(|| "unknown (not built in a git work tree)".into())
    );
    println!("cargo:rerun-if-changed=build.rs");
    if git.exists() {
        println!("cargo:rerun-if-changed=../.git/HEAD");
        println!("cargo:rerun-if-changed=../.git/index");
    }
}
