//! Kernel-throughput report: measures the erasure-coding data-plane kernels
//! (XOR, wide vs scalar GF(256) multiply-accumulate, the one-pass RAID-6 Q
//! syndrome, Reed-Solomon decode) at several buffer sizes and writes
//! `BENCH_kernels.json`.
//!
//! ```text
//! cargo run --release -p draid-bench --bin kernels [--quick] [--out PATH]
//! ```
//!
//! `--quick` shortens each measurement (CI smoke); `--out` overrides the
//! output path. The JSON carries GB/s per (kernel, size) plus the
//! wide-vs-scalar `mul_acc` speedup at 64 KiB — the number the acceptance
//! bar (≥ 5×) checks — and the machine record ([`draid_bench::machine`]).

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use draid_ec::{gf256, kernels, xor_into, ReedSolomon};

const SIZES: &[usize] = &[4 * 1024, 64 * 1024, 1024 * 1024];

struct Measurement {
    kernel: &'static str,
    size: usize,
    /// Bytes of payload the kernel processes per call.
    bytes_per_call: usize,
    ns_per_call: f64,
}

impl Measurement {
    fn gb_per_sec(&self) -> f64 {
        self.bytes_per_call as f64 / self.ns_per_call
    }
}

/// Times `f` by running it repeatedly for at least `budget`, after a short
/// warm-up; returns mean wall-clock nanoseconds per call.
fn time_for(budget: Duration, mut f: impl FnMut()) -> f64 {
    for _ in 0..3 {
        f();
    }
    let mut calls = 0u64;
    let start = Instant::now();
    loop {
        f();
        calls += 1;
        if start.elapsed() >= budget {
            break;
        }
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

fn buf(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(37).wrapping_add(seed))
        .collect()
}

fn json_escape_free(s: &str) -> &str {
    debug_assert!(s.chars().all(|c| c != '"' && c != '\\' && !c.is_control()));
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_kernels.json".to_string());
    let budget = if quick {
        Duration::from_millis(5)
    } else {
        Duration::from_millis(150)
    };

    let mut results: Vec<Measurement> = Vec::new();
    let mut measure =
        |kernel: &'static str, size: usize, bytes_per_call: usize, f: &mut dyn FnMut()| {
            let ns = time_for(budget, f);
            let m = Measurement {
                kernel,
                size,
                bytes_per_call,
                ns_per_call: ns,
            };
            println!(
                "{:<28} {:>8} B  {:>10.2} GB/s",
                kernel,
                size,
                m.gb_per_sec()
            );
            results.push(m);
        };

    for &size in SIZES {
        let src = buf(size, 3);
        let mut acc = buf(size, 5);
        measure("xor_into", size, size, &mut || {
            xor_into(std::hint::black_box(&mut acc), std::hint::black_box(&src))
        });
        measure("mul_acc_wide", size, size, &mut || {
            gf256::mul_acc(
                std::hint::black_box(&mut acc),
                std::hint::black_box(&src),
                0x1D,
            )
        });
        measure("mul_acc_scalar_ref", size, size, &mut || {
            gf256::mul_acc_ref(
                std::hint::black_box(&mut acc),
                std::hint::black_box(&src),
                0x1D,
            )
        });

        let data: Vec<Vec<u8>> = (0..6).map(|i| buf(size, i as u8 * 13 + 1)).collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| &d[..]).collect();
        let mut q = vec![0u8; size];
        measure("raid6_q_syndrome_6", size, 6 * size, &mut || {
            kernels::raid6_q_into(std::hint::black_box(&mut q), std::hint::black_box(&refs))
        });

        let rs = ReedSolomon::new(6, 2);
        let parity = rs.encode(&refs);
        measure("rs_decode_2_of_6+2", size, 6 * size, &mut || {
            let mut shards: Vec<Option<Vec<u8>>> = data
                .iter()
                .cloned()
                .map(Some)
                .chain(parity.iter().cloned().map(Some))
                .collect();
            shards[1] = None;
            shards[4] = None;
            rs.reconstruct(std::hint::black_box(&mut shards))
                .expect("decodable");
        });
    }

    let speedup = {
        let at = |kernel: &str| {
            results
                .iter()
                .find(|m| m.kernel == kernel && m.size == 64 * 1024)
                .expect("64 KiB point measured")
                .gb_per_sec()
        };
        at("mul_acc_wide") / at("mul_acc_scalar_ref")
    };
    println!("mul_acc wide/scalar speedup at 64 KiB: {speedup:.1}x");

    // The serde shim is a no-op, so the report is written as literal JSON.
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"kernels\",");
    let _ = writeln!(json, "  \"unit\": \"GB/s\",");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"machine\": {},", draid_bench::machine::json());
    let _ = writeln!(json, "  \"simd_active\": {},", kernels::simd_active());
    let _ = writeln!(json, "  \"mul_acc_speedup_at_64KiB\": {:.2},", speedup);
    let _ = writeln!(json, "  \"results\": [");
    for (i, m) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"kernel\": \"{}\", \"size\": {}, \"bytes_per_call\": {}, \"gb_per_sec\": {:.3}}}{comma}",
            json_escape_free(m.kernel),
            m.size,
            m.bytes_per_call,
            m.gb_per_sec()
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    std::fs::write(&out_path, &json).expect("write kernel report");
    println!("wrote {out_path}");
}
