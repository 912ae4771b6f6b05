//! Reference peaks measured on the host: a no-FMA mul-add peak, a
//! STREAM-style copy bandwidth, and `gemm_into` at the plan's shapes.

use crate::layers::GemmShape;
use mf_tensor::{gemm_into, Layout, Tensor};
use std::hint::black_box;
use std::time::Instant;

/// Single-thread f64 peak of separate multiply and add (2 FLOPs per
/// element step), GFLOP/s. Rust never contracts `a * b + c` into a fused
/// multiply-add, the same no-contraction contract the tensor backends
/// rely on, so this is the peak those kernels can reach.
pub fn muladd_peak_gflops() -> f64 {
    const LANES: usize = 64;
    let mut acc = [1.0f64; LANES];
    let (a, b) = (black_box(0.999_999_9), black_box(1e-9));
    let iters = 2_000_000usize;
    let mut best = 0.0f64;
    for _ in 0..3 {
        let t = Instant::now();
        for _ in 0..iters {
            for x in acc.iter_mut() {
                *x = *x * a + b;
            }
        }
        black_box(&acc);
        let s = t.elapsed().as_secs_f64();
        best = best.max(2.0 * (LANES * iters) as f64 / s / 1e9);
    }
    best
}

/// The last-level cache size the host reports, in bytes.
pub fn llc_bytes() -> Option<usize> {
    let dir = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut best: Option<(usize, usize)> = None;
    for i in 0..8 {
        let idx = dir.join(format!("index{i}"));
        let Ok(level) = std::fs::read_to_string(idx.join("level")) else {
            continue;
        };
        let Ok(size) = std::fs::read_to_string(idx.join("size")) else {
            continue;
        };
        let level: usize = level.trim().parse().unwrap_or(0);
        let size = size.trim();
        let bytes = if let Some(k) = size.strip_suffix('K') {
            k.parse::<usize>().ok().map(|v| v << 10)
        } else if let Some(m) = size.strip_suffix('M') {
            m.parse::<usize>().ok().map(|v| v << 20)
        } else {
            size.parse().ok()
        };
        if let Some(bytes) = bytes {
            if best.is_none_or(|(l, _)| level > l) {
                best = Some((level, bytes));
            }
        }
    }
    best.map(|(_, b)| b)
}

/// STREAM copy result.
#[derive(Clone, Copy, Debug)]
pub struct Stream {
    /// Best copy bandwidth, GB/s (read + write bytes).
    pub gbs: f64,
    /// Bytes per array.
    pub array_bytes: usize,
    /// The last-level cache size the array was sized against.
    pub llc_bytes: usize,
}

/// Copy between two arrays of at least four times the last-level cache
/// (256 MiB each when the host reports none).
pub fn stream_copy() -> Stream {
    let llc = llc_bytes().unwrap_or(64 << 20);
    let array_bytes = (4 * llc).max(256 << 20);
    let n = array_bytes / 8;
    let src: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let mut dst = vec![0.0f64; n];
    let mut best = 0.0f64;
    for _ in 0..3 {
        let t = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&dst);
        let s = t.elapsed().as_secs_f64();
        best = best.max(2.0 * array_bytes as f64 / s / 1e9);
    }
    Stream {
        gbs: best,
        array_bytes,
        llc_bytes: llc,
    }
}

/// `gemm_into` throughput over one launch's GEMM shapes, GFLOP/s.
pub fn gemm_gflops(shapes: &[GemmShape], seconds: f64) -> f64 {
    let operands: Vec<(Tensor, Tensor, Tensor)> = shapes
        .iter()
        .map(|g| {
            (
                Tensor::from_fn(g.rows, g.k, |i, j| 1e-3 * ((i + j) % 7) as f64),
                Tensor::from_fn(g.k, g.n, |i, j| 1e-3 * ((i * j) % 5) as f64),
                Tensor::zeros(g.rows, g.n),
            )
        })
        .collect();
    let flops_per: f64 = shapes
        .iter()
        .map(|g| 2.0 * (g.rows * g.k * g.n) as f64)
        .sum();
    let mut operands = operands;
    let t = Instant::now();
    let mut reps = 0usize;
    while t.elapsed().as_secs_f64() < seconds {
        for (a, b, c) in operands.iter_mut() {
            gemm_into(
                black_box(a),
                Layout::Normal,
                black_box(b),
                Layout::Normal,
                c,
            );
        }
        reps += 1;
    }
    black_box(&operands);
    flops_per * reps as f64 / t.elapsed().as_secs_f64() / 1e9
}
