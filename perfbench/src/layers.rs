//! The traced run's instruments: a timing wrapper around the compiled
//! plan solver, an in-memory span log, and the per-launch FLOP and byte
//! counts computed from the network's static shapes.

use mf_data::SubdomainSpec;
use mf_mfp::{PlanSolver, SubdomainSolver};
use mf_nn::SdNet;
use mf_telemetry::SpanEvent;
use mf_tensor::Tensor;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Spans kept in memory before further ones are counted but dropped.
const SPAN_CAP: usize = 200_000;

/// Spans the benchmark records around its calls into the program, kept
/// in memory and written once at exit.
#[derive(Default)]
pub struct Spans {
    events: Mutex<Vec<SpanEvent>>,
    dropped: AtomicUsize,
}

thread_local! {
    static TID: usize = {
        static NEXT: AtomicUsize = AtomicUsize::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

impl Spans {
    /// Record a span on the calling thread (the Chrome trace `tid`).
    pub fn record(&self, name: &str, start_us: u64, dur_us: u64, depth: u32, args: &[(&str, f64)]) {
        let mut ev = self.events.lock().expect("span log poisoned");
        if ev.len() >= SPAN_CAP {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        ev.push(SpanEvent {
            name: name.to_string(),
            rank: TID.with(|t| *t),
            start_us,
            dur_us,
            depth,
            args: args.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        });
    }

    /// Write the spans as a Chrome `trace_event` file.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<usize> {
        let ev = self.events.lock().expect("span log poisoned");
        let mut body = Vec::new();
        mf_telemetry::write_chrome_trace_with_flows(&ev, &[], &mut body)?;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, body)?;
        Ok(ev.len())
    }

    /// Spans that did not fit under the in-memory cap.
    pub fn dropped(&self) -> usize {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// Launch totals accumulated by [`TimedSolver`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LaunchTotals {
    /// `solve_batch` calls.
    pub launches: usize,
    /// Query rows evaluated (Σ boundaries × points).
    pub rows: usize,
    /// Seconds inside `solve_batch`, summed over threads.
    pub launch_s: f64,
    /// Computed FLOPs of all launches.
    pub flops: f64,
    /// Computed bytes of all launches.
    pub bytes: f64,
    /// Launches on the subdomain-interior point set (the dense fill).
    pub dense_launches: usize,
    /// Seconds inside dense-fill launches.
    pub dense_s: f64,
}

/// A [`SubdomainSolver`] that times every launch of the wrapped
/// [`PlanSolver`] and otherwise passes it through unchanged.
pub struct TimedSolver<'a> {
    inner: &'a PlanSolver,
    shapes: NetShapes,
    interior_q: usize,
    totals: Mutex<LaunchTotals>,
    spans: Option<&'a Spans>,
}

impl<'a> TimedSolver<'a> {
    /// Wrap `inner`; launch spans go to `spans` when given.
    pub fn new(inner: &'a PlanSolver, spans: Option<&'a Spans>) -> Self {
        let m = inner.spec().m;
        Self {
            inner,
            shapes: NetShapes::of(inner.net()),
            interior_q: (m - 2) * (m - 2),
            totals: Mutex::new(LaunchTotals::default()),
            spans,
        }
    }

    /// Totals so far.
    pub fn totals(&self) -> LaunchTotals {
        *self.totals.lock().expect("launch totals poisoned")
    }

    /// Compile misses so far: launches the plan cache did not serve.
    pub fn compiles(&self) -> usize {
        self.inner.launch_count() - self.inner.cache_hits()
    }
}

impl SubdomainSolver for TimedSolver<'_> {
    fn spec(&self) -> SubdomainSpec {
        self.inner.spec()
    }

    fn solve_batch(&self, boundaries: &Tensor, points: &Tensor) -> Tensor {
        let (b, q) = (boundaries.rows(), points.rows());
        let t0 = mf_telemetry::now_us();
        let start = std::time::Instant::now();
        let out = self.inner.solve_batch(boundaries, points);
        let dt = start.elapsed().as_secs_f64();
        let dense = q == self.interior_q;
        {
            let mut t = self.totals.lock().expect("launch totals poisoned");
            t.launches += 1;
            t.rows += b * q;
            t.launch_s += dt;
            t.flops += self.shapes.flops(b, q);
            t.bytes += self.shapes.bytes(b, q);
            if dense {
                t.dense_launches += 1;
                t.dense_s += dt;
            }
        }
        if let Some(spans) = self.spans {
            let name = if dense {
                "infer.launch.dense"
            } else {
                "infer.launch"
            };
            let us = (dt * 1e6) as u64;
            spans.record(name, t0, us, 1, &[("b", b as f64), ("q", q as f64)]);
        }
        out
    }

    fn inference_count(&self) -> usize {
        self.inner.inference_count()
    }

    fn launch_count(&self) -> usize {
        self.inner.launch_count()
    }
}

/// One GEMM of a plan launch: `[rows, k] × [k, n]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GemmShape {
    /// Output rows.
    pub rows: usize,
    /// Inner dimension.
    pub k: usize,
    /// Output columns.
    pub n: usize,
}

/// The static layer shapes a compiled plan executes, read off the
/// network (conv embedding, input-split layer, dense trunk and head).
#[derive(Clone, Debug)]
pub struct NetShapes {
    boundary_len: usize,
    /// `(in_channels, out_channels, kernel)` per conv layer.
    convs: Vec<(usize, usize, usize)>,
    /// Width of the split layer's output.
    d0: usize,
    /// Length of the flattened boundary embedding.
    embed: usize,
    /// `(in, out)` of each trunk layer and the head.
    dense: Vec<(usize, usize)>,
}

impl NetShapes {
    /// Shapes of `net`.
    pub fn of(net: &SdNet) -> Self {
        let cfg = net.config();
        let convs: Vec<_> = net
            .convs()
            .iter()
            .map(|c| (c.in_channels(), c.out_channels(), c.kernel()))
            .collect();
        let embed = convs
            .last()
            .map_or(cfg.boundary_len, |&(_, oc, _)| cfg.boundary_len * oc);
        let dense = net
            .trunk()
            .iter()
            .chain(std::iter::once(net.head()))
            .map(|l| (l.in_dim(), l.out_dim()))
            .collect();
        Self {
            boundary_len: cfg.boundary_len,
            convs,
            d0: cfg.hidden[0],
            embed,
            dense,
        }
    }

    /// The GEMMs of one launch of `b` boundaries at `q` points, in
    /// execution order.
    pub fn gemms(&self, b: usize, q: usize) -> Vec<GemmShape> {
        let l = self.boundary_len;
        let mut out: Vec<GemmShape> = self
            .convs
            .iter()
            .map(|&(ic, oc, k)| GemmShape {
                rows: b * l,
                k: k * ic,
                n: oc,
            })
            .collect();
        out.push(GemmShape {
            rows: b,
            k: self.embed,
            n: self.d0,
        });
        out.extend(self.dense.iter().map(|&(i, o)| GemmShape {
            rows: b * q,
            k: i,
            n: o,
        }));
        out
    }

    /// Computed FLOPs of one launch: 2·rows·k·n per GEMM plus one per
    /// element for each bias add and the split add (activations are
    /// transcendental and not counted).
    pub fn flops(&self, b: usize, q: usize) -> f64 {
        let gemm: usize = self
            .gemms(b, q)
            .iter()
            .map(|g| 2 * g.rows * g.k * g.n)
            .sum();
        let conv_bias: usize = self
            .convs
            .iter()
            .map(|&(_, oc, _)| b * self.boundary_len * oc)
            .sum();
        let adds = 2 * b * q * self.d0 + self.dense.iter().map(|&(_, o)| b * q * o).sum::<usize>();
        (gemm + conv_bias + adds) as f64
    }

    /// Computed bytes of one launch: every GEMM reads its input and
    /// weight and writes its output once, in f64.
    pub fn bytes(&self, b: usize, q: usize) -> f64 {
        let elems: usize = self
            .gemms(b, q)
            .iter()
            .map(|g| g.rows * g.k + g.k * g.n + g.rows * g.n)
            .sum();
        (8 * elems) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::bitwise_eq;
    use mf_mfp::{try_run_distributed, DistMfpConfig, DomainSpec, Mfp, MfpConfig};
    use mf_nn::SdNetConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn solver() -> PlanSolver {
        let spec = SubdomainSpec { m: 9, spatial: 0.5 };
        let mut cfg = SdNetConfig::small(spec.boundary_len());
        cfg.conv_channels = vec![4];
        cfg.hidden = vec![16, 16];
        PlanSolver::new(SdNet::new(cfg, &mut ChaCha8Rng::seed_from_u64(3)), spec)
    }

    #[test]
    fn timing_wrapper_is_transparent_sequential_and_distributed() {
        let bare = solver();
        let spans = Spans::default();
        let timed = TimedSolver::new(&bare, Some(&spans));
        let d = DomainSpec::new(bare.spec(), 3, 2);
        let bc = mf_bench::gp_boundary(&d, 11);
        let cfg = MfpConfig {
            max_iters: 40,
            tol: 1e-6,
            ..MfpConfig::default()
        };
        let a = Mfp::new(&bare, d).run(&bc, &cfg);
        let b = Mfp::new(&timed, d).run(&bc, &cfg);
        assert_eq!(a.iterations, b.iterations);
        assert!(bitwise_eq(&a.grid, &b.grid));

        let dcfg = DistMfpConfig {
            max_iters: 40,
            tol: 1e-6,
            ..DistMfpConfig::default()
        };
        let a = try_run_distributed(&bare, &d, &bc, 2, &dcfg).expect("bare P=2 solve");
        let b = try_run_distributed(&timed, &d, &bc, 2, &dcfg).expect("wrapped P=2 solve");
        assert_eq!(a.iterations, b.iterations);
        assert!(bitwise_eq(&a.grid, &b.grid));

        let t = timed.totals();
        assert_eq!(t.launches, spans.events.lock().unwrap().len());
        assert!(t.launches > 0 && t.dense_launches > 0 && t.launch_s > 0.0);
    }

    #[test]
    fn flops_follow_the_plan_shapes() {
        let s = NetShapes::of(solver().net());
        // conv [4] on a 32-walk, kernel 5: one [32b, 5] x [5, 4] GEMM;
        // split [b, 128] x [128, 16]; trunk 16 -> 16; head 16 -> 1.
        let g = s.gemms(2, 13);
        assert_eq!(
            g[0],
            GemmShape {
                rows: 64,
                k: 5,
                n: 4
            }
        );
        assert_eq!(
            g[1],
            GemmShape {
                rows: 2,
                k: 128,
                n: 16
            }
        );
        assert_eq!(
            g.last(),
            Some(&GemmShape {
                rows: 26,
                k: 16,
                n: 1
            })
        );
        assert!(s.flops(2, 13) > 0.0 && s.bytes(2, 13) > 0.0);
        assert_eq!(s.flops(4, 13) - s.flops(2, 13), s.flops(2, 13));
    }
}
