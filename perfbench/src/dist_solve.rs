//! `dist-solve`: Algorithm 2 of the paper. A fixed set of GP boundaries
//! on an 8×8-atom domain (a 65×65 grid, 64× the training subdomain) is
//! solved to tolerance by `try_run_distributed` at P = 2 rank threads
//! with the default overlapped schedule, and by the single-threaded
//! `Mfp::run` as the baseline. The Schwarz sweep, halo exchange,
//! allreduce and mid-size plan launches do the work; no serve layer.

use crate::check::{self, Checks};
use crate::layers::{Spans, TimedSolver};
use crate::stats::{self, median};
use crate::Measured;
use mf_dist::PerfModel;
use mf_mfp::{
    try_run_distributed, DistMfpConfig, DistMfpResult, DomainSpec, Mfp, MfpConfig, PlanSolver,
    SubdomainSolver,
};
use mf_tensor::Tensor;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Subdomains per axis.
pub const SIDE: usize = 8;
/// Rank threads.
pub const RANKS: usize = 2;
/// Convergence tolerance.
pub const TOL: f64 = 1e-5;
/// Iteration cap, well above the slowest boundary of the set.
pub const MAX_ITERS: usize = 2000;
/// The fixed boundary set (GP seeds). Iteration counts differ severalfold
/// across GP seeds, so the set never depends on the workload seed; the
/// workload seed only orders the solves.
pub const BOUNDARIES: [u64; 4] = [2, 4, 3, 10];

/// The domain.
pub fn domain(solver: &PlanSolver) -> DomainSpec {
    DomainSpec::new(solver.spec(), SIDE, SIDE)
}

fn dist_cfg() -> DistMfpConfig {
    DistMfpConfig {
        max_iters: MAX_ITERS,
        tol: TOL,
        ..DistMfpConfig::default()
    }
}

fn seq_cfg() -> MfpConfig {
    MfpConfig {
        max_iters: MAX_ITERS,
        tol: TOL,
        ..MfpConfig::default()
    }
}

/// Build and warm the solver: compile the sweep and dense-fill plans and
/// grow the workspace pool on both paths (the end of set-up).
pub fn ready(solver: PlanSolver) -> PlanSolver {
    let d = domain(&solver);
    let zero = Tensor::zeros(1, d.boundary_len());
    let warm = MfpConfig {
        max_iters: 2,
        ..seq_cfg()
    };
    let _ = Mfp::new(&solver, d).run(&zero, &warm);
    let cfg = DistMfpConfig {
        max_iters: 2,
        ..dist_cfg()
    };
    let _ = try_run_distributed(&solver, &d, &zero, RANKS, &cfg);
    solver
}

/// The boundary set with its multigrid references.
pub struct Problems {
    pub bcs: Vec<Tensor>,
    pub refs: Vec<Tensor>,
}

/// Generate the fixed boundary set and reference solutions.
pub fn problems(solver: &PlanSolver) -> Problems {
    let d = domain(solver);
    let bcs: Vec<Tensor> = BOUNDARIES
        .iter()
        .map(|&s| mf_bench::gp_boundary(&d, s))
        .collect();
    let refs = bcs
        .iter()
        .map(|bc| mf_bench::reference_solution(&d, bc))
        .collect();
    Problems { bcs, refs }
}

/// First result per boundary and path; later repeats must match it.
#[derive(Default)]
struct Firsts {
    dist: Vec<Option<(usize, Tensor)>>,
    seq: Vec<Option<(usize, Tensor)>>,
}

fn same_as_first(first: &mut Option<(usize, Tensor)>, iters: usize, grid: &Tensor) -> bool {
    match first {
        None => {
            *first = Some((iters, grid.clone()));
            true
        }
        Some((i, g)) => *i == iters && check::bitwise_eq(g, grid),
    }
}

/// Per-solve samples of one measured pass set.
#[derive(Default)]
struct Samples {
    dist_s: Vec<Vec<f64>>,
    seq_s: Vec<Vec<f64>>,
    dist_iters: Vec<usize>,
    dist_mae: Vec<f64>,
    reports: Vec<(f64, DistMfpResult)>,
    attempted: u64,
}

#[allow(clippy::too_many_arguments)]
fn passes<S: SubdomainSolver>(
    solver: &S,
    d: &DomainSpec,
    p: &Problems,
    seed: u64,
    secs: f64,
    firsts: &mut Firsts,
    checks: &mut Checks,
    spans: Option<&Spans>,
) -> Samples {
    let n = p.bcs.len();
    let mut s = Samples {
        dist_s: vec![Vec::new(); n],
        seq_s: vec![Vec::new(); n],
        ..Default::default()
    };
    firsts.dist.resize(n, None);
    firsts.seq.resize(n, None);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xD157);
    let start = Instant::now();
    // Whole passes only, at least one, so every boundary weighs the same.
    while s.attempted == 0 || start.elapsed().as_secs_f64() < secs {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        for k in order {
            let bc = &p.bcs[k];
            let dist_first = rng.gen_bool(0.5);
            for run_dist in [dist_first, !dist_first] {
                s.attempted += 1;
                let t0 = mf_telemetry::now_us();
                let t = Instant::now();
                if run_dist {
                    match try_run_distributed(solver, d, bc, RANKS, &dist_cfg()) {
                        Ok(r) => {
                            let wall = t.elapsed().as_secs_f64();
                            if let Some(sp) = spans {
                                sp.record(
                                    "dist.solve",
                                    t0,
                                    (wall * 1e6) as u64,
                                    0,
                                    &[("boundary", k as f64)],
                                );
                            }
                            s.dist_s[k].push(wall);
                            if !r.converged {
                                checks.fail(format!("P={RANKS} boundary {k}: no convergence in {MAX_ITERS} iterations"));
                            } else if !same_as_first(&mut firsts.dist[k], r.iterations, &r.grid) {
                                checks.fail(format!(
                                    "P={RANKS} boundary {k}: a repeat solve differs"
                                ));
                            }
                            s.dist_iters.push(r.iterations);
                            s.dist_mae.push(check::mae(&r.grid, &p.refs[k]));
                            s.reports.push((wall, r));
                        }
                        Err(e) => checks.fail(format!("P={RANKS} boundary {k}: {e}")),
                    }
                } else {
                    let r = Mfp::new(solver, *d).run(bc, &seq_cfg());
                    let wall = t.elapsed().as_secs_f64();
                    if let Some(sp) = spans {
                        sp.record(
                            "mfp.solve",
                            t0,
                            (wall * 1e6) as u64,
                            0,
                            &[("boundary", k as f64)],
                        );
                    }
                    s.seq_s[k].push(wall);
                    if !r.converged {
                        checks.fail(format!(
                            "sequential boundary {k}: no convergence in {MAX_ITERS} iterations"
                        ));
                    } else if !same_as_first(&mut firsts.seq[k], r.iterations, &r.grid) {
                        checks.fail(format!("sequential boundary {k}: a repeat solve differs"));
                    }
                }
            }
        }
    }
    s
}

/// Median over the boundary set of each boundary's median time.
fn median_of_medians(per: &[Vec<f64>]) -> f64 {
    median(
        &per.iter()
            .filter(|v| !v.is_empty())
            .map(|v| median(v))
            .collect::<Vec<_>>(),
    )
}

/// Solve the boundary set repeatedly for `secs` seconds. Untraced runs
/// use the bare solver; traced runs wrap it, and every wrapped result
/// must match the bare one bitwise.
pub fn measure(
    solver: &PlanSolver,
    p: &Problems,
    seed: u64,
    secs: f64,
    spans: Option<&Spans>,
) -> Measured {
    let d = domain(solver);
    let mut checks = Checks::default();
    let mut firsts = Firsts::default();
    let mut m = Measured::default();
    let s = match spans {
        None => passes(solver, &d, p, seed, secs, &mut firsts, &mut checks, None),
        Some(spans) => {
            // One bare pass fixes the expected results for the wrapped
            // passes (transparency of the timing wrapper).
            let bare = passes(solver, &d, p, seed, 0.0, &mut firsts, &mut checks, None);
            m.attempted += bare.attempted;
            let timed = TimedSolver::new(solver, Some(spans));
            let compiles0 = timed.compiles();
            let s = passes(
                &timed,
                &d,
                p,
                seed,
                secs,
                &mut firsts,
                &mut checks,
                Some(spans),
            );
            layer_metrics(&mut m, solver, &d, p, &s, spans);
            // Compile misses over the whole traced window, both paths.
            m.layer("infer.compiles", (timed.compiles() - compiles0) as f64);
            s
        }
    };
    // Each boundary's time to tolerance is its median over the passes;
    // latency percentiles run over the boundary set.
    let per_boundary: Vec<f64> = s.dist_s.iter().map(|v| median(v) * 1e3).collect();
    let lat = stats::summarize(&per_boundary);
    let solve_s = median_of_medians(&s.dist_s);
    let solve_seq_s = median_of_medians(&s.seq_s);
    m.e2e("latency_p50_ms", lat.p50);
    m.e2e(
        "throughput_rps",
        per_boundary.len() as f64 / (per_boundary.iter().sum::<f64>() * 1e-3),
    );
    m.e2e("solve_s", solve_s);
    m.e2e("solve_seq_s", solve_seq_s);
    m.e2e("solution_mae", stats::mean(&s.dist_mae));
    m.attempted += s.attempted;
    m.checks = checks;
    m.primary_time = solve_s;
    let iters: Vec<String> = firsts
        .dist
        .iter()
        .zip(&firsts.seq)
        .map(|(a, b)| {
            let it =
                |f: &Option<(usize, Tensor)>| f.as_ref().map_or("-".into(), |(i, _)| i.to_string());
            format!("{}/{}", it(a), it(b))
        })
        .collect();
    m.note(format!(
        "{SIDE}x{SIDE} atoms ({}x{} grid), {} boundaries x {} passes, tol {TOL:e}: per-boundary median P={RANKS} time p50 {:.2} ms, slowest {:.2} ms (n={}, tail p{}); iterations P={RANKS}/seq per boundary: {}",
        d.nx(),
        d.ny(),
        p.bcs.len(),
        s.dist_s.iter().map(Vec::len).min().unwrap_or(0),
        lat.p50,
        lat.p99,
        lat.n,
        lat.tail_p,
        iters.join(" ")
    ));
    m
}

fn layer_metrics(
    m: &mut Measured,
    solver: &PlanSolver,
    d: &DomainSpec,
    p: &Problems,
    s: &Samples,
    spans: &Spans,
) {
    // Slowest-rank accounting from the rank reports of the P=2 solves.
    let model = PerfModel::a30_cluster();
    let (mut compute, mut pack, mut comm, mut modeled, mut unattr) =
        (vec![], vec![], vec![], vec![], vec![]);
    let (mut msgs, mut bytes, mut iters) = (0usize, 0usize, 0usize);
    for (wall, r) in &s.reports {
        // The slowest rank: the most time in compute + pack + comm.
        let busy =
            |x: &mf_mfp::RankReport| x.compute_seconds + x.pack_seconds + x.comm.comm_seconds;
        let Some(slow) = r.reports.iter().max_by(|a, b| busy(a).total_cmp(&busy(b))) else {
            continue;
        };
        compute.push(slow.compute_seconds);
        pack.push(slow.pack_seconds);
        comm.push(slow.comm.comm_seconds);
        modeled.push(model.time_for(&slow.halo));
        unattr.push(wall - busy(slow));
        msgs += r.reports.iter().map(|x| x.halo.msgs_sent).sum::<usize>();
        bytes += r.reports.iter().map(|x| x.halo.bytes_sent).sum::<usize>();
        iters += r.iterations;
    }
    let per_iter = |x: usize| x as f64 / iters.max(1) as f64;
    m.layer("dist.compute_s", stats::mean(&compute));
    m.layer("dist.pack_s", stats::mean(&pack));
    m.layer("dist.comm_wait_s", stats::mean(&comm));
    m.layer("dist.msgs_per_iter", per_iter(msgs));
    m.layer("dist.bytes_per_iter", per_iter(bytes));
    m.layer("dist.modeled_comm_s", stats::mean(&modeled));
    m.layer("dist.unattributed_s", stats::mean(&unattr));
    let walls: Vec<f64> = s.reports.iter().map(|(w, _)| *w).collect();
    m.layer(
        "dist.scaling_eff",
        median_of_medians(&s.seq_s) / (RANKS as f64 * median_of_medians(&s.dist_s)),
    );
    m.note(crate::layer_sum(
        &format!(
            "dist-solve P={RANKS}, mean over {} solves (slowest rank)",
            walls.len()
        ),
        stats::mean(&walls),
        &[
            ("dist.compute", stats::mean(&compute)),
            ("dist.pack", stats::mean(&pack)),
            ("dist.comm_wait", stats::mean(&comm)),
        ],
        "s",
    ));

    // Launch-level layers on the sequential path, one thread, so launch
    // time and sweep self time split the wall cleanly.
    let timed = TimedSolver::new(solver, Some(spans));
    let compiles0 = timed.compiles();
    let cfg = seq_cfg();
    let mut wall = 0.0;
    for bc in &p.bcs {
        let t = Instant::now();
        let _ = Mfp::new(&timed, *d).run(bc, &cfg);
        wall += t.elapsed().as_secs_f64();
    }
    let t = timed.totals();
    let mean_iters = stats::mean(&s.dist_iters.iter().map(|&i| i as f64).collect::<Vec<_>>());
    crate::mfp_infer_layers(
        m,
        mean_iters,
        p.bcs.len(),
        wall,
        t.launches,
        t.rows,
        t.launch_s,
        t.dense_s,
        t.flops,
        t.bytes,
        timed.compiles() - compiles0,
    );
    m.note(crate::layer_sum(
        "dist-solve sequential baseline, one pass of the boundary set",
        wall,
        &[
            ("infer.launch (sweep)", t.launch_s - t.dense_s),
            ("infer.launch (dense fill)", t.dense_s),
        ],
        "s",
    ));
}
