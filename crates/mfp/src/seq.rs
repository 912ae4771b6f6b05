//! The Schwarz iteration engine: one request-batched loop for the
//! single-process predictor — baseline (unbatched) or device-parallel
//! batched (§4.1) — and the subdomain-launch kernel it shares with the
//! distributed rank loop.

use crate::domain::{DomainSpec, Subdomain};
use crate::solver::SubdomainSolver;
use mf_numerics::boundary::apply_boundary;
use mf_telemetry::{histogram, span, Buckets};
use mf_tensor::Tensor;
use rayon::prelude::*;

/// Early-stop criterion based on a reference solution (used by the
/// strong-scaling experiments, which iterate until MAE ≤ 0.05).
#[derive(Clone, Debug)]
pub struct MaeTarget {
    /// Reference solution on the full global grid.
    pub reference: Tensor,
    /// Stop once the lattice MAE against the reference drops below this.
    pub mae: f64,
    /// Check every this many iterations (must be positive).
    pub every: usize,
}

/// Iteration controls for [`Mfp::run`].
#[derive(Clone, Debug)]
pub struct MfpConfig {
    /// Maximum Schwarz iterations.
    pub max_iters: usize,
    /// Relative-change convergence threshold `δ` (Algorithm 2, line 5);
    /// set to 0 to disable.
    pub tol: f64,
    /// Batch each sweep group into one inference (§4.1) instead of solving
    /// one subdomain at a time.
    pub batched: bool,
    /// Optional reference-based stop.
    pub target: Option<MaeTarget>,
    /// Initialize the lattice from a coarse global solve before
    /// iterating (the coarse-grid correction of §5.3's cited future
    /// work) — typically cuts the iteration count severalfold on large
    /// domains.
    pub coarse_init: bool,
}

impl Default for MfpConfig {
    fn default() -> Self {
        Self {
            max_iters: 1000,
            tol: 1e-4,
            batched: true,
            target: None,
            coarse_init: false,
        }
    }
}

/// Outcome of an MFP run.
#[derive(Clone, Debug)]
pub struct MfpResult {
    /// Dense solution on the global grid.
    pub grid: Tensor,
    /// Schwarz iterations performed.
    pub iterations: usize,
    /// Whether a stop criterion fired before `max_iters`.
    pub converged: bool,
    /// Relative lattice change per iteration.
    pub deltas: Vec<f64>,
    /// `(iteration, lattice MAE)` history when a target was given.
    pub mae_history: Vec<(usize, f64)>,
}

/// The operator of the problem: `σu − Δu = f`, with `f` given on the
/// full global grid. The default (`σ = 0`, no forcing) is the Laplace
/// equation; `σ = 1/(α·Δt)` with `f = σ·uⁿ` is one implicit-Euler step of
/// the heat equation — the time-dependent extension hypothesized in §5.3
/// of the paper. A shifted problem needs a subdomain solver that
/// implements [`SubdomainSolver::solve_batch_shifted`] (the oracle does).
#[derive(Clone, Debug, Default)]
pub struct Shift {
    /// Diagonal shift `σ`.
    pub sigma: f64,
    /// Forcing `f` on the global grid (`None` is zero forcing).
    pub forcing: Option<Tensor>,
}

/// The points one subdomain launch predicts: local offsets and their
/// physical coordinates (the solver's query points).
pub(crate) struct Targets {
    offsets: Vec<(usize, usize)>,
    pts: Tensor,
}

impl Targets {
    fn new(domain: &DomainSpec, offsets: Vec<(usize, usize)>) -> Self {
        let pts = domain.offsets_to_points(&offsets);
        Self { offsets, pts }
    }

    /// The center cross every sweep writes.
    pub(crate) fn cross(domain: &DomainSpec) -> Self {
        Self::new(domain, domain.center_cross_offsets())
    }

    /// The full interior the final dense fill writes.
    pub(crate) fn interior(domain: &DomainSpec) -> Self {
        Self::new(domain, domain.interior_offsets())
    }
}

/// Reject zero iteration periods before any work starts: a period of 0
/// would divide by zero (or silently disable its check).
pub(crate) fn assert_positive_periods(periods: &[(&str, usize)]) {
    for &(name, period) in periods {
        assert!(period > 0, "{name} must be positive");
    }
}

/// The Mosaic Flow predictor bound to a solver, a domain and an operator.
pub struct Mfp<'a, S: SubdomainSolver> {
    solver: &'a S,
    domain: DomainSpec,
    shift: Shift,
}

impl<'a, S: SubdomainSolver> Mfp<'a, S> {
    /// Bind a solver to a domain (geometries must match), for the
    /// Laplace equation.
    pub fn new(solver: &'a S, domain: DomainSpec) -> Self {
        assert_eq!(
            solver.spec(),
            domain.sub,
            "Mfp: solver and domain subdomain geometry differ"
        );
        Self {
            solver,
            domain,
            shift: Shift::default(),
        }
    }

    /// Solve the shifted operator `σu − Δu = f` instead (see [`Shift`]).
    pub fn with_shift(mut self, shift: Shift) -> Self {
        if let Some(f) = &shift.forcing {
            assert_eq!(
                f.shape(),
                (self.domain.ny(), self.domain.nx()),
                "Mfp::with_shift: forcing shape mismatch"
            );
        }
        self.shift = shift;
        self
    }

    /// The bound domain.
    pub fn domain(&self) -> &DomainSpec {
        &self.domain
    }

    /// Solve the BVP given the global boundary walk `bc`
    /// (`1×boundary_len`): a batch of one through [`Mfp::run_many`].
    pub fn run(&self, bc: &Tensor, cfg: &MfpConfig) -> MfpResult {
        self.run_many(std::slice::from_ref(bc), cfg).remove(0)
    }

    /// Solve many BVPs on the *same* domain in one batched pass: each
    /// Schwarz sweep stacks every active request's group boundaries into
    /// a single launch (or, with `cfg.batched` off, one launch per
    /// request and subdomain), and the final dense fill packs all
    /// requests into one launch per point set.
    ///
    /// Because every solver row is independent (the property
    /// `plan_and_graph_paths_agree_bitwise` proves for the compiled
    /// plan), a batch of N is bitwise identical to N batches of one: each
    /// request's grid, iteration count, and deltas match [`Mfp::run`] on
    /// that request alone. Requests converge independently: a request
    /// that meets a stop criterion drops out of subsequent sweeps while
    /// the rest continue.
    ///
    /// This is the serving hot path: cross-request batching amortizes
    /// the per-launch fixed cost (plan-cache probe, workspace checkout,
    /// interpreter dispatch) that dominates small single-request
    /// launches.
    pub fn run_many(&self, bcs: &[Tensor], cfg: &MfpConfig) -> Vec<MfpResult> {
        let d = &self.domain;
        assert_positive_periods(&[(
            "MaeTarget::every",
            cfg.target.as_ref().map_or(1, |t| t.every),
        )]);
        let mut grids: Vec<Tensor> = bcs
            .iter()
            .map(|bc| {
                assert_eq!(
                    bc.numel(),
                    d.boundary_len(),
                    "Mfp::run: global boundary has wrong length"
                );
                let mut grid = Tensor::zeros(d.ny(), d.nx());
                apply_boundary(&mut grid, bc);
                if cfg.coarse_init {
                    d.coarse_initialize(&mut grid);
                }
                grid
            })
            .collect();
        let mut prevs = grids.clone();
        let mut results: Vec<MfpResult> = bcs
            .iter()
            .map(|_| MfpResult {
                grid: Tensor::zeros(0, 0),
                iterations: 0,
                converged: false,
                deltas: Vec::new(),
                mae_history: Vec::new(),
            })
            .collect();
        // `grids[..live]` are the requests still iterating, in request
        // order; `ids` maps each slot to its request.
        let mut ids: Vec<usize> = (0..bcs.len()).collect();
        let mut live = bcs.len();

        let groups = self.sweep_groups();
        let cross = Targets::cross(d);
        let whole = d.whole();
        let h_residual = histogram("mfp.residual", Buckets::exponential(1e-9, 10.0, 12));

        for it in 0..cfg.max_iters {
            if live == 0 {
                break;
            }
            span!("mfp.iteration", it = it as f64);
            mf_reqtrace::note_iteration(it as u32, live as u32);
            for (prev, grid) in prevs.iter_mut().zip(&grids[..live]) {
                prev.as_mut_slice().copy_from_slice(grid.as_slice());
            }
            {
                mf_profile::zone!("sweep");
                for group in &groups {
                    self.solve_into(&mut grids[..live], group, &cross, cfg.batched);
                }
            }
            // Make this thread's metrics visible to live scrapes once
            // per iteration (a warm publish does not allocate).
            mf_telemetry::publish_thread();

            let mut k = 0;
            while k < live {
                let (grid, prev, res) = (&grids[k], &prevs[k], &mut results[ids[k]]);
                res.iterations = it + 1;
                let delta = {
                    let num = d.lattice_diff_sumsq(grid, prev, &whole);
                    let den = d.lattice_sumsq(prev, &whole).max(f64::MIN_POSITIVE);
                    (num / den).sqrt()
                };
                h_residual.record(delta);
                res.deltas.push(delta);
                let mut stop = cfg.tol > 0.0 && delta < cfg.tol;
                if let Some(t) = &cfg.target {
                    if !stop && res.iterations.is_multiple_of(t.every) {
                        let mae = d.lattice_mae(grid, &t.reference);
                        res.mae_history.push((res.iterations, mae));
                        stop = mae <= t.mae;
                    }
                }
                res.converged = stop;
                mf_reqtrace::note_slot(ids[k], it as u32, delta, stop);
                if stop {
                    // Retire the slot behind the live ones; the rest
                    // keep their order.
                    live -= 1;
                    grids[k..=live].rotate_left(1);
                    prevs[k..=live].rotate_left(1);
                    ids[k..=live].rotate_left(1);
                } else {
                    k += 1;
                }
            }
        }

        // One dense launch packs every request's atomic subdomains: each
        // grid is frozen after its own convergence, so deferring the
        // fill to the end changes nothing.
        self.solve_into(
            &mut grids,
            &d.atomic_subdomains(),
            &Targets::interior(d),
            true,
        );
        for (id, grid) in ids.into_iter().zip(grids) {
            results[id].grid = grid;
        }
        results
    }

    /// The four non-overlapping sweep groups, in a fixed alternating
    /// order.
    pub fn sweep_groups(&self) -> [Vec<Subdomain>; 4] {
        let mut groups: [Vec<Subdomain>; 4] = Default::default();
        for sd in self.domain.subdomains() {
            groups[self.domain.group_of(sd)].push(sd);
        }
        groups
    }

    /// The one subdomain kernel of the engine, shared by every sweep
    /// (targets = center crosses) and the final dense fill (targets =
    /// atom interiors), sequential and distributed: solve every
    /// subdomain of `subs` on every grid and write the predictions at
    /// `targets` back.
    ///
    /// `batched` stacks all `(grid, subdomain)` windows — grid-major —
    /// into one launch (§4.1); otherwise each pair is its own launch (the
    /// original baseline), fanned out with rayon. The two agree bitwise:
    /// solver rows are independent, and `subs` must never read one
    /// another's writes — true of a sweep group or any subset of one
    /// (same-group windows share at most the one-cell seam line, which
    /// crosses never touch), and of the atomic subdomains.
    pub(crate) fn solve_into(
        &self,
        grids: &mut [Tensor],
        subs: &[Subdomain],
        targets: &Targets,
        batched: bool,
    ) {
        let rows: Vec<(usize, Subdomain)> = (0..grids.len())
            .flat_map(|g| subs.iter().map(move |&sd| (g, sd)))
            .collect();
        if rows.is_empty() {
            return;
        }
        let preds: Vec<Tensor> = if batched {
            vec![self.launch(grids, &rows, targets)]
        } else {
            let grids: &[Tensor] = grids;
            rows.clone()
                .into_par_iter()
                .map(|row| self.launch(grids, &[row], targets))
                .collect()
        };
        let mut values = preds.iter().flat_map(|p| p.as_slice().iter().copied());
        for &(g, sd) in &rows {
            for &(j, i) in &targets.offsets {
                let v = values
                    .next()
                    .expect("solver returned one value per row and target");
                grids[g].set(sd.oy + j, sd.ox + i, v);
            }
        }
    }

    /// One solver launch over the windows of `rows`, each a `(grid
    /// index, subdomain)` pair.
    fn launch(&self, grids: &[Tensor], rows: &[(usize, Subdomain)], targets: &Targets) -> Tensor {
        let d = &self.domain;
        let boundaries = Tensor::vstack(
            &rows
                .iter()
                .map(|&(g, sd)| d.read_window_boundary(&grids[g], sd))
                .collect::<Vec<_>>(),
        );
        let forcings = self.shift.forcing.as_ref().map(|f| {
            Tensor::vstack(
                &rows
                    .iter()
                    .map(|&(_, sd)| d.read_window_field(f, sd))
                    .collect::<Vec<_>>(),
            )
        });
        self.solver.solve_batch_shifted(
            self.shift.sigma,
            &boundaries,
            forcings.as_ref(),
            &targets.pts,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::OracleSolver;
    use mf_data::SubdomainSpec;
    use mf_numerics::boundary::{boundary_coords, grid_with_boundary};
    use mf_numerics::{solve_dirichlet, Poisson};

    fn spec() -> SubdomainSpec {
        SubdomainSpec { m: 9, spatial: 0.5 }
    }

    /// Global boundary walk of a harmonic function on the domain.
    fn harmonic_bc(d: &DomainSpec) -> (Tensor, Tensor) {
        let h = d.h();
        let f = |x: f64, y: f64| x * x - y * y + 0.3 * x * y;
        let coords = boundary_coords(d.ny(), d.nx());
        let bc = Tensor::from_vec(
            1,
            coords.len(),
            coords
                .iter()
                .map(|&(j, i)| f(i as f64 * h, j as f64 * h))
                .collect(),
        );
        let exact = Tensor::from_fn(d.ny(), d.nx(), |j, i| f(i as f64 * h, j as f64 * h));
        (bc, exact)
    }

    /// Reference via a single global numerical solve.
    fn reference(d: &DomainSpec, bc: &Tensor) -> Tensor {
        let guess = grid_with_boundary(d.ny(), d.nx(), bc);
        let (sol, stats) = solve_dirichlet(&Poisson::laplace(d.ny(), d.nx(), d.h()), &guess, 1e-9);
        assert!(stats.converged);
        sol
    }

    #[test]
    fn single_subdomain_domain_is_solved_in_one_iteration() {
        let d = DomainSpec::new(spec(), 1, 1);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let mfp = Mfp::new(&oracle, d);
        let (bc, exact) = harmonic_bc(&d);
        let res = mfp.run(
            &bc,
            &MfpConfig {
                max_iters: 3,
                tol: 1e-10,
                ..Default::default()
            },
        );
        assert!(
            res.grid.max_abs_diff(&exact) < 1e-5,
            "err {}",
            res.grid.max_abs_diff(&exact)
        );
    }

    #[test]
    fn mfp_with_oracle_converges_to_global_solution() {
        let d = DomainSpec::new(spec(), 2, 2);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let mfp = Mfp::new(&oracle, d);
        let (bc, _) = harmonic_bc(&d);
        let refsol = reference(&d, &bc);
        let res = mfp.run(
            &bc,
            &MfpConfig {
                max_iters: 200,
                tol: 1e-8,
                batched: true,
                target: None,
                coarse_init: false,
            },
        );
        assert!(
            res.converged,
            "did not converge in {} iters",
            res.iterations
        );
        let mae = res.grid.mean_abs_diff(&refsol);
        assert!(mae < 1e-4, "MAE vs global solve: {mae}");
    }

    #[test]
    fn batched_and_unbatched_produce_identical_results() {
        let d = DomainSpec::new(spec(), 2, 1);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let mfp = Mfp::new(&oracle, d);
        let (bc, _) = harmonic_bc(&d);
        let cfg_b = MfpConfig {
            max_iters: 5,
            tol: 0.0,
            batched: true,
            target: None,
            coarse_init: false,
        };
        let cfg_u = MfpConfig {
            batched: false,
            ..cfg_b.clone()
        };
        let rb = mfp.run(&bc, &cfg_b);
        let ru = mfp.run(&bc, &cfg_u);
        assert_eq!(rb.iterations, ru.iterations);
        assert!(
            rb.grid.max_abs_diff(&ru.grid) < 1e-12,
            "batched vs unbatched diverge: {}",
            rb.grid.max_abs_diff(&ru.grid)
        );
    }

    /// A small Fourier-feature SDNet for the compiled-vs-graph equality
    /// tests.
    fn equality_net(seed: u64) -> mf_nn::SdNet {
        use rand::SeedableRng;
        let mut cfg = mf_nn::SdNetConfig::small(spec().boundary_len());
        cfg.conv_channels = vec![2];
        cfg.hidden = vec![10, 10];
        cfg.coord_fourier = 2;
        mf_nn::SdNet::new(cfg, &mut rand_chacha::ChaCha8Rng::seed_from_u64(seed))
    }

    fn assert_grids_bitwise(a: &Tensor, b: &Tensor, what: &str) {
        assert_eq!(a.shape(), b.shape());
        for (k, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: cell {k} differs ({x} vs {y})"
            );
        }
    }

    #[test]
    fn plan_batched_and_unbatched_mfp_runs_are_bitwise_identical() {
        // The compiled-plan solver, the batched graph path, and the
        // unbatched graph path must agree *bit for bit* through a full
        // MFP run (sweeps + dense fill exercise two distinct plans).
        let d = DomainSpec::new(spec(), 2, 1);
        let net = equality_net(42);
        let (bc, _) = harmonic_bc(&d);
        let cfg_b = MfpConfig {
            max_iters: 3,
            tol: 0.0,
            batched: true,
            target: None,
            coarse_init: false,
        };
        let cfg_u = MfpConfig {
            batched: false,
            ..cfg_b.clone()
        };

        let plan = crate::PlanSolver::new(net.clone(), spec());
        let graph = crate::NeuralSolver::new(net, spec());
        let rp = Mfp::new(&plan, d).run(&bc, &cfg_b);
        let rb = Mfp::new(&graph, d).run(&bc, &cfg_b);
        let ru = Mfp::new(&graph, d).run(&bc, &cfg_u);
        assert_grids_bitwise(&rb.grid, &rp.grid, "plan vs batched graph");
        assert_grids_bitwise(&rb.grid, &ru.grid, "batched vs unbatched graph");
        // Sweeps reuse the cross-point plan after the first compile; the
        // dense fill compiles a second plan for the interior points.
        assert!(plan.cache_hits() > 0);
    }

    #[test]
    fn run_many_matches_individual_runs_bitwise() {
        use rand::{Rng, SeedableRng};
        let d = DomainSpec::new(spec(), 1, 1);
        let net = equality_net(3);
        let plan = crate::PlanSolver::new(net, spec());
        let mfp = Mfp::new(&plan, d);
        let cfg = MfpConfig {
            max_iters: 20,
            tol: 1e-6,
            ..Default::default()
        };
        let bcs: Vec<Tensor> = (0..5u64)
            .map(|s| {
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(s);
                Tensor::from_fn(1, d.boundary_len(), |_, _| rng.gen_range(-1.0..1.0))
            })
            .collect();
        let many = mfp.run_many(&bcs, &cfg);
        assert_eq!(many.len(), bcs.len());
        for (bc, m) in bcs.iter().zip(&many) {
            let alone = mfp.run(bc, &cfg);
            assert_eq!(alone.iterations, m.iterations);
            assert_eq!(alone.converged, m.converged);
            assert_eq!(alone.deltas.len(), m.deltas.len());
            for (a, b) in alone.deltas.iter().zip(&m.deltas) {
                assert_eq!(a.to_bits(), b.to_bits(), "delta history diverged");
            }
            assert_grids_bitwise(&alone.grid, &m.grid, "run_many vs run");
        }
    }

    #[test]
    fn run_many_handles_mixed_convergence_points() {
        // On a 2x2 domain different boundaries converge at different
        // iterations; early finishers must drop out of the sweeps without
        // perturbing the stragglers.
        let d = DomainSpec::new(spec(), 2, 2);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let mfp = Mfp::new(&oracle, d);
        let cfg = MfpConfig {
            max_iters: 300,
            tol: 1e-6,
            ..Default::default()
        };
        // A zero boundary keeps the grid identically zero (delta 0 on the
        // first check); a harmonic one takes many Schwarz iterations.
        let flat = Tensor::zeros(1, d.boundary_len());
        let (hard, _) = harmonic_bc(&d);
        let many = mfp.run_many(&[flat.clone(), hard.clone()], &cfg);
        let flat_alone = mfp.run(&flat, &cfg);
        let hard_alone = mfp.run(&hard, &cfg);
        assert!(many[0].iterations < many[1].iterations);
        assert_eq!(many[0].iterations, flat_alone.iterations);
        assert_eq!(many[1].iterations, hard_alone.iterations);
        assert_grids_bitwise(&many[0].grid, &flat_alone.grid, "flat");
        assert_grids_bitwise(&many[1].grid, &hard_alone.grid, "hard");
    }

    #[test]
    fn run_many_honours_unbatched_launches_bitwise() {
        // `batched: false` is the per-subdomain baseline Fig 8 times: one
        // launch per (request, subdomain) per group, bitwise equal to the
        // stacked launches.
        use rand::{Rng, SeedableRng};
        let d = DomainSpec::new(spec(), 2, 2);
        let mfp_cfg = |batched| MfpConfig {
            max_iters: 4,
            tol: 0.0,
            batched,
            ..Default::default()
        };
        let bcs: Vec<Tensor> = (0..3u64)
            .map(|s| {
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(s);
                Tensor::from_fn(1, d.boundary_len(), |_, _| rng.gen_range(-1.0..1.0))
            })
            .collect();
        let batched_plan = crate::PlanSolver::new(equality_net(5), spec());
        let single_plan = crate::PlanSolver::new(equality_net(5), spec());
        let b = Mfp::new(&batched_plan, d).run_many(&bcs, &mfp_cfg(true));
        let u = Mfp::new(&single_plan, d).run_many(&bcs, &mfp_cfg(false));
        for (rb, ru) in b.iter().zip(&u) {
            assert_eq!(rb.deltas, ru.deltas);
            assert_grids_bitwise(&rb.grid, &ru.grid, "batched vs unbatched run_many");
        }
        // Four groups per iteration, one launch each when batched, one
        // per (request, subdomain) otherwise; plus one dense-fill launch.
        let subdomains = d.subdomains().len();
        assert_eq!(batched_plan.launch_count(), 4 * 4 + 1);
        assert_eq!(single_plan.launch_count(), 4 * 3 * subdomains + 1);
    }

    #[test]
    #[should_panic(expected = "MaeTarget::every must be positive")]
    fn zero_mae_period_is_rejected() {
        let d = DomainSpec::new(spec(), 1, 1);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let (bc, exact) = harmonic_bc(&d);
        Mfp::new(&oracle, d).run(
            &bc,
            &MfpConfig {
                target: Some(MaeTarget {
                    reference: exact,
                    mae: 0.0,
                    every: 0,
                }),
                ..Default::default()
            },
        );
    }

    #[test]
    fn run_many_on_empty_input_returns_empty() {
        let d = DomainSpec::new(spec(), 1, 1);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let mfp = Mfp::new(&oracle, d);
        assert!(mfp.run_many(&[], &MfpConfig::default()).is_empty());
    }

    mod plan_equality_proptests {
        use super::*;
        use proptest::prelude::*;
        use rand::{Rng, SeedableRng};

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            /// The compiled plan, the batched graph path, and the
            /// per-boundary graph path must be bitwise-identical for any
            /// weights, boundaries, and query points.
            #[test]
            fn plan_and_graph_paths_agree_bitwise(
                net_seed in 0u64..1_000_000,
                data_seed in 0u64..1_000_000,
                b in 1usize..5,
                q in 1usize..9,
            ) {
                let spec = spec();
                let net = equality_net(net_seed);
                let plan = crate::PlanSolver::new(net.clone(), spec);
                let graph = crate::NeuralSolver::new(net, spec);
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(data_seed);
                let bnd = Tensor::from_fn(b, spec.boundary_len(), |_, _| {
                    rng.gen_range(-1.0..1.0)
                });
                let pts = Tensor::from_fn(q, 2, |_, _| rng.gen_range(0.0..0.5));

                let compiled = plan.solve_batch(&bnd, &pts);
                let batched = graph.solve_batch(&bnd, &pts);
                for (x, y) in batched.as_slice().iter().zip(compiled.as_slice()) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
                // Unbatched graph path: one boundary per launch.
                for bi in 0..b {
                    let row = Tensor::from_fn(1, spec.boundary_len(), |_, c| bnd.get(bi, c));
                    let single = graph.solve_batch(&row, &pts);
                    for k in 0..q {
                        prop_assert_eq!(
                            single.get(k, 0).to_bits(),
                            batched.get(bi * q + k, 0).to_bits()
                        );
                    }
                }
            }

            /// Batched serving's correctness foundation: a multi-request
            /// `run_many` is bitwise identical to solving each request
            /// alone, for any weights, request count, and iteration
            /// budget.
            #[test]
            fn run_many_agrees_with_individual_runs_bitwise(
                net_seed in 0u64..1_000_000,
                data_seed in 0u64..1_000_000,
                n in 1usize..4,
                max_iters in 1usize..4,
                wide in proptest::bool::ANY,
            ) {
                use rand::{Rng, SeedableRng};
                let spec = spec();
                let d = DomainSpec::new(spec, if wide { 2 } else { 1 }, 1);
                let net = equality_net(net_seed);
                let plan = crate::PlanSolver::new(net, spec);
                let mfp = Mfp::new(&plan, d);
                let cfg = MfpConfig {
                    max_iters,
                    tol: 1e-3,
                    ..Default::default()
                };
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(data_seed);
                let bcs: Vec<Tensor> = (0..n)
                    .map(|_| Tensor::from_fn(1, d.boundary_len(), |_, _| {
                        rng.gen_range(-1.0..1.0)
                    }))
                    .collect();
                let many = mfp.run_many(&bcs, &cfg);
                for (bc, m) in bcs.iter().zip(&many) {
                    let alone = mfp.run(bc, &cfg);
                    prop_assert_eq!(alone.iterations, m.iterations);
                    prop_assert_eq!(alone.converged, m.converged);
                    for (x, y) in alone.grid.as_slice().iter().zip(m.grid.as_slice()) {
                        prop_assert_eq!(x.to_bits(), y.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn deltas_decay_monotonically_in_the_tail() {
        let d = DomainSpec::new(spec(), 2, 2);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let mfp = Mfp::new(&oracle, d);
        let (bc, _) = harmonic_bc(&d);
        let res = mfp.run(
            &bc,
            &MfpConfig {
                max_iters: 30,
                tol: 0.0,
                ..Default::default()
            },
        );
        assert_eq!(res.deltas.len(), 30);
        // Schwarz for Laplace contracts: late deltas well below early ones.
        let early = res.deltas[1];
        let late = *res.deltas.last().unwrap();
        assert!(
            late < early * 0.1,
            "deltas did not contract: {early} -> {late}"
        );
    }

    #[test]
    fn global_boundary_is_never_modified() {
        let d = DomainSpec::new(spec(), 2, 1);
        let oracle = OracleSolver::new(spec(), 1e-9);
        let mfp = Mfp::new(&oracle, d);
        let (bc, _) = harmonic_bc(&d);
        let res = mfp.run(
            &bc,
            &MfpConfig {
                max_iters: 3,
                tol: 0.0,
                ..Default::default()
            },
        );
        let out_bc = mf_numerics::boundary::extract_boundary(&res.grid);
        assert!(out_bc.allclose(&bc, 1e-12));
    }

    #[test]
    fn shifted_mfp_matches_global_shifted_solve() {
        // Manufactured problem: σu − Δu = f with u = sin(πx/W)sin(πy/H)
        // on the domain, zero boundary.
        use mf_numerics::solve_shifted_sor;
        let d = DomainSpec::new(spec(), 2, 1);
        let (w, hgt) = ((d.nx() - 1) as f64 * d.h(), (d.ny() - 1) as f64 * d.h());
        let pi = std::f64::consts::PI;
        let sigma = 40.0;
        let exact = Tensor::from_fn(d.ny(), d.nx(), |j, i| {
            (pi * i as f64 * d.h() / w).sin() * (pi * j as f64 * d.h() / hgt).sin()
        });
        let lam = (pi / w).powi(2) + (pi / hgt).powi(2);
        let forcing = exact.scale(sigma + lam);
        let bc = Tensor::zeros(1, d.boundary_len());

        // Global reference with the same discretization.
        let problem = mf_numerics::Poisson {
            f: forcing.clone(),
            h: d.h(),
        };
        let guess = Tensor::zeros(d.ny(), d.nx());
        let (reference, st) = solve_shifted_sor(&problem, sigma, &guess, 1.5, 100_000, 1e-10);
        assert!(st.converged);

        let oracle = OracleSolver::new(spec(), 1e-10);
        let mfp = Mfp::new(&oracle, d).with_shift(Shift {
            sigma,
            forcing: Some(forcing),
        });
        let res = mfp.run(
            &bc,
            &MfpConfig {
                max_iters: 300,
                tol: 1e-9,
                ..Default::default()
            },
        );
        assert!(res.converged, "shifted MFP did not converge");
        let mae = res.grid.mean_abs_diff(&reference);
        assert!(mae < 1e-5, "MAE vs global shifted solve: {mae}");
        // And against the continuum solution, up to discretization error.
        assert!(res.grid.mean_abs_diff(&exact) < 5e-3);
    }

    #[test]
    fn shifted_mfp_converges_faster_than_laplace_mfp() {
        // Diagonal dominance (σ > 0) localizes the problem: information
        // needs fewer Schwarz iterations — the basis of §5.3's hypothesis
        // that time-dependent problems suit one-level Schwarz.
        let d = DomainSpec::new(spec(), 4, 2);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let mfp = Mfp::new(&oracle, d);
        let (bc, _) = harmonic_bc(&d);
        let cfg = MfpConfig {
            max_iters: 2000,
            tol: 1e-7,
            ..Default::default()
        };
        let laplace = mfp.run(&bc, &cfg);
        let shifted = Mfp::new(&oracle, d)
            .with_shift(Shift {
                sigma: 200.0,
                forcing: Some(Tensor::zeros(d.ny(), d.nx())),
            })
            .run(&bc, &cfg);
        assert!(laplace.converged && shifted.converged);
        assert!(
            shifted.iterations < laplace.iterations,
            "shifted ({}) should beat Laplace ({})",
            shifted.iterations,
            laplace.iterations
        );
    }

    #[test]
    fn coarse_init_cuts_iterations_without_changing_the_answer() {
        // The coarse-grid initialization (cited future work of §5.3)
        // propagates boundary information globally in one cheap solve, so
        // the Schwarz iteration starts much closer to the fixed point.
        let d = DomainSpec::new(spec(), 4, 4);
        let oracle = OracleSolver::new(spec(), 1e-10);
        let mfp = Mfp::new(&oracle, d);
        let (bc, _) = harmonic_bc(&d);
        let plain = mfp.run(
            &bc,
            &MfpConfig {
                max_iters: 2000,
                tol: 1e-7,
                ..Default::default()
            },
        );
        let coarse = mfp.run(
            &bc,
            &MfpConfig {
                max_iters: 2000,
                tol: 1e-7,
                coarse_init: true,
                ..Default::default()
            },
        );
        assert!(plain.converged && coarse.converged);
        assert!(
            (coarse.iterations as f64) <= 0.8 * plain.iterations as f64,
            "coarse init should cut iterations noticeably: {} vs {}",
            coarse.iterations,
            plain.iterations
        );
        assert!(
            plain.grid.mean_abs_diff(&coarse.grid) < 1e-5,
            "coarse init changed the converged solution"
        );
    }

    #[test]
    fn coarse_initialize_is_exact_for_linear_solutions() {
        // A linear harmonic function is reproduced exactly by the coarse
        // solve + linear interpolation, so the lattice starts at the
        // exact solution.
        let d = DomainSpec::new(spec(), 2, 2);
        let h = d.h();
        let f = |x: f64, y: f64| 1.0 + 2.0 * x - 3.0 * y;
        let coords = mf_numerics::boundary::boundary_coords(d.ny(), d.nx());
        let bc = Tensor::from_vec(
            1,
            coords.len(),
            coords
                .iter()
                .map(|&(j, i)| f(i as f64 * h, j as f64 * h))
                .collect(),
        );
        let mut grid = Tensor::zeros(d.ny(), d.nx());
        apply_boundary(&mut grid, &bc);
        d.coarse_initialize(&mut grid);
        for j in 0..d.ny() {
            for i in 0..d.nx() {
                if d.on_lattice(j, i) {
                    let e = f(i as f64 * h, j as f64 * h);
                    assert!(
                        (grid.get(j, i) - e).abs() < 1e-7,
                        "lattice point ({j},{i}): {} vs {e}",
                        grid.get(j, i)
                    );
                }
            }
        }
    }

    #[test]
    fn mae_target_stops_early_and_records_history() {
        let d = DomainSpec::new(spec(), 2, 2);
        let oracle = OracleSolver::new(spec(), 1e-9);
        let mfp = Mfp::new(&oracle, d);
        let (bc, _) = harmonic_bc(&d);
        let refsol = reference(&d, &bc);
        let res = mfp.run(
            &bc,
            &MfpConfig {
                max_iters: 500,
                tol: 0.0,
                batched: true,
                target: Some(MaeTarget {
                    reference: refsol,
                    mae: 0.05,
                    every: 1,
                }),
                coarse_init: false,
            },
        );
        assert!(res.converged);
        assert!(res.iterations < 500);
        assert!(!res.mae_history.is_empty());
        // History MAE is decreasing overall.
        let first = res.mae_history[0].1;
        let last = res.mae_history.last().unwrap().1;
        assert!(last <= first);
        assert!(last <= 0.05);
    }
}
