//! The repository benchmark: served-request latency and capacity, and
//! distributed time to tolerance, with a traced run that splits each
//! into the crates' layers.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-batch|serve-wire|dist-solve --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload trains one SDNet in set-up and afterwards runs only
//! inference. `--trace 0` prints the end-to-end metrics, measured with
//! the program as shipped; `--trace 1` runs the workload half untraced,
//! half with the benchmark's timing wrappers on, and prints the
//! per-layer metrics. The last stdout line is one JSON object; the exit
//! code is non-zero when any output check fails. See `README.md`.

mod check;
mod dist_solve;
mod layers;
mod roofline;
mod serve_batch;
mod serve_wire;
mod setup;
mod stats;

use check::Checks;
use layers::{NetShapes, Spans};
use mf_mfp::PlanSolver;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// Iteration cap of every served request.
pub const SERVE_MAX_ITERS: usize = 100;
/// Convergence tolerance of every served request.
pub const SERVE_TOL: f64 = 1e-4;

/// Workload names, as in `BENCHMARK.json`.
pub const WORKLOADS: [&str; 3] = ["serve-batch", "serve-wire", "dist-solve"];

/// End-to-end metrics and units, as in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("latency_p50_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("solve_s", "s"),
    ("solve_seq_s", "s"),
    ("solution_mae", "abs"),
    ("setup_s", "s"),
];

/// Per-layer metrics and units, as in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("setup.train_s", "s"),
    ("setup.warm_s", "s"),
    ("serve.parse_us", "us"),
    ("serve.render_us", "us"),
    ("serve.queue_us", "us"),
    ("serve.batch_wait_us", "us"),
    ("serve.solve_us", "us"),
    ("serve.serialize_us", "us"),
    ("serve.occupancy", "req/batch"),
    ("serve.wire_us", "us"),
    ("serve.gen_lag_ms", "ms"),
    ("mfp.iterations", "count"),
    ("mfp.launches", "count"),
    ("mfp.sweep_self_s", "s"),
    ("mfp.dense_fill_s", "s"),
    ("infer.launch_us", "us"),
    ("infer.rows_per_launch", "rows"),
    ("infer.gflops", "GFLOP/s"),
    ("infer.compiles", "count"),
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("tensor.peak_gflops", "GFLOP/s"),
    ("tensor.stream_gbs", "GB/s"),
    ("tensor.roofline_frac", "ratio"),
    ("dist.compute_s", "s"),
    ("dist.pack_s", "s"),
    ("dist.comm_wait_s", "s"),
    ("dist.msgs_per_iter", "count"),
    ("dist.bytes_per_iter", "B"),
    ("dist.modeled_comm_s", "s-modeled"),
    ("dist.unattributed_s", "s"),
    ("dist.scaling_eff", "ratio"),
    ("obs.trace_overhead", "ratio"),
];

/// What one measured window produced.
#[derive(Default)]
pub struct Measured {
    e2e: BTreeMap<&'static str, f64>,
    layers: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Output-check failures.
    pub checks: Checks,
    /// The workload's headline time, for the tracing-overhead ratio.
    pub primary_time: f64,
    /// Computed FLOPs per byte of the measured launches.
    flops_per_byte: f64,
}

impl Measured {
    /// Set an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, v: f64) {
        debug_assert!(END_TO_END.iter().any(|(n, _)| *n == name), "{name}");
        self.e2e.insert(name, v);
    }

    /// Set a per-layer metric.
    pub fn layer(&mut self, name: &'static str, v: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.layers.insert(name, v);
    }

    /// Add a line to the human-readable report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// A layer-sum line: the layers' self times beside the wall time, with
/// the unattributed remainder stated.
pub fn layer_sum(title: &str, wall: f64, parts: &[(&str, f64)], unit: &str) -> String {
    let sum: f64 = parts.iter().map(|(_, v)| v).sum();
    let mut s = format!("layer sum, {title}: wall {wall:.6} {unit} =");
    for (name, v) in parts {
        s.push_str(&format!(" {name} {v:.6} +"));
    }
    s.push_str(&format!(
        " unattributed {:.6} {unit} ({:.1}% of wall)",
        wall - sum,
        100.0 * (wall - sum) / wall
    ));
    s
}

/// The Schwarz-sweep and plan-launch layers from a timed solver's
/// totals over `solves` solves taking `wall` seconds.
#[allow(clippy::too_many_arguments)]
pub fn mfp_infer_layers(
    m: &mut Measured,
    iterations: f64,
    solves: usize,
    wall: f64,
    launches: usize,
    rows: usize,
    launch_s: f64,
    dense_s: f64,
    flops: f64,
    bytes: f64,
    compiles: usize,
) {
    let per_solve = |x: f64| x / solves.max(1) as f64;
    let per_launch = |x: f64| x / launches.max(1) as f64;
    m.layer("mfp.iterations", iterations);
    m.layer("mfp.launches", per_solve(launches as f64));
    m.layer("mfp.sweep_self_s", per_solve(wall - launch_s));
    m.layer("mfp.dense_fill_s", per_solve(dense_s));
    m.layer("infer.launch_us", per_launch(launch_s) * 1e6);
    m.layer("infer.rows_per_launch", per_launch(rows as f64));
    m.layer("infer.gflops", flops / launch_s / 1e9);
    m.layer("infer.compiles", compiles as f64);
    m.flops_per_byte = flops / bytes;
    m.note(format!(
        "computed per launch: {:.0} FLOP, {:.0} bytes ({:.2} FLOP/byte) over {launches} launches",
        per_launch(flops),
        per_launch(bytes),
        flops / bytes
    ));
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = val.parse().map_err(|_| format!("bad --seed {val:?}"))?,
            "--seconds" => {
                seconds = val.parse().map_err(|_| format!("bad --seconds {val:?}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {val} out of range (0, 600]"));
                }
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {val:?}, expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}, expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The commit of the checkout, read from `.git` when there is one.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(c) = std::fs::read_to_string(format!(".git/{r}")) {
        return c.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(String::from))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A workload, set up and ready to measure.
enum Ready {
    ServeBatch(serve_batch::System, PlanSolver),
    ServeWire(
        serve_wire::System,
        PlanSolver,
        Vec<serve_wire::Problem>,
        Vec<f64>,
    ),
    DistSolve(PlanSolver, dist_solve::Problems),
}

impl Ready {
    fn measure(&self, seed: u64, secs: f64, nproc: usize, spans: Option<&Spans>) -> Measured {
        match self {
            Ready::ServeBatch(sys, solo) => serve_batch::measure(sys, solo, seed, secs, spans),
            Ready::ServeWire(sys, solo, problems, mae) => {
                serve_wire::measure(sys, problems, solo, mae, seed, nproc, secs, spans)
            }
            Ready::DistSolve(solver, p) => dist_solve::measure(solver, p, seed, secs, spans),
        }
    }

    /// `(threads, what they are)` the measured window runs.
    fn threads(&self, nproc: usize) -> (usize, String) {
        match self {
            Ready::ServeBatch(sys, _) => (
                sys.workers + 2,
                format!("generator 1, collector 1, workers {}", sys.workers),
            ),
            Ready::ServeWire(sys, ..) => (
                2 * nproc + 1 + sys.workers,
                format!(
                    "clients {nproc}, connection threads {nproc}, accept 1, workers {}",
                    sys.workers
                ),
            ),
            Ready::DistSolve(..) => (dist_solve::RANKS, format!("ranks {}", dist_solve::RANKS)),
        }
    }
}

/// A solver the benchmark owns for solo comparison runs, warmed so its
/// first timed solve does not compile.
fn solo_solver(net: mf_nn::SdNet) -> PlanSolver {
    let spec = mf_bench::bench_spec();
    let solo = PlanSolver::new(net, spec);
    for side in [1, 2] {
        let d = mf_mfp::DomainSpec::new(spec, side, side);
        let zero = mf_tensor::Tensor::zeros(1, d.boundary_len());
        let _ = mf_mfp::Mfp::new(&solo, d).run(&zero, &check::serve_cfg());
    }
    solo
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let spec = mf_bench::bench_spec();

    let (ready, net, setup) = match args.workload.as_str() {
        "serve-batch" => {
            let (sys, net, rep) = setup::repeated(process_start, |net| {
                serve_batch::ready(PlanSolver::new(net, spec), nproc)
            });
            (Ready::ServeBatch(sys, solo_solver(net.clone())), net, rep)
        }
        "serve-wire" => {
            let (sys, net, rep) = setup::repeated(process_start, |net| {
                serve_wire::ready(PlanSolver::new(net, spec), nproc, nproc)
            });
            let solo = solo_solver(net.clone());
            let (problems, mae) = serve_wire::pool(&solo, args.seed);
            (Ready::ServeWire(sys, solo, problems, mae), net, rep)
        }
        _ => {
            let (solver, net, rep) = setup::repeated(process_start, |net| {
                dist_solve::ready(PlanSolver::new(net, spec))
            });
            let problems = dist_solve::problems(&solver);
            (Ready::DistSolve(solver, problems), net, rep)
        }
    };

    let spans = Spans::default();
    let mut m = if args.trace {
        let plain = ready.measure(args.seed, args.seconds / 2.0, nproc, None);
        let mut traced = ready.measure(args.seed, args.seconds / 2.0, nproc, Some(&spans));
        traced.layer(
            "obs.trace_overhead",
            traced.primary_time / plain.primary_time,
        );
        traced.attempted += plain.attempted;
        traced.checks.failures.extend(plain.checks.failures);
        traced
    } else {
        ready.measure(args.seed, args.seconds, nproc, None)
    };

    m.e2e("setup_s", stats::median(&setup.setup_s));
    if !setup.identical {
        m.checks
            .fail("set-up repetitions trained different parameters".into());
    }
    if args.trace {
        m.layer("setup.train_s", stats::median(&setup.train_s));
        m.layer("setup.warm_s", stats::median(&setup.warm_s));
        roofline_layers(&mut m, &net);
    }

    let (threads, which) = ready.threads(nproc);
    drop(ready);
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "# env: nproc={nproc} threads={threads} ({which}){} backend={:?} commit={}",
        if threads > nproc {
            " oversubscribed"
        } else {
            ""
        },
        mf_tensor::backend_kind(),
        git_commit()
    );
    println!(
        "# set-up x{}: setup_s {:?} train_s {:?} warm_s {:?} identical={}",
        setup::SETUPS,
        setup.setup_s,
        setup.train_s,
        setup.warm_s,
        setup.identical
    );
    for n in &m.notes {
        println!("# {n}");
    }
    if args.trace {
        let path = std::path::Path::new("perfbench/out")
            .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        match spans.write_chrome(&path) {
            Ok(n) => println!(
                "# wrote {n} spans to {} ({} dropped)",
                path.display(),
                spans.dropped()
            ),
            Err(e) => println!("# could not write {}: {e}", path.display()),
        }
    }
    emit(&args, m)
}

/// Roofline reference for the traced run: measured peaks, `gemm_into`
/// at a representative launch's shapes, and the achieved fraction.
fn roofline_layers(m: &mut Measured, net: &mf_nn::SdNet) {
    let shapes = NetShapes::of(net);
    let q = 2 * (mf_bench::bench_spec().m - 2) - 1;
    let rows = m
        .layers
        .get("infer.rows_per_launch")
        .copied()
        .unwrap_or(q as f64);
    let b = ((rows / q as f64).round() as usize).max(1);
    let gemm = roofline::gemm_gflops(&shapes.gemms(b, q), 0.5);
    let peak = roofline::muladd_peak_gflops();
    let stream = roofline::stream_copy();
    let achieved = m.layers.get("infer.gflops").copied().unwrap_or(0.0);
    let roof = peak.min(stream.gbs * m.flops_per_byte);
    m.layer("tensor.gemm_gflops", gemm);
    m.layer("tensor.peak_gflops", peak);
    m.layer("tensor.stream_gbs", stream.gbs);
    m.layer("tensor.roofline_frac", achieved / roof);
    m.note(format!(
        "roofline: no-FMA mul-add peak {peak:.2} GFLOP/s (1 thread); STREAM copy {:.2} GB/s with {} MiB arrays against a {} MiB last-level cache; gemm_into at a {b}x{q}-point launch's shapes {gemm:.2} GFLOP/s; launch roof {roof:.2} GFLOP/s at {:.2} FLOP/byte (computed)",
        stream.gbs,
        stream.array_bytes >> 20,
        stream.llc_bytes >> 20,
        m.flops_per_byte
    ));
}

/// Print the metric table and the final JSON line; the exit code says
/// whether every output check passed.
fn emit(args: &Args, mut m: Measured) -> ExitCode {
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let values = if args.trace { &m.layers } else { &m.e2e };
    let mut metrics = Vec::new();
    let mut bad = Vec::new();
    for (name, unit) in table {
        let (v, note) = match values.get(name) {
            Some(v) if v.is_finite() => (*v, ""),
            Some(_) => {
                bad.push(format!("metric {name} is not finite"));
                (0.0, " (not finite)")
            }
            None => (0.0, " (not on this workload's path)"),
        };
        println!("{name:<24} {v:>16.6} {unit}{note}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    for b in bad {
        m.checks.fail(b);
    }
    for f in m.checks.failures.iter().take(10) {
        eprintln!("perfbench: check failed: {f}");
    }
    let failed = (m.checks.failures.len() as u64).min(m.attempted.max(1));
    let correct = m.checks.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        m.attempted.max(1),
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_telemetry::JsonValue;

    fn names(v: &JsonValue, key: &str) -> Vec<(String, Option<String>)> {
        v.get(key)
            .and_then(JsonValue::as_arr)
            .expect(key)
            .iter()
            .map(|e| {
                (
                    e.get("name")
                        .and_then(JsonValue::as_str)
                        .expect("name")
                        .to_string(),
                    e.get("unit").and_then(JsonValue::as_str).map(String::from),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v = JsonValue::parse(&text).expect("valid JSON");
        let w: Vec<String> = names(&v, "workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(w, WORKLOADS);
        let e2e: Vec<(String, Option<String>)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), Some(u.to_string())))
            .collect();
        assert_eq!(names(&v, "end_to_end"), e2e);
        let layers: Vec<(String, Option<String>)> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), Some(u.to_string())))
            .collect();
        assert_eq!(names(&v, "per_layer"), layers);
    }

    #[test]
    fn layer_sum_states_the_remainder() {
        let s = layer_sum("x", 10.0, &[("a", 3.0), ("b", 5.0)], "us");
        assert!(
            s.contains("unattributed 2.000000 us (20.0% of wall)"),
            "{s}"
        );
    }
}
