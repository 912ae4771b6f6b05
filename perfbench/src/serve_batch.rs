//! `serve-batch`: an in-process `SolveService` fed 1×1 requests as wire
//! lines. Phase A is an open loop of seeded Poisson arrivals (latency
//! from each request's due time to its rendered reply); phase B keeps a
//! closed window of requests outstanding (throughput). Many small
//! requests in flight are the traffic where cross-request batching, the
//! scheduler and the per-launch fixed cost dominate.

use crate::check::{self, Checks};
use crate::layers::{Spans, TimedSolver};
use crate::stats::{self, median};
use crate::{Measured, SERVE_MAX_ITERS, SERVE_TOL};
use mf_mfp::{DomainSpec, Mfp, PlanSolver, SubdomainSolver};
use mf_reqtrace::{RequestTrace, TraceContext};
use mf_serve::{protocol, ServeConfig, SolveResponse, SolveService};
use mf_tensor::Tensor;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Open-loop arrival rate, requests per second: fixed, the same on every
/// run and commit. About a sixth of the closed-window capacity, so a host
/// slowdown of 2× on this shared machine does not build a backlog that
/// swamps the median.
pub const RATE: f64 = 1000.0;
/// Requests kept outstanding in phase B.
pub const WINDOW: usize = 32;
/// Share of the measured time given to phase A.
const PHASE_A_SHARE: f64 = 0.6;
/// Rounds of phase A, phase B and the solo checks, so each metric
/// samples the whole run rather than one stretch of a noisy host.
const ROUNDS: u64 = 10;
/// Requests checked bitwise against a solo `Mfp::run`, per phase and
/// round.
const CHECK_PER_PHASE: usize = 25;
/// Largest batch size warmed in set-up.
const PREWARM_BATCH: usize = 64;
/// How often the request log is sampled.
pub const SAMPLE_EVERY: Duration = Duration::from_millis(100);

/// The system set-up builds.
pub struct System {
    pub service: SolveService,
    pub workers: usize,
}

/// Build and warm the service (the end of set-up).
pub fn ready(solver: PlanSolver, workers: usize) -> System {
    let service = SolveService::new(
        solver,
        ServeConfig {
            workers,
            ..ServeConfig::default()
        },
    );
    service.prewarm(1, 1, PREWARM_BATCH);
    System { service, workers }
}

/// The GP seed of request `i` under workload seed `seed`.
pub fn gp_seed(seed: u64, i: u64) -> u64 {
    // SplitMix64 step: well-spread seeds without shared state.
    let mut z = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i.wrapping_add(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Request `i`'s wire line; `want_grid` marks a checked request.
pub fn line(seed: u64, i: u64, want_grid: bool) -> String {
    format!(
        "{{\"id\":{i},\"domain\":\"1x1\",\"bc\":\"gp:{}\",\"max_iters\":{SERVE_MAX_ITERS},\"tol\":{SERVE_TOL:e},\"want_grid\":{want_grid}}}",
        gp_seed(seed, i)
    )
}

/// Phase A arrival times, seconds from the phase start, for `horizon`
/// seconds of Poisson arrivals at `rate`.
pub fn arrivals(seed: u64, rate: f64, horizon: f64) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xA11_1A1);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -u.ln() / rate;
        if t >= horizon {
            return out;
        }
        out.push(t);
    }
}

/// Indices of the checked requests among `n`, seeded.
fn checked(seed: u64, salt: u64, n: usize) -> Vec<bool> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ salt);
    let p = (CHECK_PER_PHASE as f64 / n.max(1) as f64).min(1.0);
    (0..n).map(|_| rng.gen_bool(p)).collect()
}

/// What the client side keeps about one request.
struct Done {
    index: u64,
    req: u64,
    latency_s: f64,
    parse_us: f64,
    render_us: f64,
    resp: Result<SolveResponse, String>,
}

/// The service's reply channel for one request.
type Reply = mpsc::Receiver<Result<SolveResponse, mf_serve::ServeError>>;

/// Submit one wire line: parse, resolve, submit. Returns the parse time
/// in microseconds, the request's trace id and the reply channel.
fn submit(sys: &System, line: &str) -> (f64, u64, Result<Reply, String>) {
    let t = Instant::now();
    let parsed =
        protocol::parse_request(line).map(|w| protocol::to_solve_request(&w, sys.service.spec()));
    let parse_us = t.elapsed().as_secs_f64() * 1e6;
    match parsed {
        Err(e) => (parse_us, 0, Err(e)),
        Ok(req) => {
            let ctx = TraceContext::root();
            let rx = sys
                .service
                .submit_traced(req, ctx)
                .map_err(|e| e.to_string());
            (parse_us, ctx.req, rx)
        }
    }
}

/// Wait for a reply and render it. Returns the render time.
fn collect(index: u64, rx: Reply) -> (f64, Result<SolveResponse, String>) {
    match rx.recv() {
        Ok(Ok(resp)) => {
            let t = Instant::now();
            let body = protocol::render_ok(index, &resp);
            std::hint::black_box(&body);
            (t.elapsed().as_secs_f64() * 1e6, Ok(resp))
        }
        Ok(Err(e)) => (0.0, Err(e.to_string())),
        Err(_) => (0.0, Err("reply channel closed".into())),
    }
}

/// Sample the program's request log (a ring of the last
/// `RECENT_CAP` requests), keeping unseen entries.
pub fn sample_log(into: &mut HashMap<u64, RequestTrace>) {
    for t in mf_reqtrace::recent(mf_reqtrace::RECENT_CAP) {
        into.entry(t.req).or_insert(t);
    }
}

#[derive(Default)]
struct PhaseA {
    done: Vec<Done>,
    lag_ms: Vec<f64>,
    traces: HashMap<u64, RequestTrace>,
}

/// First request index of `round`'s phase (`b` for phase B).
fn first_index(round: u64, b: bool) -> u64 {
    (b as u64) << 40 | round << 32
}

fn phase_a(sys: &System, seed: u64, round: u64, secs: f64) -> PhaseA {
    let due = arrivals(seed.wrapping_add(round << 48), RATE, secs);
    let check = checked(seed, 0xA ^ round << 8, due.len());
    let base = first_index(round, false);
    let (tx, rx) = mpsc::channel::<(u64, u64, Instant, f64, Result<Reply, String>)>();
    let mut lag_ms = Vec::with_capacity(due.len());
    let start = Instant::now();
    let (done, traces) = std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut done = Vec::new();
            let mut traces = HashMap::new();
            let mut next_sample = Instant::now();
            for (index, req, due_at, parse_us, rx) in rx {
                let (render_us, resp) = match rx {
                    Ok(rx) => collect(index, rx),
                    Err(e) => (0.0, Err(e)),
                };
                // A failed request misses every latency limit.
                let latency_s = match resp {
                    Ok(_) => (Instant::now() - due_at).as_secs_f64(),
                    Err(_) => f64::INFINITY,
                };
                done.push(Done {
                    index,
                    req,
                    latency_s,
                    parse_us,
                    render_us,
                    resp,
                });
                if Instant::now() >= next_sample {
                    sample_log(&mut traces);
                    next_sample = Instant::now() + SAMPLE_EVERY;
                }
            }
            sample_log(&mut traces);
            (done, traces)
        });
        for (i, (&at, &want_grid)) in due.iter().zip(&check).enumerate() {
            let due_at = start + Duration::from_secs_f64(at);
            let now = Instant::now();
            if due_at > now {
                std::thread::sleep(due_at - now);
            }
            lag_ms.push((Instant::now() - due_at).as_secs_f64() * 1e3);
            let index = base + i as u64;
            let (parse_us, req, rx) = submit(sys, &line(seed, index, want_grid));
            tx.send((index, req, due_at, parse_us, rx))
                .expect("collector alive");
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    PhaseA {
        done,
        lag_ms,
        traces,
    }
}

#[derive(Default)]
struct PhaseB {
    done: Vec<Done>,
    elapsed_s: f64,
    /// Requests drained and batches run, from the scheduler counters.
    drained: u64,
    batches: u64,
    traces: HashMap<u64, RequestTrace>,
}

impl PhaseB {
    fn occupancy(&self) -> f64 {
        self.drained as f64 / self.batches.max(1) as f64
    }
}

fn phase_b(sys: &System, seed: u64, round: u64, secs: f64) -> PhaseB {
    let base = first_index(round, true);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xB ^ round << 8);
    let p_check = CHECK_PER_PHASE as f64 / (secs * 6000.0).max(1.0);
    let sched0 = sys.service.scheduler_stats();
    let mut traces = HashMap::new();
    let mut done = Vec::new();
    let mut window = std::collections::VecDeque::with_capacity(WINDOW);
    let mut next = 0u64;
    let mut push = |window: &mut std::collections::VecDeque<_>, next: &mut u64| {
        let index = base + *next;
        *next += 1;
        let want_grid = rng.gen_bool(p_check.min(1.0));
        let (parse_us, req, rx) = submit(sys, &line(seed, index, want_grid));
        window.push_back((index, req, Instant::now(), parse_us, rx));
    };
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    for _ in 0..WINDOW {
        push(&mut window, &mut next);
    }
    let mut next_sample = Instant::now();
    while let Some((index, req, sent, parse_us, rx)) = window.pop_front() {
        let (render_us, resp) = match rx {
            Ok(rx) => collect(index, rx),
            Err(e) => (0.0, Err(e)),
        };
        done.push(Done {
            index,
            req,
            latency_s: sent.elapsed().as_secs_f64(),
            parse_us,
            render_us,
            resp,
        });
        if Instant::now() >= next_sample {
            sample_log(&mut traces);
            next_sample = Instant::now() + SAMPLE_EVERY;
        }
        if Instant::now() < deadline {
            push(&mut window, &mut next);
        }
    }
    sample_log(&mut traces);
    let elapsed_s = start.elapsed().as_secs_f64();
    let sched = sys.service.scheduler_stats();
    PhaseB {
        done,
        elapsed_s,
        drained: sched.drained - sched0.drained,
        batches: sched.batches - sched0.batches,
        traces,
    }
}

/// Check every reply and compare the checked ones against a solo
/// `Mfp::run` of the same boundary. Returns `(solo seconds, MAE)` of
/// the checked requests.
fn check_replies(
    solo: &PlanSolver,
    seed: u64,
    done: &[Done],
    checks: &mut Checks,
) -> (Vec<f64>, Vec<f64>) {
    let spec = solo.spec();
    let domain = DomainSpec::new(spec, 1, 1);
    let cfg = check::serve_cfg();
    let (mut solo_s, mut mae) = (Vec::new(), Vec::new());
    for d in done {
        let resp = match &d.resp {
            Ok(r) => r,
            Err(e) => {
                checks.fail(format!("request {}: {e}", d.index));
                continue;
            }
        };
        if !resp.converged {
            checks.fail(format!("request {} did not converge", d.index));
            continue;
        }
        let Some(grid) = &resp.grid else { continue };
        let bc = protocol::resolve_bc(
            &protocol::BcSpec::Gp {
                seed: gp_seed(seed, d.index),
            },
            domain.ny(),
            domain.nx(),
            domain.boundary_len(),
        );
        let t = Instant::now();
        let r = Mfp::new(solo, domain).run(&bc, &cfg);
        solo_s.push(t.elapsed().as_secs_f64());
        if r.iterations != resp.iterations || !check::bitwise_eq(&r.grid, grid) {
            checks.fail(format!(
                "request {}: batched reply differs from a solo run",
                d.index
            ));
            continue;
        }
        mae.push(check::mae(
            grid,
            &mf_bench::reference_solution(&domain, &bc),
        ));
    }
    (solo_s, mae)
}

/// Replay observed batch sizes through `Mfp::run_many` on a timed
/// solver, for the inference-layer numbers of the served path.
fn replay(solo: &PlanSolver, seed: u64, batches: &[usize], spans: &Spans) -> Replay {
    let timed = TimedSolver::new(solo, Some(spans));
    let domain = DomainSpec::new(solo.spec(), 1, 1);
    let cfg = check::serve_cfg();
    let bcs = |b: usize, salt: u64| -> Vec<Tensor> {
        (0..b)
            .map(|k| {
                protocol::resolve_bc(
                    &protocol::BcSpec::Gp {
                        seed: gp_seed(seed ^ salt, k as u64),
                    },
                    domain.ny(),
                    domain.nx(),
                    domain.boundary_len(),
                )
            })
            .collect()
    };
    // Warm every replayed batch size before timing.
    let mfp = Mfp::new(&timed, domain);
    for &b in batches {
        let _ = mfp.run_many(&bcs(b, 1), &cfg);
    }
    let (totals0, compiles0) = (timed.totals(), timed.compiles());
    let mut wall = 0.0;
    let mut requests = 0;
    for (n, &b) in batches.iter().enumerate() {
        let input = bcs(b, 2 + n as u64);
        let t0 = mf_telemetry::now_us();
        let t = Instant::now();
        let _ = mfp.run_many(&input, &cfg);
        let dt = t.elapsed().as_secs_f64();
        spans.record(
            "mfp.run_many",
            t0,
            (dt * 1e6) as u64,
            0,
            &[("batch", b as f64)],
        );
        wall += dt;
        requests += b;
    }
    let t = timed.totals();
    Replay {
        requests,
        wall_s: wall,
        launches: t.launches - totals0.launches,
        rows: t.rows - totals0.rows,
        launch_s: t.launch_s - totals0.launch_s,
        dense_s: t.dense_s - totals0.dense_s,
        flops: t.flops - totals0.flops,
        bytes: t.bytes - totals0.bytes,
        compiles: timed.compiles() - compiles0,
    }
}

/// Inference-layer totals of a replay.
struct Replay {
    requests: usize,
    wall_s: f64,
    launches: usize,
    rows: usize,
    launch_s: f64,
    dense_s: f64,
    flops: f64,
    bytes: f64,
    compiles: usize,
}

/// Run both phases for `secs` seconds in total.
pub fn measure(
    sys: &System,
    solo: &PlanSolver,
    seed: u64,
    secs: f64,
    spans: Option<&Spans>,
) -> Measured {
    let mut m = Measured::default();
    let mut a = PhaseA::default();
    let mut b = PhaseB::default();
    let mut checks = Checks::default();
    let (mut solo_s, mut mae) = (Vec::new(), Vec::new());
    let slice = secs / ROUNDS as f64;
    let mut round_p99 = Vec::new();
    for round in 0..ROUNDS {
        let ra = phase_a(sys, seed, round, slice * PHASE_A_SHARE);
        let ms: Vec<f64> = ra.done.iter().map(|d| d.latency_s * 1e3).collect();
        round_p99.push(stats::summarize(&ms).p99);
        let rb = phase_b(sys, seed, round, slice * (1.0 - PHASE_A_SHARE));
        for done in [&ra.done, &rb.done] {
            let (s, e) = check_replies(solo, seed, done, &mut checks);
            solo_s.extend(s);
            mae.extend(e);
        }
        a.done.extend(ra.done);
        a.lag_ms.extend(ra.lag_ms);
        a.traces.extend(ra.traces);
        b.done.extend(rb.done);
        b.elapsed_s += rb.elapsed_s;
        b.drained += rb.drained;
        b.batches += rb.batches;
        b.traces.extend(rb.traces);
    }
    let log_a: Vec<RequestTrace> = a.traces.values().copied().collect();
    let log_b: Vec<RequestTrace> = b.traces.values().copied().collect();
    if solo_s.is_empty() {
        checks.fail("no request was sampled for the solo comparison".into());
    }

    let lat_ms: Vec<f64> = a.done.iter().map(|d| d.latency_s * 1e3).collect();
    let lat = stats::summarize(&lat_ms);
    let completed_b = b.done.iter().filter(|d| d.resp.is_ok()).count();
    let solve_us: Vec<f64> = log_b.iter().map(|t| t.solve_us as f64).collect();
    m.e2e("latency_p50_ms", lat.p50);
    m.e2e("throughput_rps", completed_b as f64 / b.elapsed_s);
    m.e2e("solve_s", median(&solve_us) * 1e-6);
    m.e2e("solve_seq_s", median(&solo_s));
    m.e2e("solution_mae", stats::mean(&mae));
    let lag = stats::summarize(&a.lag_ms);
    m.note(format!(
        "phase A: open loop at {RATE} req/s, n={} requests, p50 {:.3} ms, p99 {:.3} ms (median of the {ROUNDS} rounds' p99s; pooled {:.3} ms), tail p{} {:.3} ms; generator lag p50 {:.3} ms p99 {:.3} ms",
        lat.n,
        lat.p50,
        median(&round_p99),
        lat.p99,
        lat.tail_p,
        lat.tail,
        lag.p50,
        lag.p99
    ));
    m.note(format!(
        "phase B: closed window of {WINDOW}, {completed_b} completed in {:.2} s, occupancy {:.2} requests/batch ({ROUNDS} rounds of A then B)",
        b.elapsed_s,
        b.occupancy()
    ));
    m.note(format!(
        "checks: {} replies, {} compared bitwise with a solo Mfp::run",
        a.done.len() + b.done.len(),
        solo_s.len()
    ));
    m.attempted = (a.done.len() + b.done.len()) as u64;
    m.checks = checks;
    m.primary_time = 1.0 / (completed_b as f64 / b.elapsed_s);

    if let Some(spans) = spans {
        layer_metrics(&mut m, solo, seed, &a, &b, &log_a, &log_b, spans);
    }
    m
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    m: &mut Measured,
    solo: &PlanSolver,
    seed: u64,
    a: &PhaseA,
    b: &PhaseB,
    log_a: &[RequestTrace],
    log_b: &[RequestTrace],
    spans: &Spans,
) {
    let all = || a.done.iter().chain(&b.done);
    m.layer(
        "serve.parse_us",
        median(&all().map(|d| d.parse_us).collect::<Vec<_>>()),
    );
    m.layer(
        "serve.render_us",
        median(
            &all()
                .filter(|d| d.resp.is_ok())
                .map(|d| d.render_us)
                .collect::<Vec<_>>(),
        ),
    );
    let phase = |log: &[RequestTrace], f: fn(&RequestTrace) -> u64| {
        median(&log.iter().map(|t| f(t) as f64).collect::<Vec<_>>())
    };
    m.layer("serve.queue_us", phase(log_a, |t| t.queue_us));
    m.layer("serve.batch_wait_us", phase(log_a, |t| t.batch_wait_us));
    m.layer("serve.serialize_us", phase(log_a, |t| t.serialize_us));
    m.layer("serve.solve_us", phase(log_b, |t| t.solve_us));
    m.layer("serve.occupancy", b.occupancy());
    let by_req: HashMap<u64, &Done> = a.done.iter().map(|d| (d.req, d)).collect();
    let outside: Vec<f64> = log_a
        .iter()
        .filter_map(|t| {
            by_req
                .get(&t.req)
                .map(|d| d.latency_s * 1e6 - t.total_us as f64)
        })
        .collect();
    m.layer("serve.wire_us", median(&outside));
    m.layer("serve.gen_lag_ms", stats::summarize(&a.lag_ms).p99);

    // Layer sum for the median-latency request found in the log.
    let mut matched: Vec<(&RequestTrace, &Done)> = log_a
        .iter()
        .filter_map(|t| by_req.get(&t.req).map(|d| (t, *d)))
        .collect();
    matched.sort_by(|x, y| x.1.latency_s.total_cmp(&y.1.latency_s));
    if let Some((t, d)) = matched.get(matched.len() / 2) {
        m.note(crate::layer_sum(
            "serve-batch request (median of sampled)",
            d.latency_s * 1e6,
            &[
                ("serve.parse", d.parse_us),
                ("serve.queue", t.queue_us as f64),
                ("serve.batch_wait", t.batch_wait_us as f64),
                ("serve.solve", t.solve_us as f64),
                ("serve.serialize", t.serialize_us as f64),
                ("serve.render", d.render_us),
            ],
            "us",
        ));
    }

    // Replay the observed phase-B batch sizes on a timed solver. Every
    // member of a batch of b logs size b, so b samples make one batch.
    let mut count: std::collections::BTreeMap<usize, usize> = Default::default();
    for t in log_b {
        *count.entry(t.batch.max(1) as usize).or_default() += 1;
    }
    let sizes: Vec<usize> = count
        .iter()
        .flat_map(|(&b, &c)| std::iter::repeat_n(b, c.div_ceil(b)))
        .collect();
    let r = replay(solo, seed, &sizes, spans);
    let iters: Vec<f64> = all()
        .filter_map(|d| d.resp.as_ref().ok().map(|r| r.iterations as f64))
        .collect();
    crate::mfp_infer_layers(
        m,
        stats::mean(&iters),
        r.requests,
        r.wall_s,
        r.launches,
        r.rows,
        r.launch_s,
        r.dense_s,
        r.flops,
        r.bytes,
        r.compiles,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed() {
        assert_eq!(arrivals(5, RATE, 0.5), arrivals(5, RATE, 0.5));
        assert_ne!(arrivals(5, RATE, 0.5), arrivals(6, RATE, 0.5));
        let a = arrivals(5, RATE, 2.0);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        // About RATE arrivals per second.
        assert!(
            (a.len() as f64 - 2.0 * RATE).abs() < 0.1 * 2.0 * RATE,
            "{}",
            a.len()
        );
        assert_eq!(line(5, 17, false), line(5, 17, false));
        assert_ne!(line(5, 17, false), line(6, 17, false));
        assert_eq!(checked(5, 0xA, 1000), checked(5, 0xA, 1000));
        let w = protocol::parse_request(&line(5, 17, true)).expect("valid line");
        assert_eq!((w.id, w.sx, w.sy, w.want_grid), (17, 1, 1, true));
        assert_eq!(
            w.bc,
            protocol::BcSpec::Gp {
                seed: gp_seed(5, 17)
            }
        );
        assert_eq!((w.max_iters, w.tol), (SERVE_MAX_ITERS, SERVE_TOL));
    }
}
