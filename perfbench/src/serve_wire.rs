//! `serve-wire`: a loopback `TcpServer` driven closed-loop by at most
//! nproc client connections. Each line ships its boundary walk as an
//! explicit JSON array and asks for the dense grid back, and every
//! fourth request is 2×2: payload-heavy lines in, dense grids out, every
//! request through the socket and the connection thread. With at most
//! nproc requests in flight batching cannot help.

use crate::check::{self, Checks};
use crate::layers::{Spans, TimedSolver};
use crate::stats::{self, median};
use crate::{Measured, SERVE_MAX_ITERS, SERVE_TOL};
use mf_mfp::{DomainSpec, Mfp, PlanSolver, SubdomainSolver};
use mf_reqtrace::RequestTrace;
use mf_serve::{protocol, ServeConfig, SolveResponse, SolveService, TcpServer};
use mf_telemetry::JsonValue;
use mf_tensor::Tensor;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinct boundaries per domain shape; requests draw from this pool,
/// so each reply can be compared with a solo solve made in advance.
const POOL: usize = 128;
/// Every `MIX`-th request is a 2×2 domain, the rest 1×1.
pub const MIX: u64 = 4;
/// Rounds of client traffic, each followed by solo timings of the pool.
const ROUNDS: u64 = 5;

/// The system set-up builds.
pub struct System {
    pub service: Arc<SolveService>,
    pub server: TcpServer,
    pub workers: usize,
}

/// Build and warm the service, then listen on a loopback port.
pub fn ready(solver: PlanSolver, workers: usize, clients: usize) -> System {
    let service = Arc::new(SolveService::new(
        solver,
        ServeConfig {
            workers,
            ..ServeConfig::default()
        },
    ));
    service.prewarm(1, 1, clients);
    service.prewarm(2, 2, clients);
    let server =
        TcpServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind a loopback port");
    System {
        service,
        server,
        workers,
    }
}

/// A pooled problem and the expected reply.
pub struct Problem {
    pub side: usize,
    pub bc: Tensor,
    /// The request line after its id field.
    pub body: String,
    pub grid: Tensor,
    pub iterations: usize,
}

/// The seeded problem pool: `POOL` GP boundaries per shape, each solved
/// alone with `Mfp::run`. Returns the pool and each solution's mean
/// absolute difference from the multigrid reference.
pub fn pool(solo: &PlanSolver, seed: u64) -> (Vec<Problem>, Vec<f64>) {
    let cfg = check::serve_cfg();
    let mut out = Vec::new();
    let mut mae = Vec::new();
    for side in [1usize, 2] {
        let domain = DomainSpec::new(solo.spec(), side, side);
        for k in 0..POOL as u64 {
            let bc =
                mf_bench::gp_boundary(&domain, crate::serve_batch::gp_seed(seed ^ side as u64, k));
            let r = Mfp::new(solo, domain).run(&bc, &cfg);
            mae.push(check::mae(
                &r.grid,
                &mf_bench::reference_solution(&domain, &bc),
            ));
            out.push(Problem {
                side,
                body: body(side, &bc),
                bc,
                grid: r.grid,
                iterations: r.iterations,
            });
        }
    }
    (out, mae)
}

/// The pool index of client `c`'s request `k`.
pub fn pick(seed: u64, c: usize, k: u64) -> usize {
    let mut rng = ChaCha8Rng::seed_from_u64(crate::serve_batch::gp_seed(
        seed ^ 0x77,
        (c as u64) << 40 | k,
    ));
    let big = (k + c as u64) % MIX == MIX - 1;
    rng.gen_range(0..POOL) + if big { POOL } else { 0 }
}

/// The wire line for pooled problem `p`, id `id`.
pub fn line(id: u64, p: &Problem) -> String {
    format!("{{\"id\":{id},{}", p.body)
}

/// A request line after its id: domain, controls and the explicit walk.
fn body(side: usize, bc: &Tensor) -> String {
    let mut s = format!(
        "\"domain\":\"{side}x{side}\",\"max_iters\":{SERVE_MAX_ITERS},\"tol\":{SERVE_TOL:e},\"want_grid\":true,\"bc\":["
    );
    for (i, v) in bc.as_slice().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("{v:.17e}"));
    }
    s.push_str("]}\n");
    s
}

/// Check one reply line against the expected problem.
fn check_reply(reply: &str, id: u64, p: &Problem) -> Result<(), String> {
    let v = JsonValue::parse(reply.trim())?;
    let status = v.get("status").and_then(JsonValue::as_str).unwrap_or("?");
    if status != "ok" {
        return Err(format!("status {status}: {}", reply.trim()));
    }
    if v.get("id").and_then(JsonValue::as_f64) != Some(id as f64) {
        return Err("id mismatch".into());
    }
    if !matches!(v.get("converged"), Some(JsonValue::Bool(true))) {
        return Err("not converged".into());
    }
    if v.get("iterations").and_then(JsonValue::as_f64) != Some(p.iterations as f64) {
        return Err("iteration count differs from a solo run".into());
    }
    let grid = v.get("grid").and_then(JsonValue::as_arr).ok_or("no grid")?;
    let want = p.grid.as_slice();
    if grid.len() != want.len()
        || !grid
            .iter()
            .zip(want)
            .all(|(g, w)| g.as_f64().is_some_and(|g| g.to_bits() == w.to_bits()))
    {
        return Err("grid differs bitwise from a solo run".into());
    }
    Ok(())
}

/// Aggregate per-problem values (pool order: 1×1 then 2×2) per shape
/// and weight the shapes by the request mix, one in `MIX` 2×2.
pub fn mixed(xs: &[f64], agg: fn(&[f64]) -> f64) -> f64 {
    let (small, big) = xs.split_at(POOL);
    (agg(small) * (MIX - 1) as f64 + agg(big)) / MIX as f64
}

/// One client's closed loop.
struct ClientRun {
    latency_us: Vec<f64>,
    failures: Vec<String>,
    /// `(id, pool index, reply line)`, checked after the window so the
    /// check does not compete with the server for the cores.
    replies: Vec<(u64, usize, String)>,
}

fn client(
    addr: std::net::SocketAddr,
    seed: u64,
    c: usize,
    round: u64,
    problems: &[Problem],
    deadline: Instant,
) -> ClientRun {
    let mut run = ClientRun {
        latency_us: Vec::new(),
        failures: Vec::new(),
        replies: Vec::new(),
    };
    let stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            run.failures.push(format!("client {c}: connect: {e}"));
            return run;
        }
    };
    let _ = stream.set_nodelay(true);
    let mut writer = stream.try_clone().expect("clone a connected socket");
    let mut reader = BufReader::new(stream);
    let mut k = round << 32;
    while Instant::now() < deadline {
        let idx = pick(seed, c, k);
        let id = (c as u64) << 40 | k;
        let req = line(id, &problems[idx]);
        let mut reply = String::new();
        let t = Instant::now();
        let io = writer
            .write_all(req.as_bytes())
            .and_then(|()| reader.read_line(&mut reply));
        let us = t.elapsed().as_secs_f64() * 1e6;
        k += 1;
        match io {
            Ok(0) => {
                run.failures
                    .push(format!("client {c}: server closed the connection"));
                break;
            }
            Err(e) => {
                run.failures.push(format!("client {c}: {e}"));
                break;
            }
            Ok(_) => {}
        }
        run.latency_us.push(us);
        run.replies.push((id, idx, reply));
    }
    run
}

/// Drive `clients` closed loops for `secs` seconds.
#[allow(clippy::too_many_arguments)]
pub fn measure(
    sys: &System,
    problems: &[Problem],
    solo: &PlanSolver,
    mae: &[f64],
    seed: u64,
    clients: usize,
    secs: f64,
    spans: Option<&Spans>,
) -> Measured {
    let addr = sys.server.addr();
    let sched0 = sys.service.scheduler_stats();
    let cfg = check::serve_cfg();
    let mut runs = Vec::new();
    let mut traces = std::collections::HashMap::new();
    let mut solo_s = vec![Vec::new(); problems.len()];
    let mut elapsed = 0.0;
    // Rounds of traffic, each followed by solo timings of the pool, so
    // both sample the whole run rather than one stretch of a noisy host.
    for round in 0..ROUNDS {
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(secs / ROUNDS as f64);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|c| s.spawn(move || client(addr, seed, c, round, problems, deadline)))
                .collect();
            while let Some(left) = deadline.checked_duration_since(Instant::now()) {
                std::thread::sleep(left.min(crate::serve_batch::SAMPLE_EVERY));
                crate::serve_batch::sample_log(&mut traces);
            }
            runs.extend(
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked")),
            );
        });
        elapsed += start.elapsed().as_secs_f64();
        for (p, times) in problems.iter().zip(&mut solo_s) {
            let domain = DomainSpec::new(solo.spec(), p.side, p.side);
            let t = Instant::now();
            std::hint::black_box(Mfp::new(solo, domain).run(&p.bc, &cfg));
            times.push(t.elapsed().as_secs_f64());
        }
    }
    let log: Vec<RequestTrace> = traces.into_values().collect();
    let sched = sys.service.scheduler_stats();
    let solo_s: Vec<f64> = solo_s.iter().map(|t| median(t)).collect();

    let mut m = Measured::default();
    let mut checks = Checks::default();
    let mut lat_ms = Vec::new();
    for r in &runs {
        lat_ms.extend(r.latency_us.iter().map(|us| us * 1e-3));
        for f in &r.failures {
            checks.fail(f.clone());
        }
        for (id, idx, reply) in &r.replies {
            if let Err(e) = check_reply(reply, *id, &problems[*idx]) {
                checks.fail(format!("request {id}: {e}"));
            }
        }
    }
    let lat = stats::summarize(&lat_ms);
    m.e2e("latency_p50_ms", lat.p50);
    m.e2e("throughput_rps", lat.n as f64 / elapsed);
    m.e2e(
        "solve_s",
        median(
            &log.iter()
                .map(|t| t.solve_us as f64 * 1e-6)
                .collect::<Vec<_>>(),
        ),
    );
    // Mean per shape: iteration counts differ across the pool, and a
    // median of a mixed-iteration pool jumps between count classes.
    m.e2e("solve_seq_s", mixed(&solo_s, stats::mean));
    m.e2e("solution_mae", mixed(mae, stats::mean));
    m.attempted = lat.n.max(checks.failures.len()) as u64;
    m.checks = checks;
    m.primary_time = lat.p50;
    let occupancy =
        (sched.drained - sched0.drained) as f64 / (sched.batches - sched0.batches).max(1) as f64;
    m.note(format!(
        "closed loop, {clients} connections, 1 in {MIX} requests 2x2: n={} requests, p50 {:.3} ms, p99 {:.3} ms, tail p{} {:.3} ms, {:.0} req/s, occupancy {occupancy:.2}",
        lat.n, lat.p50, lat.p99, lat.tail_p, lat.tail, lat.n as f64 / elapsed
    ));

    if let Some(spans) = spans {
        layer_metrics(&mut m, sys, problems, solo, &runs, &log, occupancy, spans);
    }
    m
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    m: &mut Measured,
    sys: &System,
    problems: &[Problem],
    solo: &PlanSolver,
    runs: &[ClientRun],
    log: &[RequestTrace],
    occupancy: f64,
    spans: &Spans,
) {
    // Parse and render run in the server's connection threads; time the
    // same public calls on the same lines and replies here.
    let spec = sys.service.spec();
    let mut parse_us = Vec::new();
    let mut render_us = Vec::new();
    for (k, p) in problems.iter().enumerate() {
        let l = line(k as u64, p);
        let t0 = mf_telemetry::now_us();
        let t = Instant::now();
        let req = protocol::parse_request(l.trim()).map(|w| protocol::to_solve_request(&w, spec));
        let us = t.elapsed().as_secs_f64() * 1e6;
        spans.record("serve.parse", t0, us as u64, 0, &[("side", p.side as f64)]);
        parse_us.push(us);
        if req.is_err() {
            continue;
        }
        let resp = SolveResponse {
            iterations: p.iterations,
            converged: true,
            mean: stats::mean(p.grid.as_slice()),
            grid: Some(p.grid.clone()),
            latency_ms: 0.0,
        };
        let t0 = mf_telemetry::now_us();
        let t = Instant::now();
        std::hint::black_box(protocol::render_ok(k as u64, &resp));
        let us = t.elapsed().as_secs_f64() * 1e6;
        spans.record("serve.render", t0, us as u64, 0, &[("side", p.side as f64)]);
        render_us.push(us);
    }
    m.layer("serve.parse_us", mixed(&parse_us, median));
    m.layer("serve.render_us", mixed(&render_us, median));
    let phase =
        |f: fn(&RequestTrace) -> u64| median(&log.iter().map(|t| f(t) as f64).collect::<Vec<_>>());
    m.layer("serve.queue_us", phase(|t| t.queue_us));
    m.layer("serve.batch_wait_us", phase(|t| t.batch_wait_us));
    m.layer("serve.solve_us", phase(|t| t.solve_us));
    m.layer("serve.serialize_us", phase(|t| t.serialize_us));
    m.layer("serve.occupancy", occupancy);

    // Client latency minus the service's own wall time: socket plus
    // connection thread (parse included).
    let total: Vec<f64> = log.iter().map(|t| t.total_us as f64).collect();
    let client: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.latency_us.iter().copied())
        .collect();
    let wire = median(&client) - median(&total);
    m.layer("serve.wire_us", wire);
    m.layer("serve.gen_lag_ms", 0.0);
    m.note(crate::layer_sum(
        "serve-wire request (medians)",
        median(&client),
        &[
            ("serve.parse", mixed(&parse_us, median)),
            ("serve.queue", phase(|t| t.queue_us)),
            ("serve.batch_wait", phase(|t| t.batch_wait_us)),
            ("serve.solve", phase(|t| t.solve_us)),
            (
                "serve.serialize (render included)",
                phase(|t| t.serialize_us),
            ),
        ],
        "us",
    ));

    // Replay the served mix through a timed solver, one request a batch.
    let timed = TimedSolver::new(solo, Some(spans));
    let cfg = check::serve_cfg();
    let totals0 = timed.totals();
    let compiles0 = timed.compiles();
    let mut wall = 0.0;
    let mut iters = Vec::new();
    let mut n = 0;
    for p in problems {
        let domain = DomainSpec::new(solo.spec(), p.side, p.side);
        let reps = if p.side == 1 { MIX as usize - 1 } else { 1 };
        for _ in 0..reps {
            let t = Instant::now();
            let r = Mfp::new(&timed, domain).run_many(std::slice::from_ref(&p.bc), &cfg);
            wall += t.elapsed().as_secs_f64();
            iters.push(r[0].iterations as f64);
            n += 1;
        }
    }
    let t = timed.totals();
    crate::mfp_infer_layers(
        m,
        stats::mean(&iters),
        n,
        wall,
        t.launches - totals0.launches,
        t.rows - totals0.rows,
        t.launch_s - totals0.launch_s,
        t.dense_s - totals0.dense_s,
        t.flops - totals0.flops,
        t.bytes - totals0.bytes,
        timed.compiles() - compiles0,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed() {
        let picks = |seed| (0..200).map(|k| pick(seed, 1, k)).collect::<Vec<_>>();
        assert_eq!(picks(3), picks(3));
        assert_ne!(picks(3), picks(4));
        let big = picks(3).iter().filter(|&&i| i >= POOL).count();
        assert_eq!(big, 200 / MIX as usize);
        let bc = Tensor::from_vec(1, 3, vec![0.1, -2.5e-7, 1.0 / 3.0]);
        let p = Problem {
            side: 1,
            body: body(1, &bc),
            bc,
            grid: Tensor::zeros(1, 1),
            iterations: 0,
        };
        assert_eq!(line(9, &p), line(9, &p));
        // The explicit walk round-trips bitwise through the wire parser.
        let w = protocol::parse_request(line(9, &p).trim()).expect("valid line");
        let protocol::BcSpec::Values(v) = w.bc else {
            panic!("expected an explicit walk")
        };
        assert!(v
            .iter()
            .zip(p.bc.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        assert!(w.want_grid);
    }
}
