//! Open-loop, wall-clock serving of a distilled end model.
//!
//! One thread both generates load and drives the server, as a single-process
//! client library would: requests are due on a seeded Poisson schedule, each
//! is submitted as soon as the loop reaches it, and each is timed from the
//! moment it was *due*, so a stall in the server is charged to every request
//! that waited behind it. The lateness of the submit itself is reported as
//! generator lag.
//!
//! Every answered request is accounted exactly once; a sample of answers is
//! checked bit for bit against `ServableModel::predict_proba` after the
//! rung, outside the timed loop.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use taglets_core::{
    Clock, RouteConfig, RouteError, Router, ServableModel, ServeConfig, ServeError, ServingEngine,
};
use taglets_tensor::Tensor;

use crate::trace::Tracer;

/// Latency limit on the p99 of a rung (nanoseconds).
const P99_LIMIT_NS: u64 = 2_500_000;
/// Largest share of requests that may be shed, rejected or wrong at a rung.
const FAIL_LIMIT: f64 = 0.001;
/// Every `SAMPLE_EVERY`-th request's answer is checked against the oracle.
const SAMPLE_EVERY: usize = 61;
/// In a traced window, every `TRACE_EVERY`-th request records its submit
/// spans (every batch-producing tick is recorded).
const TRACE_EVERY: usize = 8;
/// Share of each rung's tape that only warms the server (cache, allocator)
/// and is excluded from latency statistics.
const WARMUP_SHARE: f64 = 0.2;
/// Standard deviation of the noise added to a task row.
const NOISE_STD: f32 = 0.02;
/// Distinct rows in the hot set of the cache-friendly traffic.
const HOT_SET: usize = 512;
/// Share of hot-traffic requests drawn from the hot set.
const HOT_SHARE: f64 = 0.9;
/// Zipf exponent of hot-set popularity.
const ZIPF_S: f64 = 1.0;
/// Tenants of the routed traffic.
const TENANTS: u32 = 4;

/// Wall clock handed to the library through its injected `Clock` trait.
pub struct WallClock {
    origin: std::time::Instant,
}

impl WallClock {
    /// A clock counting from `origin` (the tracer's, so span and serving
    /// timestamps share one time base).
    pub fn starting_at(origin: std::time::Instant) -> Self {
        WallClock { origin }
    }
}

impl Clock for WallClock {
    fn now_nanos(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Which requests the tape carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Every request is a fresh noisy task row: the cache never hits.
    Unique,
    /// 90% of requests repeat a Zipf-popular hot set, 10% are fresh.
    Hot,
}

/// Which server answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One `ServingEngine` with the default `ServeConfig`.
    Engine,
    /// A `Router` with the default `RouteConfig` (2 replicas, consistent
    /// hash, no quota).
    Router,
}

/// Noise rows in a tape's pool; fresh row `f` is base row `f mod B` plus
/// noise row `f div B`, so rows stay distinct for `B × NOISE_POOL` requests.
const NOISE_POOL: usize = 4096;

/// A seeded request tape: due times, tenants and where each row comes from.
/// Rows are assembled when the request is sent, as a client builds its
/// payload, so the tape stays small at any rate.
struct Tape {
    due_ns: Vec<u64>,
    tenant: Vec<u32>,
    /// Fresh-row number of each request (hot rows are fresh rows
    /// `0..HOT_SET`).
    fresh: Vec<u32>,
    /// Base rows in a seeded order.
    base: Vec<f32>,
    noise: Vec<f32>,
    dim: usize,
    /// Requests due before this index only warm the server.
    measured_from: usize,
}

impl Tape {
    fn row(&self, i: usize) -> Vec<f32> {
        let f = self.fresh[i] as usize;
        let nb = self.base.len() / self.dim;
        let (b, z) = (f % nb, f / nb);
        let base = &self.base[b * self.dim..(b + 1) * self.dim];
        let noise = &self.noise[z * self.dim..(z + 1) * self.dim];
        base.iter().zip(noise).map(|(x, e)| x + e).collect()
    }

    fn len(&self) -> usize {
        self.due_ns.len()
    }
}

fn gaussian(rng: &mut StdRng) -> f32 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
}

fn make_tape(
    traffic: Traffic,
    base: &Tensor,
    rate: f64,
    seconds: f64,
    seed: u64,
) -> Result<Tape, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let dim = base.cols();
    let total_s = seconds / (1.0 - WARMUP_SHARE);
    let warmup_ns = (total_s * WARMUP_SHARE * 1e9) as u64;
    let mut due_ns = Vec::new();
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen_range(0.0..1.0);
        t += -(1.0 - u).ln() / rate;
        if t >= total_s {
            break;
        }
        due_ns.push((t * 1e9) as u64);
    }
    let n = due_ns.len();
    let measured_from = due_ns.partition_point(|&d| d < warmup_ns);

    let mut order: Vec<usize> = (0..base.rows()).collect();
    rand::seq::SliceRandom::shuffle(order.as_mut_slice(), &mut rng);
    let base_rows: Vec<f32> = order.iter().flat_map(|&r| base.row(r).to_vec()).collect();
    let noise: Vec<f32> = (0..NOISE_POOL * dim)
        .map(|_| NOISE_STD * gaussian(&mut rng))
        .collect();

    let mut fresh = Vec::with_capacity(n);
    let mut tenant = Vec::with_capacity(n);
    let mut next_fresh = 0u32;
    match traffic {
        Traffic::Unique => {
            for _ in 0..n {
                fresh.push(next_fresh);
                next_fresh += 1;
                tenant.push(0);
            }
        }
        Traffic::Hot => {
            next_fresh = HOT_SET as u32;
            let mut cdf = Vec::with_capacity(HOT_SET);
            let mut acc = 0.0;
            for k in 1..=HOT_SET {
                acc += 1.0 / (k as f64).powf(ZIPF_S);
                cdf.push(acc);
            }
            for _ in 0..n {
                if rng.gen_range(0.0..1.0) < HOT_SHARE {
                    let u = rng.gen_range(0.0..acc);
                    let k = cdf.partition_point(|&c| c < u).min(HOT_SET - 1);
                    fresh.push(k as u32);
                } else {
                    fresh.push(next_fresh);
                    next_fresh += 1;
                }
                tenant.push(rng.gen_range(0..TENANTS));
            }
        }
    }
    if next_fresh as usize > base.rows() * NOISE_POOL {
        return Err(format!(
            "a tape of {n} requests needs more distinct rows than {} base rows x {NOISE_POOL} noise rows",
            base.rows()
        ));
    }
    Ok(Tape {
        due_ns,
        tenant,
        fresh,
        base: base_rows,
        noise,
        dim,
        measured_from,
    })
}

/// Counters a server reports once a rung has drained.
#[derive(Debug, Default, Clone)]
pub struct ServerCounts {
    pub submitted: u64,
    pub answered: u64,
    pub shed: u64,
    pub rejected: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub batches: u64,
    pub batch_rows: u64,
    pub deadline_flushes: u64,
    pub dispatch_imbalance: f64,
}

fn absorb_serve(c: &mut ServerCounts, t: &taglets_core::ServeTelemetry) {
    c.submitted += t.submitted;
    c.answered += t.answered;
    c.shed += t.shed;
    c.rejected += t.rejected;
    c.cache_hits += t.cache_hits;
    c.cache_misses += t.cache_misses;
    c.batches += t.batches;
    c.deadline_flushes += t.deadline_flushes;
    c.batch_rows += t
        .batch_sizes
        .iter()
        .enumerate()
        .map(|(n, &k)| n as u64 * k)
        .sum::<u64>();
}

enum Submitted {
    Admitted,
    Shed,
    Rejected,
}

/// The calls `drive` makes, over a bare engine or a router.
trait Server {
    /// Submits one request; `traced` records its spans in `tracer`.
    fn submit(
        &mut self,
        tenant: u32,
        row: Vec<f32>,
        tracer: &mut Tracer,
        traced: bool,
        id: u64,
    ) -> Submitted;
    fn tick(&mut self);
    fn drain(&mut self);
    /// Hands every completed response (`id`, probabilities) to `f`.
    fn harvest(&mut self, f: impl FnMut(u64, Vec<f32>));
    fn pending(&self) -> usize;
    fn next_deadline(&self) -> Option<u64>;
    fn finish(self) -> ServerCounts;
}

impl Server for ServingEngine<'_> {
    fn submit(
        &mut self,
        _tenant: u32,
        row: Vec<f32>,
        tracer: &mut Tracer,
        traced: bool,
        id: u64,
    ) -> Submitted {
        let start = traced.then(|| tracer.now_ns());
        let result = ServingEngine::submit(self, row);
        if let Some(start) = start {
            tracer.leaf("serve.submit", id, start, tracer.now_ns());
        }
        match result {
            Ok(_) => Submitted::Admitted,
            Err(ServeError::Overloaded { .. }) => Submitted::Shed,
            Err(_) => Submitted::Rejected,
        }
    }
    fn tick(&mut self) {
        ServingEngine::tick(self)
    }
    fn drain(&mut self) {
        ServingEngine::drain(self)
    }
    fn harvest(&mut self, mut f: impl FnMut(u64, Vec<f32>)) {
        for r in self.take_responses() {
            f(r.id, r.probs);
        }
    }
    fn pending(&self) -> usize {
        self.pending_len()
    }
    fn next_deadline(&self) -> Option<u64> {
        ServingEngine::next_deadline(self)
    }
    fn finish(self) -> ServerCounts {
        let mut c = ServerCounts::default();
        absorb_serve(&mut c, &self.into_telemetry());
        c
    }
}

impl Server for Router<'_> {
    fn submit(
        &mut self,
        tenant: u32,
        row: Vec<f32>,
        tracer: &mut Tracer,
        traced: bool,
        id: u64,
    ) -> Submitted {
        let start = traced.then(|| tracer.now_ns());
        let result = Router::submit(self, tenant, row);
        if let Some(start) = start {
            tracer.leaf("route.submit", id, start, tracer.now_ns());
        }
        match result {
            Ok(_) => Submitted::Admitted,
            Err(RouteError::Overloaded { .. }) => Submitted::Shed,
            Err(_) => Submitted::Rejected,
        }
    }
    fn tick(&mut self) {
        Router::tick(self)
    }
    fn drain(&mut self) {
        Router::drain(self)
    }
    fn harvest(&mut self, mut f: impl FnMut(u64, Vec<f32>)) {
        for r in self.take_responses() {
            f(r.id, r.probs);
        }
    }
    fn pending(&self) -> usize {
        self.total_load()
    }
    fn next_deadline(&self) -> Option<u64> {
        Router::next_deadline(self)
    }
    fn finish(self) -> ServerCounts {
        let t = self.into_telemetry();
        let mut c = ServerCounts {
            dispatch_imbalance: t.dispatch_imbalance(),
            ..ServerCounts::default()
        };
        // With no tenant quota (the default) every request reaches a
        // replica, so the replicas' books are the router's.
        for replica in &t.replicas {
            absorb_serve(&mut c, replica);
        }
        c
    }
}

/// What one window of a rung measured.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Requests in the measured window.
    pub sent: u64,
    pub answered: u64,
    pub shed: u64,
    pub rejected: u64,
    pub wrong: u64,
    /// Output-check failures over the whole tape (warm-up too): wrong
    /// answers, rejected well-formed rows, accounting breaks.
    pub failed_checks: u64,
    /// The first few failures, for the log.
    pub violations: Vec<String>,
    /// Percentiles over requests not answered from the cache (refused
    /// requests count as missing every limit).
    pub p50_ns: u64,
    pub p99_ns: u64,
    /// p99 over every measured request, cache hits included: the limit.
    pub all_p99_ns: u64,
    /// p50 of cache hits (`0` when nothing hit).
    pub hit_p50_ns: u64,
    pub lag_p99_ns: u64,
    pub tail_lag_max_ns: u64,
    pub wall_ns: u64,
    /// Wall time of the window during which the serving thread was not
    /// running: preempted by the guest kernel or by the hypervisor (steal).
    pub off_cpu_ns: u64,
    pub counts: ServerCounts,
    /// Sampled answers (`id`, probabilities) for the oracle check.
    samples: Vec<(u64, Vec<f32>)>,
    /// Traced only: spans recorded for this window start here.
    pub span_from: usize,
    /// Traced only: admission-to-batch-start wait of each answered miss.
    pub queue_wait_ns: Vec<u64>,
    pub tick_ns: u64,
}

impl Window {
    fn violation(&mut self, what: String) {
        self.failed_checks += 1;
        if self.violations.len() < 8 {
            self.violations.push(what);
        }
    }

    pub fn fail_share(&self) -> f64 {
        (self.sent - self.answered.min(self.sent) + self.wrong) as f64 / self.sent.max(1) as f64
    }

    /// The serving thread was off the CPU for more than
    /// [`OFF_CPU_LIMIT_SHARE`] of the window.
    fn descheduled(&self) -> bool {
        self.off_cpu_ns as f64 > OFF_CPU_LIMIT_SHARE * self.wall_ns as f64
    }

    /// The rate is sustained: p99 within the limit, failures within their
    /// limit, and the generator not falling behind at the end of the window.
    pub fn ok(&self) -> bool {
        self.all_p99_ns <= P99_LIMIT_NS
            && self.fail_share() <= FAIL_LIMIT
            && self.tail_lag_max_ns <= P99_LIMIT_NS
    }
}

/// Value at quantile `q` of an ascending slice (nearest rank).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Serves one window: builds a fresh server, replays a tape open-loop
/// against the wall clock, then checks the answers.
fn run_window(
    served: &Served<'_>,
    rate: f64,
    seconds: f64,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<Window, String> {
    let Served {
        model,
        topology,
        traffic,
        base,
    } = *served;
    let tape = make_tape(traffic, base, rate, seconds, seed)?;
    let clock = WallClock::starting_at(tracer.origin());
    let mut window = match topology {
        Topology::Engine => {
            let mut engine = ServingEngine::new(model, ServeConfig::default(), &clock)
                .map_err(|e| e.to_string())?;
            let mut window = drive(&mut engine, &clock, &tape, tracer);
            window.counts = engine.finish();
            window
        }
        Topology::Router => {
            let mut router =
                Router::new(model, RouteConfig::default(), &clock).map_err(|e| e.to_string())?;
            let mut window = drive(&mut router, &clock, &tape, tracer);
            window.counts = router.finish();
            window
        }
    };
    // Oracle check on the sampled answers, outside the timed loop: each must
    // equal the single-request tape forward pass bit for bit.
    for (id, probs) in std::mem::take(&mut window.samples) {
        let row = Tensor::from_vec(tape.row(id as usize)).reshaped(&[1, tape.dim]);
        let expect = model.predict_proba(&row);
        let same = expect.data().len() == probs.len()
            && expect
                .data()
                .iter()
                .zip(&probs)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            if (id as usize) >= tape.measured_from {
                window.wrong += 1;
            }
            window.violation(format!("request {id}: answer differs from predict_proba"));
        }
    }
    let c = window.counts.clone();
    if c.submitted != tape.len() as u64 || c.answered + c.shed + c.rejected != c.submitted {
        window.violation(format!(
            "server books do not balance: submitted {} answered {} shed {} rejected {} (sent {})",
            c.submitted,
            c.answered,
            c.shed,
            c.rejected,
            tape.len()
        ));
    }
    if traffic == Traffic::Unique && c.cache_hits > 0 {
        window.violation(format!("{} cache hits on distinct rows", c.cache_hits));
    }
    Ok(window)
}

const UNANSWERED: u64 = u64::MAX;

fn drive<S: Server>(server: &mut S, clock: &WallClock, tape: &Tape, tracer: &mut Tracer) -> Window {
    let n = tape.len();
    let traced = tracer.enabled();
    let window_span = tracer.begin("serve.window");
    tracer.reserve(if traced {
        n / TRACE_EVERY + n / 4 + 16
    } else {
        0
    });
    let span_from = tracer.len();
    let mut done = vec![UNANSWERED; n];
    let mut lag = vec![0u64; n];
    // 0 pending, 1 admitted to the queue, 2 shed, 3 rejected, 4 cache hit
    let mut outcome = vec![0u8; n];
    let mut duplicates = 0u64;
    let mut samples: Vec<(u64, Vec<f32>)> = Vec::with_capacity(n / SAMPLE_EVERY + 1);
    let mut submit_end = if traced { vec![0u64; n] } else { Vec::new() };
    let mut queue_wait_ns = Vec::new();
    let mut tick_ns = 0u64;

    // Due times are offset so the first request is due just after start.
    let offset = clock.now_nanos() + 200_000;
    let start = offset;
    let on_cpu_start = thread_on_cpu_ns();
    let mut i = 0usize;
    let mut record = |id: u64, probs: Vec<f32>, at: u64, done: &mut [u64], samples: &mut Vec<_>| {
        let id_us = id as usize;
        if id_us >= done.len() || done[id_us] != UNANSWERED {
            duplicates += 1;
            return;
        }
        done[id_us] = at;
        if id_us.is_multiple_of(SAMPLE_EVERY) {
            samples.push((id, probs));
        }
    };
    loop {
        let now = clock.now_nanos();
        while i < n && tape.due_ns[i] + offset <= now {
            let row = tape.row(i);
            let sub_start = clock.now_nanos();
            lag[i] = sub_start - (tape.due_ns[i] + offset);
            let sampled = traced && i.is_multiple_of(TRACE_EVERY);
            outcome[i] = match server.submit(tape.tenant[i], row, tracer, sampled, i as u64) {
                Submitted::Admitted => 1,
                Submitted::Shed => 2,
                Submitted::Rejected => 3,
            };
            // A cache hit is answered inside submit.
            let at = clock.now_nanos();
            if traced {
                submit_end[i] = at;
            }
            server.harvest(|id, probs| record(id, probs, at, &mut done, &mut samples));
            if outcome[i] == 1 && done[i] != UNANSWERED {
                outcome[i] = 4;
            }
            i += 1;
        }
        if i >= n {
            // The tape is exhausted: flush what is left at its deadline.
            if let Some(due) = server.next_deadline() {
                while clock.now_nanos() < due {
                    std::hint::spin_loop();
                }
            }
        }
        let tick_start = clock.now_nanos();
        if i >= n {
            server.drain();
        } else {
            server.tick();
        }
        let at = clock.now_nanos();
        let mut produced = false;
        server.harvest(|id, probs| {
            produced = true;
            if traced {
                let sub = submit_end.get(id as usize).copied().unwrap_or(tick_start);
                queue_wait_ns.push(tick_start.saturating_sub(sub));
            }
            record(id, probs, at, &mut done, &mut samples)
        });
        if produced {
            tick_ns += at - tick_start;
            tracer.leaf("serve.tick", 0, tick_start, at);
        }
        if i >= n && server.pending() == 0 {
            break;
        }
        if i < n {
            let mut next = tape.due_ns[i] + offset;
            if let Some(d) = server.next_deadline() {
                next = next.min(d);
            }
            while clock.now_nanos() < next {
                std::hint::spin_loop();
            }
        }
    }
    let wall_ns = clock.now_nanos() - start;
    let on_cpu_ns = thread_on_cpu_ns()
        .zip(on_cpu_start)
        .map(|(b, a)| b.saturating_sub(a));
    tracer.end(window_span);

    let mut window = Window {
        wall_ns,
        // Without the scheduler's accounting every window counts as on-CPU.
        off_cpu_ns: on_cpu_ns.map_or(0, |on| wall_ns.saturating_sub(on)),
        span_from,
        queue_wait_ns,
        tick_ns,
        ..Window::default()
    };
    if duplicates > 0 {
        window.violation(format!(
            "{duplicates} responses for unknown or already-answered ids"
        ));
    }
    let mut latencies = Vec::with_capacity(n - tape.measured_from);
    let mut all = Vec::with_capacity(n - tape.measured_from);
    let mut hits = Vec::new();
    let mut lags = Vec::with_capacity(n - tape.measured_from);
    for k in 0..n {
        let answered = done[k] != UNANSWERED;
        let admitted = outcome[k] == 1 || outcome[k] == 4;
        if admitted && !answered {
            window.violation(format!("admitted request {k} never answered"));
        }
        if !admitted && answered {
            window.violation(format!("refused request {k} was answered"));
        }
        if outcome[k] == 3 {
            window.violation(format!("well-formed request {k} was rejected"));
        }
        if k < tape.measured_from {
            continue;
        }
        window.sent += 1;
        lags.push(lag[k]);
        let latency = match outcome[k] {
            _ if admitted && answered => {
                window.answered += 1;
                done[k] - (tape.due_ns[k] + offset)
            }
            3 => {
                window.rejected += 1;
                u64::MAX
            }
            _ => {
                window.shed += 1;
                u64::MAX
            }
        };
        all.push(latency);
        if outcome[k] == 4 {
            hits.push(latency);
        } else {
            latencies.push(latency);
        }
    }
    latencies.sort_unstable();
    all.sort_unstable();
    hits.sort_unstable();
    window.p50_ns = quantile(&latencies, 0.5);
    window.p99_ns = quantile(&latencies, 0.99);
    window.all_p99_ns = quantile(&all, 0.99);
    window.hit_p50_ns = quantile(&hits, 0.5);
    let tail_from = lags.len() - lags.len() / 10;
    window.tail_lag_max_ns = lags[tail_from..].iter().copied().max().unwrap_or(0);
    lags.sort_unstable();
    window.lag_p99_ns = quantile(&lags, 0.99);
    window.samples = samples;
    window
}

/// Windows per rung. A rung is judged by its median window, so one stall of
/// the machine (another process taking the core for a few milliseconds)
/// costs one window, not the rung.
const WINDOWS: usize = 9;
/// A window whose serving thread spent more than this share of its wall
/// time off the CPU is served again, at most [`MAX_RETRIES`] times: on a
/// shared virtual machine the hypervisor can take the core for tens of
/// milliseconds, which sheds requests that the server never saw. The
/// server's own slowness keeps the thread on the CPU and is never retried.
const OFF_CPU_LIMIT_SHARE: f64 = 0.01;
const MAX_RETRIES: u32 = 3;

/// Nanoseconds the calling thread has run on a CPU
/// (`CLOCK_THREAD_CPUTIME_ID`). Time the hypervisor steals is not run time.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_on_cpu_ns() -> Option<u64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable value for the whole call, and on
    // 64-bit Linux `struct timespec` is exactly two 64-bit integers
    // (`time_t`, `long`), the layout of `Timespec`. The clock id is the
    // kernel's constant for the calling thread's CPU-time clock, which
    // every Linux since 2.6 provides.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_on_cpu_ns() -> Option<u64> {
    None
}

/// One rate of the ladder, served as [`WINDOWS`] independent windows, each
/// with its own tape and a fresh server.
#[derive(Debug, Clone, Default)]
pub struct Rung {
    pub rate: f64,
    pub windows: Vec<Window>,
    /// Windows served again because the serving thread was descheduled.
    pub discarded: u64,
}

/// Median of a non-empty list (upper median for even lengths).
pub fn median(mut v: Vec<u64>) -> u64 {
    v.sort_unstable();
    v[v.len() / 2]
}

impl Rung {
    pub fn p50_ns(&self) -> u64 {
        median(self.windows.iter().map(|w| w.p50_ns).collect())
    }

    pub fn p99_ns(&self) -> u64 {
        median(self.windows.iter().map(|w| w.p99_ns).collect())
    }

    pub fn hit_p50_ns(&self) -> u64 {
        median(self.windows.iter().map(|w| w.hit_p50_ns).collect())
    }

    pub fn lag_p99_ns(&self) -> u64 {
        median(self.windows.iter().map(|w| w.lag_p99_ns).collect())
    }

    /// Sustained when most windows sustained it.
    pub fn ok(&self) -> bool {
        2 * self.windows.iter().filter(|w| w.ok()).count() > self.windows.len()
    }

    /// Share of measured requests shed, rejected, lost or answered wrong,
    /// in the median window.
    pub fn fail_share(&self) -> f64 {
        let mut shares: Vec<f64> = self.windows.iter().map(Window::fail_share).collect();
        shares.sort_by(f64::total_cmp);
        shares[shares.len() / 2]
    }

    pub fn sum(&self, f: impl Fn(&Window) -> u64) -> u64 {
        self.windows.iter().map(f).sum()
    }
}

/// What is served, to whom, and with which traffic.
#[derive(Clone, Copy)]
pub struct Served<'a> {
    pub model: &'a ServableModel,
    pub topology: Topology,
    pub traffic: Traffic,
    /// Task rows the traffic perturbs.
    pub base: &'a Tensor,
}

/// One rung to serve: its rate, the seed of its tapes and whether its
/// windows record spans.
pub struct RungSpec {
    pub rate: f64,
    pub seed: u64,
    pub traced: bool,
}

/// Serves every rung for `seconds_per_rung`, interleaving their windows
/// (window 0 of every rung, then window 1, ...) so a slow spell of the
/// machine lands on one window of each rung instead of a whole rung.
pub fn run_ladder(
    served: &Served<'_>,
    specs: &[RungSpec],
    seconds_per_rung: f64,
    tracer: &mut Tracer,
) -> Result<Vec<Rung>, String> {
    let mut rungs: Vec<Rung> = specs
        .iter()
        .map(|s| Rung {
            rate: s.rate,
            windows: Vec::with_capacity(WINDOWS),
            discarded: 0,
        })
        .collect();
    let mut untraced = Tracer::new(false);
    for k in 0..WINDOWS {
        for (rung, spec) in rungs.iter_mut().zip(specs) {
            let window_tracer = if spec.traced {
                &mut *tracer
            } else {
                &mut untraced
            };
            let mark = window_tracer.len();
            let mut retries = 0;
            let window = loop {
                let window = run_window(
                    served,
                    spec.rate,
                    seconds_per_rung / WINDOWS as f64,
                    spec.seed ^ ((k as u64 + 1) << 48),
                    window_tracer,
                )?;
                if !window.descheduled() || retries == MAX_RETRIES {
                    break window;
                }
                // The host took the core away mid-window: that measures the
                // machine, not the server. Serve the same tape again.
                retries += 1;
                rung.discarded += 1;
                window_tracer.truncate(mark);
            };
            rung.windows.push(window);
        }
    }
    Ok(rungs)
}
