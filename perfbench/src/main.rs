//! End-to-end benchmark of the TAGLETS system.
//!
//! ```text
//! taglets-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out PATH]
//! ```
//!
//! Workloads (see `perfbench/layers.json` for the layer map):
//!
//! * `train-paper` — build the paper-scale environment, run
//!   `TagletsSystem::run` over the 4 standard tasks × {1, 5} shots, then
//!   serve the 5-shot `office_home_product` end model on distinct rows.
//! * `serve-unique` — build the smoke-scale environment and train the
//!   `office_home_product` end model, then serve distinct rows through a
//!   bare `ServingEngine` (the cache never hits).
//! * `serve-hot` — the same model behind a 2-replica `Router`, 90% of
//!   requests repeating a Zipf-popular hot set that fits the cache.
//!
//! The seed picks the task split and the traffic tape. `--trace 0` prints
//! the end-to-end metrics; `--trace 1` composes the same work from the
//! layers' public calls with a span around each and prints per-layer
//! metrics. The last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the exit code is 1 when
//! an output check failed and 2 on bad arguments or a setup error.

mod calib;
mod serve;
mod trace;
mod train;

use std::collections::BTreeMap;
use std::time::Instant;

use taglets_core::ServableModel;

use calib::Meter;
use serve::{median, quantile, run_ladder, Rung, RungSpec, Served, Topology, Traffic};
use taglets_eval::ExperimentScale;
use trace::Tracer;
use train::{build_env, compose_cell, cross_check, run_cell, CellOutcome, LayerCounts};

// Ladder rungs sit at most ~60% of, or at least twice, the saturation rate
// measured on a 2-vCPU host whose CPU speed drifts by up to 2x between runs,
// so no rung is within noise of the limit and `serve_max_rps` does not flip.
/// Served request rates of the distinct-row traffic (requests per second).
const UNIQUE_LADDER: [f64; 3] = [50_000.0, 100_000.0, 400_000.0];
/// Served request rates of the hot-set traffic (requests per second).
const HOT_LADDER: [f64; 2] = [150_000.0, 1_000_000.0];
/// The task whose end model is served.
const SERVED_TASK: &str = "office_home_product";
const SERVED_SHOTS: usize = 5;
const SWEEP_SHOTS: [usize; 2] = [1, 5];
/// Times a serving workload trains its served cell.
const SERVED_TRAININGS: usize = 5;

struct Workload {
    scale: ExperimentScale,
    /// Train every standard task at every sweep shot count (else only the
    /// served cell).
    sweep: bool,
    traffic: Traffic,
    topology: Topology,
    ladder: &'static [f64],
}

fn workload(name: &str) -> Option<Workload> {
    match name {
        "train-paper" => Some(Workload {
            scale: ExperimentScale::Paper,
            sweep: true,
            traffic: Traffic::Unique,
            topology: Topology::Engine,
            ladder: &UNIQUE_LADDER,
        }),
        "serve-unique" => Some(Workload {
            scale: ExperimentScale::Smoke,
            sweep: false,
            traffic: Traffic::Unique,
            topology: Topology::Engine,
            ladder: &UNIQUE_LADDER,
        }),
        "serve-hot" => Some(Workload {
            scale: ExperimentScale::Smoke,
            sweep: false,
            traffic: Traffic::Hot,
            topology: Topology::Router,
            ladder: &HOT_LADDER,
        }),
        _ => None,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got `{flag}`"))?
            .to_string();
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key, value);
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let args = Args {
        workload: get("workload")?.clone(),
        seed: get("seed")?
            .parse()
            .map_err(|_| "--seed must be a non-negative integer".to_string())?,
        seconds,
        trace: match map.get("trace").map(String::as_str) {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace must be 0 or 1, got `{other}`")),
        },
        trace_out: map.get("trace-out").map(std::path::PathBuf::from),
    };
    for key in map.keys() {
        if !["workload", "seed", "seconds", "trace", "trace-out"].contains(&key.as_str()) {
            return Err(format!("unknown flag --{key}"));
        }
    }
    Ok(args)
}

/// Metrics by name: (value, unit).
type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// Outcome tallies behind the result line.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn problem(&mut self, what: String) {
        self.failed += 1;
        self.note(what);
    }

    fn note(&mut self, what: String) {
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: taglets-perfbench --workload train-paper|serve-unique|serve-hot --seed N --seconds S --trace 0|1 [--trace-out PATH]");
            std::process::exit(2);
        }
    };
    let Some(w) = workload(&args.workload) else {
        eprintln!("error: unknown workload `{}`", args.workload);
        std::process::exit(2);
    };
    let mut tracer = Tracer::new(args.trace);
    let mut tally = Tally::default();
    let result = if args.trace {
        traced(&w, &args, &mut tracer, &mut tally)
    } else {
        untraced(&w, &args, &mut tally)
    };
    let metrics = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if let Some(path) = &args.trace_out {
        if args.trace {
            if let Err(e) = tracer.write_jsonl(path) {
                eprintln!(
                    "warning: could not write the trace to {}: {e}",
                    path.display()
                );
            }
        }
    }
    for p in &tally.problems {
        eprintln!("check failed: {p}");
    }
    let correct = tally.failed == 0;
    println!("{}", result_line(correct, &tally, &metrics));
    if !correct {
        std::process::exit(1);
    }
}

fn result_line(correct: bool, tally: &Tally, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

/// Cells the workload trains, as (task, shots), the served cell last.
fn cells(w: &Workload) -> Vec<(&'static str, usize)> {
    let mut cells = Vec::new();
    if w.sweep {
        for task in [
            "flickr_materials",
            "office_home_clipart",
            "grocery_store",
            SERVED_TASK,
        ] {
            for shots in SWEEP_SHOTS {
                if (task, shots) != (SERVED_TASK, SERVED_SHOTS) {
                    cells.push((task, shots));
                }
            }
        }
    }
    cells.push((SERVED_TASK, SERVED_SHOTS));
    cells
}

/// Floor on a cell's end-model and ensemble test accuracy: three times
/// chance. Every cell of the default system clears it by a wide margin, so
/// a miss means the training pipeline broke, not that a seed was unlucky.
fn accuracy_floor(num_classes: usize) -> f64 {
    3.0 / num_classes as f64
}

fn check_cell(tally: &mut Tally, task: &str, shots: usize, classes: usize, out: &CellOutcome) {
    tally.attempted += 1;
    let floor = accuracy_floor(classes);
    if !(out.end_acc >= floor && out.ensemble_acc >= floor) {
        tally.problem(format!(
            "{task} {shots}-shot: end model {:.3} / ensemble {:.3} below floor {floor:.3}",
            out.end_acc, out.ensemble_acc
        ));
    }
    let rows_ok = out
        .pseudo_labels
        .data()
        .chunks(classes.max(1))
        .all(|r| r.iter().all(|v| v.is_finite()) && (r.iter().sum::<f32>() - 1.0).abs() < 1e-3);
    if !rows_ok {
        tally.problem(format!(
            "{task} {shots}-shot: pseudo labels off the simplex"
        ));
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Counts a rung's requests as attempted and its failed output checks
/// (wrong answers, rejected rows, accounting breaks) as failed. A shed
/// request is the server's designed answer to overload, not a wrong
/// output: it counts against `serve_ok_share` at the nominal rate instead.
fn tally_rung(tally: &mut Tally, rung: &Rung) {
    for w in &rung.windows {
        tally.attempted += w.counts.submitted;
        tally.failed += w.failed_checks;
        for v in &w.violations {
            tally.note(format!("{} rps: {v}", rung.rate));
        }
    }
}

/// Microseconds for the log; a refused request's latency reads `inf`.
fn us(ns: u64) -> String {
    if ns == u64::MAX {
        "inf".to_string()
    } else {
        format!("{:.1}", ns as f64 / 1e3)
    }
}

fn rung_seed(seed: u64, rung: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (rung as u64 + 1)
}

/// `--trace 0`: the end-to-end metrics.
fn untraced(w: &Workload, args: &Args, tally: &mut Tally) -> Result<Metrics, String> {
    let mut off = Tracer::new(false);
    let setup_start = Instant::now();
    let env = build_env(w.scale, &mut off)?;
    let env_s = setup_start.elapsed().as_secs_f64();
    eprintln!("environment built in {env_s:.2}s");
    let system = env.system();
    let mut meter = Meter::new();
    let (mut sweep_s, mut sweep_kpass) = (0.0, 0.0);
    let (mut end_acc, mut ens_acc) = (0.0, 0.0);
    let cell_list = cells(w);
    let mut served_cell: Option<(ServableModel, taglets_tensor::Tensor)> = None;
    for &(name, shots) in &cell_list {
        let task = env.task(name)?;
        let split = task.split(args.seed, shots);
        let (out, kpass) = run_cell(&mut meter, &system, task, &split)?;
        check_cell(tally, name, shots, task.num_classes(), &out);
        eprintln!(
            "cell {name} {shots}-shot: {:.2}s  {kpass:.2} kpass  ref {:.2} us  end-acc {:.4}  ens-acc {:.4}",
            out.seconds,
            meter.pass_s() * 1e6,
            out.end_acc,
            out.ensemble_acc
        );
        let (mut seconds, mut kpasses) = (out.seconds, vec![kpass]);
        if !w.sweep {
            // A serving workload trains only its served cell; it trains it
            // SERVED_TRAININGS times, keeping the mean wall time and the
            // median time in reference passes, and every repeat must
            // reproduce the first model bit for bit.
            let mut times = vec![out.seconds];
            for _ in 1..SERVED_TRAININGS {
                let (again, kpass) = run_cell(&mut meter, &system, task, &split)?;
                tally.attempted += 1;
                let probe = &split.test_x;
                if !train::same_bits(
                    &again.end_model.predict_proba(probe),
                    &out.end_model.predict_proba(probe),
                ) {
                    tally.problem(format!(
                        "{name} {shots}-shot: retraining changed the end model"
                    ));
                }
                eprintln!(
                    "  again: {:.2}s  {kpass:.2} kpass  ref {:.2} us",
                    again.seconds,
                    meter.pass_s() * 1e6
                );
                times.push(again.seconds);
                kpasses.push(kpass);
            }
            seconds = times.iter().sum::<f64>() / times.len() as f64;
        }
        kpasses.sort_by(f64::total_cmp);
        sweep_kpass += kpasses[kpasses.len() / 2];
        sweep_s += seconds;
        end_acc += out.end_acc;
        ens_acc += out.ensemble_acc;
        if (name, shots) == (SERVED_TASK, SERVED_SHOTS) {
            served_cell = Some((out.end_model, split.test_x.clone()));
        }
    }
    let n_cells = cell_list.len() as f64;
    // A serving workload's set-up is the environment plus training the
    // served model (its mean training time).
    let setup_s = if w.sweep { env_s } else { env_s + sweep_s };
    let (model, base) = served_cell.ok_or("the served cell did not run")?;

    let per_rung = args.seconds / w.ladder.len() as f64;
    let specs: Vec<RungSpec> = w
        .ladder
        .iter()
        .enumerate()
        .map(|(k, &rate)| RungSpec {
            rate,
            seed: rung_seed(args.seed, k),
            traced: false,
        })
        .collect();
    let served = Served {
        model: &model,
        topology: w.topology,
        traffic: w.traffic,
        base: &base,
    };
    let rungs = run_ladder(&served, &specs, per_rung, &mut off)?;
    for rung in &rungs {
        tally_rung(tally, rung);
        eprintln!(
            "rung {:>8} rps: p50 {:>9} us  p99 {:>9} us  hit-p50 {:>9} us  fail {:.4}  lag-p99 {:>9} us  tail-lag {:>9} us  hits {}  ok {}  discarded {}",
            rung.rate,
            us(rung.p50_ns()),
            us(rung.p99_ns()),
            us(rung.hit_p50_ns()),
            rung.fail_share(),
            us(rung.lag_p99_ns()),
            us(median(rung.windows.iter().map(|w| w.tail_lag_max_ns).collect())),
            rung.sum(|w| w.counts.cache_hits),
            rung.ok(),
            rung.discarded
        );
    }
    let nominal = &rungs[0];
    let max_rps = rungs
        .iter()
        .filter(|r| r.ok())
        .map(|r| r.rate)
        .fold(0.0, f64::max);
    eprintln!(
        "env {env_s:.2}s  setup {setup_s:.2}s  sweep {sweep_s:.2}s  {sweep_kpass:.2} kpass  end-acc {:.4}  ens-acc {:.4}",
        end_acc / n_cells,
        ens_acc / n_cells
    );

    let mut m = Metrics::new();
    m.insert("setup_s", (setup_s, "s"));
    m.insert("sweep_kpass", (sweep_kpass, "kpass"));
    m.insert("end_model_acc", (end_acc / n_cells, "share"));
    m.insert("ensemble_acc", (ens_acc / n_cells, "share"));
    m.insert("serve_p50_us", (nominal.p50_ns() as f64 / 1e3, "us"));
    m.insert("serve_p99_us", (nominal.p99_ns() as f64 / 1e3, "us"));
    m.insert("serve_max_rps", (max_rps, "1/s"));
    m.insert("serve_ok_share", (1.0 - nominal.fail_share(), "share"));
    m.insert("peak_rss_mb", (peak_rss_mb(), "MB"));
    Ok(m)
}

/// `--trace 1`: the per-layer metrics, from the same work composed out of
/// the layers' public calls with a span around each.
fn traced(
    w: &Workload,
    args: &Args,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    let env = build_env(w.scale, tracer)?;
    for (span, metric) in [
        ("data.universe", "data.universe_s"),
        ("data.tasks", "data.tasks_s"),
        ("data.corpus", "data.corpus_s"),
        ("scads.build", "scads.build_s"),
        ("data.zoo_pretrain", "data.zoo_pretrain_s"),
        ("zslkg.pretrain", "zslkg.pretrain_s"),
    ] {
        m.insert(metric, (tracer.total_s(span), "s"));
    }

    let system = env.system();
    let mut meter = Meter::new();
    let mut counts = LayerCounts::default();
    let mut served_cell: Option<(ServableModel, taglets_tensor::Tensor)> = None;
    let mut overhead_share = 0.0;
    for &(name, shots) in &cells(w) {
        let task = env.task(name)?;
        let split = task.split(args.seed, shots);
        let out = compose_cell(&env, task, &split, tracer, &mut counts)?;
        check_cell(tally, name, shots, task.num_classes(), &out);
        if (name, shots) == (SERVED_TASK, SERVED_SHOTS) {
            // The served cell is also run through `TagletsSystem::run`: the
            // composition must reproduce it bit for bit, and the difference
            // in wall time is the tracing overhead on training.
            let (same, untraced_s) = cross_check(&mut meter, &out, &system, task, &split)?;
            tally.attempted += 1;
            if !same {
                tally.problem(format!(
                    "{name} {shots}-shot: composed cell differs from TagletsSystem::run"
                ));
            }
            if w.sweep {
                overhead_share = (out.seconds - untraced_s) / untraced_s;
            }
            served_cell = Some((out.end_model, split.test_x.clone()));
        }
    }
    let cell_s = tracer.total_s("cell");
    let mut stage_s =
        tracer.total_s("select") + tracer.total_s("ensemble") + tracer.total_s("distill");
    m.insert("select.s", (tracer.total_s("select"), "s"));
    m.insert("select.aux_examples", (counts.aux_examples as f64, "count"));
    for (i, (_, span, seconds, steps)) in train::MODULES.iter().enumerate() {
        let s = tracer.total_s(span);
        stage_s += s;
        m.insert(seconds, (s, "s"));
        m.insert(steps, (counts.module_steps[i] as f64, "count"));
    }
    m.insert("ensemble.s", (tracer.total_s("ensemble"), "s"));
    m.insert("ensemble.rows", (counts.ensemble_rows as f64, "count"));
    m.insert("distill.s", (tracer.total_s("distill"), "s"));
    m.insert("distill.steps", (counts.distill_steps as f64, "count"));
    m.insert("trace.sweep_accounted_share", (stage_s / cell_s, "share"));
    m.insert("sweep.wall_s", (cell_s, "s"));
    m.insert("host.ref_pass_us", (meter.pass_s() * 1e6, "us"));

    let (model, base) = served_cell.ok_or("the served cell did not run")?;
    // The nominal rung runs twice, untraced and traced, for the tracing
    // overhead; the top rung runs untraced for the shed share under
    // overload. Their windows interleave.
    let per_rung = args.seconds / w.ladder.len() as f64;
    let top = w.ladder.len() - 1;
    let seed0 = rung_seed(args.seed, 0);
    let specs = [
        RungSpec {
            rate: w.ladder[0],
            seed: seed0,
            traced: false,
        },
        RungSpec {
            rate: w.ladder[0],
            seed: seed0,
            traced: true,
        },
        RungSpec {
            rate: w.ladder[top],
            seed: rung_seed(args.seed, top),
            traced: false,
        },
    ];
    let served = Served {
        model: &model,
        topology: w.topology,
        traffic: w.traffic,
        base: &base,
    };
    let rungs = run_ladder(&served, &specs, per_rung, tracer)?;
    for rung in &rungs {
        tally_rung(tally, rung);
    }
    let (plain, nominal, top) = (&rungs[0], &rungs[1], &rungs[2]);
    let nominal_spans = tracer.spans_since(nominal.windows[0].span_from);
    let span_p50 = |name: &str| {
        let mut d: Vec<u64> = nominal_spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns())
            .collect();
        d.sort_unstable();
        quantile(&d, 0.5) as f64
    };
    let engine_submit = span_p50("serve.submit");
    let route_submit = span_p50("route.submit");
    let mut waits: Vec<u64> = nominal
        .windows
        .iter()
        .flat_map(|w| w.queue_wait_ns.iter().copied())
        .collect();
    waits.sort_unstable();
    let (hits, misses) = (
        nominal.sum(|w| w.counts.cache_hits),
        nominal.sum(|w| w.counts.cache_misses),
    );
    let batches = nominal.sum(|w| w.counts.batches).max(1) as f64;
    let rows_mean = nominal.sum(|w| w.counts.batch_rows) as f64 / batches;
    let tick_ns = nominal.sum(|w| w.tick_ns) as f64;
    let imbalance = nominal
        .windows
        .iter()
        .map(|w| w.counts.dispatch_imbalance)
        .sum::<f64>()
        / nominal.windows.len() as f64;

    m.insert("gen.lag_p99_us", (nominal.lag_p99_ns() as f64 / 1e3, "us"));
    m.insert(
        "gen.discarded_windows",
        (
            rungs.iter().map(|r| r.discarded).sum::<u64>() as f64,
            "count",
        ),
    );
    m.insert(
        "serve.submit_ns_p50",
        (
            if w.topology == Topology::Router {
                route_submit
            } else {
                engine_submit
            },
            "ns",
        ),
    );
    m.insert(
        "serve.cache_hit_share",
        (hits as f64 / (hits + misses).max(1) as f64, "share"),
    );
    m.insert(
        "serve.hit_us_p50",
        (nominal.hit_p50_ns() as f64 / 1e3, "us"),
    );
    m.insert(
        "serve.queue_wait_us_p50",
        (quantile(&waits, 0.5) as f64 / 1e3, "us"),
    );
    m.insert("serve.batches", (batches, "count"));
    m.insert("serve.batch_rows_mean", (rows_mean, "count"));
    m.insert(
        "serve.deadline_flush_share",
        (
            nominal.sum(|w| w.counts.deadline_flushes) as f64 / batches,
            "share",
        ),
    );
    m.insert(
        "serve.tick_busy_share",
        (tick_ns / nominal.sum(|w| w.wall_ns).max(1) as f64, "share"),
    );
    m.insert(
        "serve.compute_us_per_batch",
        (tick_ns / 1e3 / batches, "us"),
    );
    m.insert("serve.fail_share", (nominal.fail_share(), "share"));
    m.insert("route.submit_ns_p50", (route_submit, "ns"));
    m.insert("route.dispatch_imbalance", (imbalance, "ratio"));
    let (flops, bytes) = batch_cost(&model, rows_mean);
    m.insert("kernel.flops_per_batch", (flops, "flop"));
    m.insert("kernel.bytes_per_batch", (bytes, "B"));
    if !w.sweep {
        overhead_share =
            (nominal.p50_ns() as f64 - plain.p50_ns() as f64) / plain.p50_ns().max(1) as f64;
    }

    m.insert(
        "serve.shed_share",
        (
            top.sum(|w| w.shed) as f64 / top.sum(|w| w.sent).max(1) as f64,
            "share",
        ),
    );
    m.insert("trace.overhead_share", (overhead_share, "share"));
    Ok(m)
}

/// Floating-point operations and bytes one batch of `rows` rows moves
/// through the end model's dense layers, computed from the layer shapes:
/// weights and biases read once, activations read and written once per
/// layer.
fn batch_cost(model: &ServableModel, rows: f64) -> (f64, f64) {
    let clf = model.classifier();
    let mut flops = 0.0;
    let mut bytes = 0.0;
    for layer in clf
        .backbone()
        .layers()
        .iter()
        .chain(std::iter::once(clf.head()))
    {
        let (k, n) = (layer.fan_in() as f64, layer.fan_out() as f64);
        flops += 2.0 * rows * k * n;
        bytes += 4.0 * (k * n + n) + 4.0 * rows * (k + n);
    }
    (flops, bytes)
}
