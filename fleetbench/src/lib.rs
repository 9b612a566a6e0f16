//! Closed-loop benchmark of the `helio-fleet` served request path.
//!
//! One run serves one workload (see [`workload`]) through
//! `helio_fleet::serve_with` in this process: a single client sends
//! the fleet config line, then request lines generated from the run
//! seed, each only after the reply to the previous one was flushed.
//!
//! * Untraced (`--trace 0`) runs report the end-to-end metrics.
//! * Traced (`--trace 1`) runs serve the same request stream and, after
//!   each reply, replay the request layer by layer from outside (see
//!   [`traced`]), reporting the per-layer metrics.
//!
//! Both start with the correctness gate and print no numbers when it
//! fails.

pub mod client;
pub mod host;
pub mod probe;
pub mod scan;
pub mod traced;
pub mod workload;

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io::BufReader;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use helio_fleet::{serve_with, ServeOptions};

use client::{Answered, Client, Traffic};
use host::Reference;
use traced::Tracer;
pub use workload::{Size, Workload};
use workload::{KINDS, PERIODS};

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// The traffic mix.
    pub workload: Workload,
    /// Seed of the request stream.
    pub seed: u64,
    /// Timed phase length (a run still serves at least
    /// [`Size::passes`] whole passes).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// How much work the run does.
    pub size: Size,
    /// Directory holding the recorded `session.jsonl` and its
    /// `expected.jsonl`.
    pub golden_dir: PathBuf,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` spells it.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// What a run hands back once the correctness gate has passed.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Scenarios attempted in the measured phase.
    pub attempted: u64,
    /// Of those, scenarios answered with an error line instead of a
    /// report. Any such line fails the gate, so a returned outcome
    /// holds 0.
    pub failed: u64,
    /// Every metric of the run, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable remarks (the accounting check's verdict).
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Runs the correctness gate, then the untraced or traced run, in this
/// process.
///
/// # Errors
///
/// Returns a description of the first failed check; no metric is
/// reported then.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    gate(opts)?;
    measure(opts)
}

/// The untraced or traced run, without the gate.
///
/// # Errors
///
/// Returns a description of the first failed check.
pub fn measure(opts: &Options) -> Result<Outcome, String> {
    let outcome = if opts.trace {
        traced_run(opts)?
    } else {
        untraced_run(opts)?
    };
    match outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        Some(m) => Err(format!("{} is not a finite number: {}", m.name, m.value)),
        None => Ok(outcome),
    }
}

/// The correctness gate: the recorded golden session replays byte for
/// byte, and this workload's traced replay reproduces its served bytes.
///
/// # Errors
///
/// Returns which check failed.
pub fn gate(opts: &Options) -> Result<(), String> {
    let read = |name: &str| {
        let path = opts.golden_dir.join(name);
        std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))
    };
    let session = read("session.jsonl")?;
    let expected = read("expected.jsonl")?;
    let mut out = Vec::new();
    serve_with(
        BufReader::new(&session[..]),
        &mut out,
        &ServeOptions::default(),
    )
    .map_err(|e| format!("golden session: {e}"))?;
    if out != expected {
        let at = out.iter().zip(&expected).position(|(a, b)| a != b);
        return Err(format!(
            "golden session replay differs from expected.jsonl at byte {} ({} vs {} bytes)",
            at.unwrap_or(out.len().min(expected.len())),
            out.len(),
            expected.len()
        ));
    }
    let gate_size = Size {
        warmup: 0,
        traced: opts.size.gate,
        ..opts.size
    };
    traced_session(opts.workload, opts.seed, gate_size, 1).map(|_| ())
}

/// Times the offline layers of the traced run this many times each and
/// reports their medians; each repetition trains and distils twice.
const LAYER_SETUPS: usize = 5;

/// Reference kernel runs before and after the traced session; their
/// median tells how fast the host ran (the traced times are unscaled).
const REFERENCE_RUNS: usize = 20;

/// Serves `size.warmup + size.traced` requests and traces each one,
/// timing the offline layers `setups` times.
fn traced_session(
    workload: Workload,
    seed: u64,
    size: Size,
    setups: usize,
) -> Result<Tracer, String> {
    struct Traced {
        workload: Workload,
        seed: u64,
        size: Size,
        tracer: Tracer,
        error: Option<String>,
    }
    impl Traffic for Traced {
        fn next_line(&mut self, ordinal: u64) -> Option<String> {
            let last = (self.size.warmup + self.size.traced) as u64;
            (self.error.is_none() && ordinal <= last).then(|| {
                self.workload
                    .request_line(self.seed, ordinal, self.size.scenarios)
            })
        }

        fn answered(&mut self, done: Answered<'_>) {
            let count = done.ordinal > self.size.warmup as u64;
            if let Err(e) = self
                .tracer
                .request(done.line, done.reply, done.latency, count)
            {
                self.error.get_or_insert(e);
            }
        }
    }
    let config = workload.config_line();
    let mut traffic = Traced {
        workload,
        seed,
        size,
        tracer: Tracer::new(&config, workload.workers(), setups)?,
        error: None,
    };
    serve(config, &mut traffic)?;
    match traffic.error {
        Some(e) => Err(e),
        None => Ok(traffic.tracer),
    }
}

/// One session through `serve_with`; returns its setup time.
fn serve<D: Traffic>(config: String, traffic: &mut D) -> Result<Duration, String> {
    let (mut client, sink) = Client::new(config, traffic);
    serve_with(&mut client, sink, &ServeOptions::default()).map_err(|e| format!("session: {e}"))?;
    client
        .setup()
        .ok_or_else(|| "the service never asked for a request".to_string())
}

/// The untraced run: end-to-end metrics.
///
/// After the warm-up, the client serves a fixed set of
/// [`Size::requests`] request lines in passes, the same lines in the
/// same order each pass, until at least [`Size::passes`] passes and
/// `--seconds` are done (only whole passes). Every later serving of a
/// request must reply with the bytes of its first. The reference kernel
/// ([`host`]) runs in every gap between timed requests, and each
/// request's latency is scaled by the kernel times on either side of
/// it; so is each set-up.
fn untraced_run(opts: &Options) -> Result<Outcome, String> {
    struct SetupOnly;
    impl Traffic for SetupOnly {
        fn next_line(&mut self, _: u64) -> Option<String> {
            None
        }
        fn answered(&mut self, _: Answered<'_>) {}
    }

    struct Timed<'o> {
        opts: &'o Options,
        start: Option<Instant>,
        reference: Reference,
        /// Kernel time in each gap of the timed phase, the one after
        /// the last request included, in µs.
        gaps_us: Vec<f64>,
        /// Latency of every timed serving, in order.
        latencies: Vec<Duration>,
        /// Hash of each timed request's first reply.
        replies: Vec<u64>,
        /// Whole passes served.
        passes: usize,
        scenario_periods: u64,
        attempted: u64,
        /// Scenarios answered with an error line, warm-up included.
        failed: u64,
        dmr_sum: f64,
        dmr_reports: u64,
        /// First request whose reply differed from its first serving.
        changed: Option<u64>,
    }
    impl Timed<'_> {
        /// Request index (1-based) and pass of the line with this
        /// ordinal; pass `None` for warm-up lines.
        fn locate(&self, ordinal: u64) -> (u64, Option<usize>) {
            let size = &self.opts.size;
            let warmup = size.warmup as u64;
            if ordinal <= warmup {
                return (ordinal, None);
            }
            let j = (ordinal - warmup - 1) as usize;
            let index = warmup + 1 + (j % size.requests) as u64;
            (index, Some(j / size.requests))
        }
    }
    impl Traffic for Timed<'_> {
        fn next_line(&mut self, ordinal: u64) -> Option<String> {
            let size = &self.opts.size;
            let (index, pass) = self.locate(ordinal);
            if let Some(pass) = pass {
                self.gaps_us.push(self.reference.time_us());
                let start = *self.start.get_or_insert_with(Instant::now);
                let enough = index == size.warmup as u64 + 1
                    && pass >= size.passes
                    && start.elapsed().as_secs_f64() >= self.opts.seconds;
                if enough || self.changed.is_some() {
                    return None;
                }
            }
            let w = self.opts.workload;
            Some(w.request_line(self.opts.seed, index, size.scenarios))
        }

        fn answered(&mut self, done: Answered<'_>) {
            let size = &self.opts.size;
            let reply = scan::reply(done.reply);
            self.failed += (size.scenarios as u64).saturating_sub(reply.reports);
            let (index, Some(pass)) = self.locate(done.ordinal) else {
                return;
            };
            self.latencies.push(done.latency);
            self.scenario_periods += reply.reports * PERIODS as u64;
            self.attempted += size.scenarios as u64;
            let slot = (index - size.warmup as u64 - 1) as usize;
            let mut hasher = DefaultHasher::new();
            done.reply.hash(&mut hasher);
            let hash = hasher.finish();
            if pass == 0 {
                self.replies.push(hash);
                self.dmr_sum += reply.dmr_sum;
                self.dmr_reports += reply.reports;
            } else if self.replies[slot] != hash {
                self.changed.get_or_insert(index);
            }
            if slot + 1 == size.requests {
                self.passes = pass + 1;
            }
        }
    }

    let config = opts.workload.config_line();
    let mut timed = Timed {
        opts,
        start: None,
        reference: Reference::new(),
        gaps_us: Vec::new(),
        latencies: Vec::new(),
        replies: Vec::new(),
        passes: 0,
        scenario_periods: 0,
        attempted: 0,
        failed: 0,
        dmr_sum: 0.0,
        dmr_reports: 0,
        changed: None,
    };
    serve(config.clone(), &mut timed)?;
    // Read before the fresh services are built: the peak then covers
    // one offline phase and the long-lived service, whatever the heap
    // history of the set-ups.
    let peak_rss = peak_rss_mib()?;
    if timed.failed > 0 {
        return Err(format!(
            "{} scenarios were answered with an error line",
            timed.failed
        ));
    }
    if let Some(index) = timed.changed {
        return Err(format!(
            "request {index} was answered with other bytes when served again"
        ));
    }
    if timed.passes < opts.size.passes || timed.gaps_us.len() != timed.latencies.len() + 1 {
        return Err(format!(
            "the session ended after {} of {} passes",
            timed.passes, opts.size.passes
        ));
    }
    let mut setup_s = Vec::with_capacity(opts.size.setups);
    let mut raw_setup_s = Vec::with_capacity(opts.size.setups);
    for _ in 0..opts.size.setups {
        let before = timed.reference.time_us();
        let took = serve(config.clone(), &mut SetupOnly)?;
        let after = timed.reference.time_us();
        setup_s.push(host::scaled_s(took, before, after));
        raw_setup_s.push(took.as_secs_f64());
    }

    let scaled: Vec<f64> = timed
        .latencies
        .iter()
        .zip(timed.gaps_us.windows(2))
        .map(|(&took, gap)| host::scaled_s(took, gap[0], gap[1]))
        .collect();
    let busy: f64 = scaled.iter().sum();
    let mut ms: Vec<f64> = scaled.iter().map(|s| s * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    let mut raw_ms: Vec<f64> = timed
        .latencies
        .iter()
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    raw_ms.sort_by(f64::total_cmp);
    let mut gaps_us = timed.gaps_us.clone();
    gaps_us.sort_by(f64::total_cmp);
    setup_s.sort_by(f64::total_cmp);
    raw_setup_s.sort_by(f64::total_cmp);
    let metrics = vec![
        metric("setup_s", median(&setup_s), "s"),
        metric(
            "scenario_periods_per_s",
            timed.scenario_periods as f64 / busy.max(1e-12),
            "1/s",
        ),
        metric("request_p50_ms", percentile(&ms, 0.50), "ms"),
        metric("request_p90_ms", percentile(&ms, 0.90), "ms"),
        metric("peak_rss_mb", peak_rss, "MiB"),
        metric(
            "dmr",
            timed.dmr_sum / timed.dmr_reports.max(1) as f64,
            "fraction",
        ),
    ];
    Ok(Outcome {
        attempted: timed.attempted,
        failed: timed.failed,
        metrics,
        notes: vec![
            format!(
                "{} timed requests x {} passes ({} servings beyond p90), \
                 setup median of {}",
                timed.replies.len(),
                timed.passes,
                ms.len().saturating_sub(nearest_rank(ms.len(), 0.90) + 1),
                setup_s.len()
            ),
            format!(
                "reference kernel median {:.1} us (nominal {:.1}); unscaled: \
                 request p50 {:.3} ms, p90 {:.3} ms, setup median {:.4} s",
                median(&gaps_us),
                host::NOMINAL_US,
                percentile(&raw_ms, 0.50),
                percentile(&raw_ms, 0.90),
                median(&raw_setup_s)
            ),
        ],
    })
}

/// The traced run: per-layer metrics.
fn traced_run(opts: &Options) -> Result<Outcome, String> {
    let mut reference = Reference::new();
    let mut reference_us: Vec<f64> = (0..REFERENCE_RUNS).map(|_| reference.time_us()).collect();
    let tracer = traced_session(opts.workload, opts.seed, opts.size, LAYER_SETUPS)?;
    reference_us.extend((0..REFERENCE_RUNS).map(|_| reference.time_us()));
    reference_us.sort_by(f64::total_cmp);
    let t = &tracer.totals;
    let s = &tracer.setup;
    let per = |total: u64, n: u64, scale: f64| total as f64 / scale / n.max(1) as f64;
    let us = 1e3;
    let ms = 1e6;
    let periods = t.scenario_periods;
    let decisions: u64 = t.decisions.iter().sum();

    let mut m = vec![
        metric(
            "fleet.parse_us_per_request",
            per(t.parse_ns, t.requests, us),
            "us",
        ),
        metric(
            "fleet.request_bytes",
            per(t.request_bytes, t.requests, 1.0),
            "bytes",
        ),
        metric(
            "fleet.handle_ms_per_request",
            per(t.handle_ns, t.requests, ms),
            "ms",
        ),
        metric(
            "fleet.encode_us_per_scenario",
            per(t.encode_ns, t.scenarios, us),
            "us",
        ),
        metric(
            "fleet.report_bytes_per_period",
            per(t.report_bytes, periods, 1.0),
            "bytes",
        ),
        metric(
            "fleet.write_us_per_request",
            per(t.write_ns, t.requests, us),
            "us",
        ),
        metric(
            "fleet.failed_share",
            per(t.failed, t.scenarios, 1.0),
            "fraction",
        ),
        metric(
            "setup.plan_context_ms",
            s.plan_context.as_secs_f64() * 1e3,
            "ms",
        ),
        metric("setup.optimal_ms", s.optimal.as_secs_f64() * 1e3, "ms"),
        metric("setup.train_ms", s.train.as_secs_f64() * 1e3, "ms"),
        metric("setup.compile_ms", s.compile.as_secs_f64() * 1e3, "ms"),
        metric("setup.distill_ms", s.distill.as_secs_f64() * 1e3, "ms"),
        metric("setup.unaccounted_share", s.unaccounted_share(), "fraction"),
        metric(
            "solar.trace_us_per_scenario",
            per(t.solar_ns, t.scenarios, us),
            "us",
        ),
        metric(
            "faults.harness_us_per_scenario",
            per(t.harness_ns, t.scenarios, us),
            "us",
        ),
        metric(
            "faults.degraded_events_per_scenario",
            per(t.degraded_events, t.scenarios, 1.0),
            "count",
        ),
        metric(
            "core.planner_build_us_per_scenario",
            per(t.build_ns, t.scenarios, us),
            "us",
        ),
        metric(
            "core.engine_us_per_period",
            per(t.engine_ns, periods, us),
            "us",
        ),
        metric(
            "core.engine_self_us_per_period",
            per(t.engine_self_ns, periods, us),
            "us",
        ),
        metric(
            "core.gather_ns_per_decision",
            per(t.gather_ns, decisions, 1.0),
            "ns",
        ),
    ];
    for (k, kind) in KINDS.iter().enumerate() {
        m.push(metric(
            &format!("core.decide_ns_per_decision.{kind}"),
            per(t.decide_ns[k], t.decisions[k], 1.0),
            "ns",
        ));
    }
    for (k, kind) in KINDS.iter().enumerate() {
        m.push(metric(
            &format!("core.decisions.{kind}"),
            t.decisions[k] as f64,
            "count",
        ));
    }
    let fleet_ns = t.fleet_ns();
    let unaccounted = 1.0 - t.attributed_ns() as f64 / fleet_ns.max(1) as f64;
    let traced_ns = t.parse_ns
        + t.solar_ns
        + t.harness_ns
        + t.build_ns
        + t.engine_ns
        + t.encode_ns
        + t.write_ns;
    m.extend([
        metric("core.decisions.batched", t.batched as f64, "count"),
        metric("core.decisions.scalar", t.scalar as f64, "count"),
        metric(
            "core.complexity_per_period",
            per(t.complexity, periods, 1.0),
            "count",
        ),
        metric("ann.fold.lookups", t.fold_lookups as f64, "count"),
        metric(
            "ann.fold.hit_share",
            per(t.fold_served, t.fold_lookups, 1.0),
            "fraction",
        ),
        metric("ann.fold.evictions", t.fold_evictions as f64, "count"),
        metric(
            "ann.fold.lookup_ns",
            per(t.fold_lookup_ns, t.fold_lookups, 1.0),
            "ns",
        ),
        metric(
            "ann.distilled_batch_ns_per_lane",
            per(t.distilled_batch_ns, t.distilled_lanes, 1.0),
            "ns",
        ),
        metric(
            "ann.dbn_batch_ns_per_lane",
            per(t.dbn_batch_ns, t.dbn_lanes, 1.0),
            "ns",
        ),
        metric(
            "trace.overhead_share",
            traced_ns as f64 / t.served_ns.max(1) as f64 - 1.0,
            "fraction",
        ),
        metric("trace.unaccounted_share", unaccounted, "fraction"),
        metric("host.reference_us", median(&reference_us), "us"),
    ]);

    let mut notes = vec![format!(
        "{} traced requests after {} warm-up requests",
        t.requests, opts.size.warmup
    )];
    notes.push(if unaccounted > 0.05 {
        format!(
            "accounting FAILED: {:.1}% of parse+handle+encode wall time is not covered; \
             the missing layer is inside fleet.handle, outside solar.trace, \
             faults.harness, core.planner_build and core.engine",
            unaccounted * 100.0
        )
    } else {
        format!(
            "accounting ok: named layers cover {:.1}% of parse+handle+encode wall time",
            (1.0 - unaccounted) * 100.0
        )
    });
    Ok(Outcome {
        attempted: t.scenarios,
        failed: t.failed,
        metrics: m,
        notes,
    })
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// 0-based index of the nearest-rank `q` percentile of `n` samples.
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1)) - 1
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    sorted
        .get(nearest_rank(sorted.len(), q))
        .copied()
        .unwrap_or(0.0)
}

fn median(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}
