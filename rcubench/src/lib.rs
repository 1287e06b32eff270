//! The RCUArray benchmark: three workloads driven through the public APIs
//! of `rcuarray`, `rcuarray-service` and `rcuarray-runtime`, every output
//! checked, every metric printed by name with its unit. See README.md.

pub mod grow;
pub mod index;
pub mod inputs;
pub mod probes;
pub mod serve;
pub mod stats;
pub mod trace;

use inputs::Oracle;
use stats::Samples;
use std::time::{Duration, Instant};
use trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Index,
    Grow,
    Serve,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Index, Workload::Grow, Workload::Serve];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Index => "index",
            Workload::Grow => "grow",
            Workload::Serve => "serve",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The phases one run executes, each with its share of `--seconds`.
    /// The workload's own phase runs first; the others follow briefly so
    /// the run can report every end-to-end metric, and never overlap it.
    fn plan(self) -> [(Workload, f64); 3] {
        match self {
            Workload::Index => [
                (Workload::Index, 0.6),
                (Workload::Grow, 0.15),
                (Workload::Serve, 0.25),
            ],
            Workload::Grow => [
                (Workload::Grow, 0.6),
                (Workload::Serve, 0.3),
                (Workload::Index, 0.1),
            ],
            Workload::Serve => [
                (Workload::Serve, 0.35),
                (Workload::Index, 0.5),
                (Workload::Grow, 0.15),
            ],
        }
    }
}

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// How many times each phase's set-up runs; `setup_s` sums the phases'
/// medians.
const SETUP_REPS: usize = 9;

/// Fresh array layouts the `index` phase measures in turn.
const INDEX_LAYOUTS: u32 = 6;

/// Resizes per window of the windowed resize p99: four rounds.
const RESIZE_WINDOW: usize = 4 * grow::RESIZES;

/// End-to-end metrics measured and written to the report, but left out of
/// the result line: over ten seeds on a shared 2-vCPU host their spread
/// (interquartile range over median) exceeded the largest bound a metric
/// may have, 0.25 (README.md, "Left out, and why").
pub const UNSTEADY: [&str; 4] = [
    "resize_us.p99.ebr",
    "resize_us.p99.qsbr",
    "req_us.p99.light",
    "peak_rss_mib",
];

/// One reported metric. `samples` is the number of raw samples behind a
/// timing (`None` for ratios and counts).
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Option<usize>,
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
    pub tracer: Option<Tracer>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    fn push(&mut self, name: &'static str, unit: &'static str, value: f64, samples: Option<usize>) {
        if !value.is_finite() {
            self.problems.push(format!("{name} is not a finite number"));
        }
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    fn check(&mut self, bad: u64, what: &str) {
        if bad > 0 {
            self.problems.push(format!("{bad} {what}"));
        }
    }

    /// The result line: the last line of stdout.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| !UNSTEADY.contains(&m.name))
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `make()` and how long it took, in seconds.
fn timed<T>(make: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = make();
    (v, t.elapsed().as_secs_f64())
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn us(v: Option<u64>) -> f64 {
    v.map_or(f64::NAN, |ns| ns as f64 / 1e3)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        f64::NAN
    } else {
        num as f64 / den as f64
    }
}

/// Run one workload: its own phase, then the others briefly, then
/// assemble the end-to-end metrics (untraced) or the per-layer metrics
/// (traced).
pub fn run(opts: &Options) -> Outcome {
    let oracle = Oracle::new(opts.seed);
    let tracer = opts.trace.then(Tracer::default);
    let tr = tracer.as_ref();
    let (mut ix, mut gr, mut sv) = (None, None, None);
    let mut setup_s = 0.0;
    let mut peak = None;
    let mut comm_remote_frac = f64::NAN;
    for (i, (phase, share)) in opts.workload.plan().into_iter().enumerate() {
        let budget = Duration::from_secs_f64(opts.seconds * share);
        let own = i == 0;
        // Set up once, measure, read the peak memory, then repeat the
        // set-up for its timing: repeated set-ups must not add to the
        // phase's peak.
        let mut setup_times = Vec::new();
        match phase {
            Workload::Index => {
                // Fresh arrays per layout: where the 64 MiB of blocks land
                // in physical memory moves throughput by ±15 % between
                // processes, so each run averages over several layouts.
                let mut out = index::Out::default();
                for layout in 0..INDEX_LAYOUTS {
                    let (setup, t) = timed(|| index::setup(opts.seed, oracle));
                    setup_times.push(t);
                    index::run(&setup, budget / INDEX_LAYOUTS, tr, &mut out);
                    if own && layout == 0 {
                        peak = peak_rss_mib();
                    }
                }
                let c = out.comm;
                comm_remote_frac = ratio(c.gets + c.puts, c.gets + c.puts + c.local_accesses);
                ix = Some(out);
            }
            Workload::Grow => {
                let (setup, t) = timed(|| grow::setup(opts.seed, oracle));
                setup_times.push(t);
                gr = Some(grow::run(&setup, budget, tr));
                if own {
                    peak = peak_rss_mib();
                }
            }
            Workload::Serve => {
                let (setup, t) = timed(|| serve::setup(opts.seed, oracle));
                setup_times.push(t);
                sv = Some(serve::run(&setup, budget, tr));
                if own {
                    peak = peak_rss_mib();
                }
            }
        }
        while setup_times.len() < SETUP_REPS {
            setup_times.push(match phase {
                Workload::Index => timed(|| index::setup(opts.seed, oracle)).1,
                Workload::Grow => timed(|| grow::setup(opts.seed, oracle)).1,
                Workload::Serve => timed(|| serve::setup(opts.seed, oracle)).1,
            });
        }
        setup_s += stats::median(&setup_times).expect("SETUP_REPS > 0");
    }
    let (ix, gr, mut sv): (index::Out, grow::Out, serve::Out) = (
        ix.expect("every plan runs index"),
        gr.expect("every plan runs grow"),
        sv.expect("every plan runs serve"),
    );

    let mut o = Outcome::default();
    o.check(
        ix.ebr.wrong + ix.qsbr.wrong,
        "index reads returned a wrong value",
    );
    o.check(
        gr.ebr.wrong + gr.qsbr.wrong,
        "grow reads returned a wrong value or lost a write across a resize",
    );
    o.check(
        gr.ebr.bad_capacity + gr.qsbr.bad_capacity,
        "grow rounds ended at the wrong capacity",
    );
    o.check(
        sv.light.wrong + sv.heavy.wrong,
        "serve answers were wrong or tickets did not resolve exactly once",
    );
    o.attempted = ix.ebr.ops
        + ix.qsbr.ops
        + gr.ebr.ops
        + gr.qsbr.ops
        + (gr.ebr.resize_ns.len() + gr.qsbr.resize_ns.len()) as u64
        + sv.light.submitted
        + sv.heavy.submitted;
    o.failed = sv.light.failed + sv.heavy.failed;

    if opts.trace {
        per_layer(
            &mut o,
            tr.expect("traced"),
            &ix,
            &gr,
            &mut sv,
            comm_remote_frac,
        );
    } else {
        end_to_end(&mut o, opts.workload, setup_s, peak, &ix, &gr, &sv);
    }
    o.tracer = tracer;
    o
}

fn end_to_end(
    o: &mut Outcome,
    workload: Workload,
    setup_s: f64,
    peak: Option<f64>,
    ix: &index::Out,
    gr: &grow::Out,
    sv: &serve::Out,
) {
    o.push("setup_s", "s", setup_s, Some(3 * SETUP_REPS));
    // On `grow` throughput is the concurrent reader's; elsewhere the
    // indexing tasks'.
    let (ebr, qsbr) = if workload == Workload::Grow {
        (gr.ebr.ops_per_s(), gr.qsbr.ops_per_s())
    } else {
        (ix.ebr.ops_per_s(), ix.qsbr.ops_per_s())
    };
    let slices = if workload == Workload::Grow {
        gr.ebr.rounds as usize
    } else {
        ix.ebr.rates.len()
    };
    o.push("ops_per_s.ebr", "1/s", ebr, Some(slices));
    o.push("ops_per_s.qsbr", "1/s", qsbr, Some(slices));
    for (scheme, s) in [("ebr", &gr.ebr), ("qsbr", &gr.qsbr)] {
        let n = s.resize_ns.len();
        let p50 = us(s.resize_ns.quantile(0.5));
        let p99 = us(s.resize_ns.windowed_quantile(0.99, RESIZE_WINDOW));
        let (n50, n99) = match scheme {
            "ebr" => ("resize_us.p50.ebr", "resize_us.p99.ebr"),
            _ => ("resize_us.p50.qsbr", "resize_us.p99.qsbr"),
        };
        o.push(n50, "us", p50, Some(n));
        o.push(n99, "us", p99, Some(n));
    }
    for (rung, r) in [("light", &sv.light), ("heavy", &sv.heavy)] {
        let n = r.latency_ns.len();
        let (p50, p99) = (us(r.latency_ns.quantile(0.5)), r.p99() as f64 / 1e3);
        let (n50, n99) = match rung {
            "light" => ("req_us.p50.light", "req_us.p99.light"),
            _ => ("req_us.p50.heavy", "req_us.p99.heavy"),
        };
        o.push(n50, "us", p50, Some(n));
        o.push(n99, "us", p99, Some(n));
    }
    o.push("peak_rss_mib", "MiB", peak.unwrap_or(f64::NAN), None);
}

fn per_layer(
    o: &mut Outcome,
    tracer: &Tracer,
    ix: &index::Out,
    gr: &grow::Out,
    sv: &mut serve::Out,
    remote_frac: f64,
) {
    for (name, span) in [
        ("rcuarray.read_ns.ebr", "rcuarray.read.ebr"),
        ("rcuarray.read_ns.qsbr", "rcuarray.read.qsbr"),
        ("rcuarray.write_ns.ebr", "rcuarray.write.ebr"),
        ("rcuarray.write_ns.qsbr", "rcuarray.write.qsbr"),
    ] {
        let n = tracer.durations(span).len();
        o.push(
            name,
            "ns",
            index::per_op_ns(tracer, span).unwrap_or(f64::NAN),
            Some(n),
        );
    }
    let mut checkpoints = Samples::new();
    for d in tracer.durations("qsbr.checkpoint") {
        checkpoints.push(d);
    }
    let n = checkpoints.len();
    let checkpoint_ns = checkpoints.quantile(0.5).map_or(f64::NAN, |v| v as f64);
    o.push("qsbr.checkpoint_ns", "ns", checkpoint_ns, Some(n));
    o.push(
        "qsbr.backlog_peak_bytes",
        "bytes",
        gr.qsbr.backlog_peak_bytes as f64,
        None,
    );
    o.push(
        "qsbr.epoch_lag_peak",
        "epochs",
        gr.qsbr.epoch_lag_peak as f64,
        None,
    );
    let q = &gr.qsbr.obs;
    o.push(
        "qsbr.reclaimed_per_checkpoint",
        "count",
        ratio(
            q.counter("rcuarray_qsbr_reclaimed_total"),
            q.counter("rcuarray_qsbr_checkpoints_total"),
        ),
        None,
    );
    let e = &gr.ebr.obs;
    o.push(
        "ebr.pin_retries_per_op",
        "count",
        ratio(e.counter("rcuarray_ebr_pin_retries_total"), gr.ebr.ops),
        None,
    );
    o.push("ebr.pin_ns", "ns", probes::ebr_pin_ns(), None);
    o.push(
        "ebr.synchronize_us",
        "us",
        probes::ebr_synchronize_us(),
        Some(2000),
    );
    o.push(
        "ebr.advances_per_resize",
        "count",
        ratio(
            e.counter("rcuarray_ebr_advances_total"),
            gr.ebr.resize_ns.len() as u64,
        ),
        None,
    );
    let n = gr.coforall_ns.len();
    o.push(
        "runtime.coforall_us",
        "us",
        us(gr.coforall_ns.quantile(0.5)),
        Some(n),
    );
    o.push("runtime.get_ns", "ns", probes::runtime_get_ns(), None);
    o.push(
        "runtime.priv_get_ns",
        "ns",
        probes::runtime_priv_get_ns(),
        None,
    );
    o.push("runtime.remote_frac", "frac", remote_frac, None);

    let h = &sv.heavy;
    let n = h.submit_ns.len();
    o.push(
        "service.submit_ns",
        "ns",
        h.submit_ns.quantile(0.5).map_or(f64::NAN, |v| v as f64),
        Some(n),
    );
    let wait = h.obs.histogram("rcuarray_service_queue_wait_ns");
    let n = wait.count as usize;
    o.push(
        "service.queue_wait_us.p50",
        "us",
        wait.quantile(0.5) as f64 / 1e3,
        Some(n),
    );
    o.push(
        "service.queue_wait_us.p99",
        "us",
        wait.quantile(0.99) as f64 / 1e3,
        Some(n),
    );
    let exec = h.obs.histogram("rcuarray_service_execute_ns");
    o.push(
        "service.execute_us.mean",
        "us",
        exec.mean() / 1e3,
        Some(exec.count as usize),
    );
    let requests = h.obs.counter("rcuarray_service_requests_total");
    o.push(
        "service.batch_size.mean",
        "count",
        ratio(requests, h.obs.counter("rcuarray_service_batches_total")),
        None,
    );
    o.push(
        "service.pins_per_request",
        "count",
        ratio(h.obs.counter("rcuarray_service_pins_total"), requests),
        None,
    );
    let mut lag = Samples::new();
    lag.append(&mut sv.light.lag_ns);
    lag.append(&mut sv.heavy.lag_ns);
    o.push(
        "loadgen.lag_us.p99",
        "us",
        us(lag.quantile(0.99)),
        Some(lag.len()),
    );

    let overhead = |s: &index::SchemeOut| {
        1.0 - stats::median(&s.traced_rates).unwrap_or(f64::NAN) / s.ops_per_s()
    };
    o.push(
        "trace.overhead_frac",
        "frac",
        (overhead(&ix.ebr) + overhead(&ix.qsbr)) / 2.0,
        Some(ix.ebr.traced_rates.len() + ix.qsbr.traced_rates.len()),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_check_fails_the_run() {
        let mut o = Outcome::default();
        o.push("setup_s", "s", 0.5, None);
        o.check(0, "fine");
        assert!(o.correct());
        o.check(3, "reads returned a wrong value");
        assert!(!o.correct());
        assert!(o.json_line().starts_with("{\"correct\": false, "));
        let mut o = Outcome::default();
        o.push("x", "s", f64::NAN, None);
        assert!(!o.correct(), "a metric that is not a number fails the run");
    }
}
