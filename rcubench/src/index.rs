//! `index`: closed-loop random indexing over a pre-grown 2^22-element
//! array, 90 % reads / 10 % writes, one task per locale, no resizes.
//! EBR and QSBR slices alternate so both schemes see the same machine.

use crate::inputs::{self, Oracle, Rng, WRITE_BIT};
use crate::stats;
use crate::trace::{SpanLog, Tracer};
use rcuarray::{EbrArray, QsbrArray, RcuArray, Scheme};
use rcuarray_runtime::{task, Cluster, CommStats, LocaleId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// 2^22 `u64` elements: 32 MiB, 8x one core's 2 MiB L2.
pub const LEN: usize = 1 << 22;
/// Operations between checkpoints (and between stop-flag checks).
pub const CHUNK: usize = 256;
/// Length of each task's pre-generated index stream (cycled).
const STREAM_LEN: usize = 1 << 20;
/// One measured slice of one scheme.
const SLICE: Duration = Duration::from_millis(100);
/// In a traced slice, one chunk in this many is timed.
const TRACE_EVERY: u64 = 64;
/// Operations per timed batch in a traced chunk.
const TRACE_BATCH: usize = 32;

/// The arrays and streams the `index` phase runs against.
pub struct Setup {
    pub cluster: Arc<Cluster>,
    pub ebr: EbrArray<u64>,
    pub qsbr: QsbrArray<u64>,
    pub oracle: Oracle,
    streams: Vec<Vec<u32>>,
}

/// Cluster and array creation, growth to `LEN` and fill, for both schemes.
pub fn setup(seed: u64, oracle: Oracle) -> Setup {
    let cluster = inputs::cluster();
    let ebr = EbrArray::with_config(&cluster, rcuarray::Config::default());
    let qsbr = QsbrArray::with_config(&cluster, rcuarray::Config::default());
    inputs::grow_and_fill(&ebr, LEN, oracle);
    inputs::grow_and_fill(&qsbr, LEN, oracle);
    let streams = (0..cluster.num_locales())
        .map(|t| inputs::op_stream(&mut Rng::new(seed, 100 + t as u64), STREAM_LEN, LEN as u64))
        .collect();
    Setup {
        cluster,
        ebr,
        qsbr,
        oracle,
        streams,
    }
}

/// What one scheme did over the phase.
#[derive(Debug, Default)]
pub struct SchemeOut {
    /// Throughput of every untraced slice (ops/s).
    pub rates: Vec<f64>,
    /// Throughput of every traced slice (ops/s); empty when untraced.
    pub traced_rates: Vec<f64>,
    pub ops: u64,
    /// Reads that returned something other than the oracle value.
    pub wrong: u64,
}

impl SchemeOut {
    pub fn ops_per_s(&self) -> f64 {
        stats::median(&self.rates).unwrap_or(0.0)
    }
}

#[derive(Debug, Default)]
pub struct Out {
    pub ebr: SchemeOut,
    pub qsbr: SchemeOut,
    pub comm: CommStats,
}

/// Run alternating EBR/QSBR slices on `setup` for `budget`, adding to
/// `out`. With a tracer, every other slice of each scheme is traced, so
/// the traced and untraced throughput of the same run give the tracing
/// overhead.
pub fn run(setup: &Setup, budget: Duration, tracer: Option<&Tracer>, out: &mut Out) {
    let mut pos = vec![0usize; setup.streams.len()];
    // One unmeasured pair first: the first slices after set-up run
    // measurably slower than the rest.
    slice(setup, &setup.ebr, &mut pos, None, &mut SchemeOut::default());
    slice(
        setup,
        &setup.qsbr,
        &mut pos,
        None,
        &mut SchemeOut::default(),
    );
    let comm0 = setup.cluster.comm_stats();
    let start = Instant::now();
    let mut round = 0u64;
    // At least one slice of each kind, then until the budget is spent.
    while round < 2 || start.elapsed() < budget {
        let traced = tracer.filter(|_| round % 2 == 1);
        slice(setup, &setup.ebr, &mut pos, traced, &mut out.ebr);
        slice(setup, &setup.qsbr, &mut pos, traced, &mut out.qsbr);
        round += 1;
    }
    out.comm = out.comm + comm_delta(&comm0, &setup.cluster.comm_stats());
}

fn comm_delta(a: &CommStats, b: &CommStats) -> CommStats {
    CommStats {
        gets: b.gets - a.gets,
        puts: b.puts - a.puts,
        remote_executes: b.remote_executes - a.remote_executes,
        local_accesses: b.local_accesses - a.local_accesses,
        bytes_moved: b.bytes_moved - a.bytes_moved,
    }
}

struct TaskOut {
    ops: u64,
    wrong: u64,
    start: Instant,
    end: Instant,
    pos: usize,
}

fn slice<S: Scheme>(
    setup: &Setup,
    array: &RcuArray<u64, S>,
    pos: &mut [usize],
    tracer: Option<&Tracer>,
    out: &mut SchemeOut,
) {
    let stop = AtomicBool::new(false);
    let tasks: Vec<TaskOut> = std::thread::scope(|s| {
        let handles: Vec<_> = pos
            .iter()
            .enumerate()
            .map(|(t, &p)| {
                let stream = &setup.streams[t];
                let stop = &stop;
                let oracle = setup.oracle;
                s.spawn(move || {
                    task::with_locale(LocaleId::new(t as u32), || {
                        let mut log = tracer.map(Tracer::log);
                        indexing_loop(array, stream, p, oracle, stop, log.as_mut())
                    })
                })
            })
            .collect();
        std::thread::sleep(SLICE);
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("indexing task panicked"))
            .collect()
    });
    let ops: u64 = tasks.iter().map(|t| t.ops).sum();
    let first = tasks.iter().map(|t| t.start).min().expect("two tasks");
    let last = tasks.iter().map(|t| t.end).max().expect("two tasks");
    let rate = ops as f64 / (last - first).as_secs_f64();
    if tracer.is_some() {
        out.traced_rates.push(rate);
    } else {
        out.rates.push(rate);
    }
    out.ops += ops;
    out.wrong += tasks.iter().map(|t| t.wrong).sum::<u64>();
    for (p, t) in pos.iter_mut().zip(&tasks) {
        *p = t.pos;
    }
}

/// One task's closed loop. Nothing inside a chunk touches a clock or a
/// shared counter unless the chunk is one the tracer samples.
fn indexing_loop<S: Scheme>(
    array: &RcuArray<u64, S>,
    stream: &[u32],
    mut pos: usize,
    oracle: Oracle,
    stop: &AtomicBool,
    mut log: Option<&mut SpanLog<'_>>,
) -> TaskOut {
    let mut ops = 0u64;
    let mut wrong = 0u64;
    let mut chunks = 0u64;
    let start = Instant::now();
    loop {
        let chunk = &stream[pos..pos + CHUNK];
        match log.as_deref_mut() {
            Some(log) if chunks.is_multiple_of(TRACE_EVERY) => {
                wrong += traced_chunk(array, chunk, oracle, log);
            }
            _ => {
                for &e in chunk {
                    let idx = (e & !WRITE_BIT) as usize;
                    if e & WRITE_BIT != 0 {
                        array.write(idx, oracle.value(idx));
                    } else if array.read(idx) != oracle.value(idx) {
                        wrong += 1;
                    }
                }
                array.checkpoint();
            }
        }
        ops += CHUNK as u64;
        chunks += 1;
        pos = (pos + CHUNK) % stream.len();
        if stop.load(Ordering::Relaxed) {
            break;
        }
    }
    TaskOut {
        ops,
        wrong,
        start,
        end: Instant::now(),
        pos,
    }
}

/// A sampled chunk: time a batch of reads, a batch of writes and the
/// checkpoint as separate spans, then run the rest of the chunk as usual.
fn traced_chunk<S: Scheme>(
    array: &RcuArray<u64, S>,
    chunk: &[u32],
    oracle: Oracle,
    log: &mut SpanLog<'_>,
) -> u64 {
    let (read_name, write_name, checkpoint_name) = match S::NAME {
        "ebr" => ("rcuarray.read.ebr", "rcuarray.write.ebr", "ebr.checkpoint"),
        _ => (
            "rcuarray.read.qsbr",
            "rcuarray.write.qsbr",
            "qsbr.checkpoint",
        ),
    };
    let parent = log.open();
    let t0 = Instant::now();
    let mut wrong = 0;
    let (reads, rest) = chunk.split_at(TRACE_BATCH);
    let (writes, rest) = rest.split_at(TRACE_BATCH);
    let r0 = Instant::now();
    for &e in reads {
        let idx = (e & !WRITE_BIT) as usize;
        if array.read(idx) != oracle.value(idx) {
            wrong += 1;
        }
    }
    let r1 = Instant::now();
    for &e in writes {
        let idx = (e & !WRITE_BIT) as usize;
        array.write(idx, oracle.value(idx));
    }
    let w1 = Instant::now();
    for &e in rest {
        let idx = (e & !WRITE_BIT) as usize;
        if e & WRITE_BIT != 0 {
            array.write(idx, oracle.value(idx));
        } else if array.read(idx) != oracle.value(idx) {
            wrong += 1;
        }
    }
    let c0 = Instant::now();
    array.checkpoint();
    let c1 = Instant::now();
    log.record(read_name, parent, r0, r1);
    log.record(write_name, parent, r1, w1);
    log.record(checkpoint_name, parent, c0, c1);
    log.close(parent, "index.chunk", 0, 0, t0, c1);
    wrong
}

/// Nanoseconds per operation of the batches recorded under `name`.
pub fn per_op_ns(tracer: &Tracer, name: &str) -> Option<f64> {
    let per_op: Vec<f64> = tracer
        .durations(name)
        .into_iter()
        .map(|d| d as f64 / TRACE_BATCH as f64)
        .collect();
    stats::median(&per_op)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_read_matches_the_oracle() {
        let oracle = Oracle::new(11);
        let setup = setup(11, oracle);
        let mut out = Out::default();
        run(&setup, Duration::ZERO, None, &mut out);
        assert!(out.ebr.ops > 0 && out.qsbr.ops > 0);
        assert_eq!(out.ebr.wrong + out.qsbr.wrong, 0);
    }

    #[test]
    fn a_wrong_expected_value_fails_the_check() {
        let mut setup = setup(12, Oracle::new(12));
        setup.oracle = Oracle::new(13);
        let mut out = Out::default();
        run(&setup, Duration::ZERO, None, &mut out);
        assert!(out.ebr.wrong > 0 && out.qsbr.wrong > 0);
    }
}
