//! `grow`: Fig. 3-style resize rounds with a concurrent reader. Each
//! round builds a fresh array and grows it from zero capacity by 256
//! resizes of 1024 elements on locale 0, while one task on locale 1 runs
//! closed-loop 90/10 reads/writes over the capacity visible at that
//! moment. EBR and QSBR rounds alternate.

use crate::inputs::{self, Oracle, Rng, WRITE_BIT};
use crate::stats::Samples;
use crate::trace::{ObsDelta, Tracer};
use rcuarray::{EbrScheme, QsbrScheme, RcuArray, Scheme};
use rcuarray_runtime::{task, Cluster, LocaleId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Resizes per round and elements per resize (one block each).
pub const RESIZES: usize = 256;
pub const STEP: usize = 1024;
/// Operations between reader checkpoints.
const CHUNK: usize = 256;
const STREAM_LEN: usize = 1 << 20;
/// In a traced round, reclamation stats are sampled every this many resizes.
const STATS_EVERY: usize = 16;

pub struct Setup {
    pub cluster: Arc<Cluster>,
    pub oracle: Oracle,
    stream: Vec<u32>,
}

/// Cluster creation plus one warm-up round per scheme: a fresh array
/// grown to the round's final capacity and filled.
pub fn setup(seed: u64, oracle: Oracle) -> Setup {
    let cluster = inputs::cluster();
    warm_up(&cluster, oracle);
    Setup {
        cluster,
        oracle,
        stream: inputs::op_stream(&mut Rng::new(seed, 200), STREAM_LEN, 1 << 31),
    }
}

fn warm_up(cluster: &Arc<Cluster>, oracle: Oracle) {
    let ebr = RcuArray::<u64, EbrScheme>::with_config(cluster, rcuarray::Config::default());
    inputs::grow_and_fill(&ebr, RESIZES * STEP, oracle);
    let qsbr = RcuArray::<u64, QsbrScheme>::with_config(cluster, rcuarray::Config::default());
    inputs::grow_and_fill(&qsbr, RESIZES * STEP, oracle);
}

#[derive(Debug, Default)]
pub struct SchemeOut {
    /// Wall time of every `resize` call, in ns.
    pub resize_ns: Samples,
    pub rounds: u64,
    /// Reader operations and the time the reader spent running them.
    pub ops: u64,
    pub busy: Duration,
    /// Reader reads that returned neither the written value nor zero,
    /// or lost a write across a resize.
    pub wrong: u64,
    /// Rounds that did not end at `RESIZES * STEP` elements.
    pub bad_capacity: u64,
    pub obs: ObsDelta,
    /// Peaks of the sampled reclamation stats (traced runs only).
    pub backlog_peak_bytes: u64,
    pub epoch_lag_peak: u64,
}

impl SchemeOut {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.busy.as_secs_f64()
    }
}

#[derive(Debug, Default)]
pub struct Out {
    pub ebr: SchemeOut,
    pub qsbr: SchemeOut,
    /// `coforall_locales(|_| {})` probes between rounds (traced runs), ns.
    pub coforall_ns: Samples,
}

/// Alternate EBR and QSBR rounds for `budget`.
pub fn run(setup: &Setup, budget: Duration, tracer: Option<&Tracer>) -> Out {
    let mut out = Out::default();
    let mut pos = 0usize;
    let start = Instant::now();
    while out.ebr.rounds == 0 || start.elapsed() < budget {
        round::<EbrScheme>(setup, &mut pos, tracer, &mut out.ebr);
        round::<QsbrScheme>(setup, &mut pos, tracer, &mut out.qsbr);
        if tracer.is_some() {
            let t = Instant::now();
            setup.cluster.coforall_locales(|_| {});
            out.coforall_ns.push(t.elapsed().as_nanos() as u64);
        }
    }
    out
}

struct ReaderOut {
    ops: u64,
    busy: Duration,
    wrong: u64,
    pos: usize,
}

fn round<S: Scheme>(setup: &Setup, pos: &mut usize, tracer: Option<&Tracer>, out: &mut SchemeOut) {
    let array = RcuArray::<u64, S>::with_config(&setup.cluster, rcuarray::Config::default());
    let done = AtomicBool::new(false);
    let before = rcuarray_obs::snapshot();
    let (mut resizes, stats, reader) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            task::with_locale(LocaleId::new(1), || {
                reader(&array, &setup.stream, *pos, setup.oracle, &done)
            })
        });
        let resizer =
            s.spawn(|| task::with_locale(LocaleId::ZERO, || resizer(&array, &done, tracer)));
        let (resizes, stats) = resizer.join().expect("resizer panicked");
        (resizes, stats, reader.join().expect("reader panicked"))
    });
    out.obs = out
        .obs
        .plus(&ObsDelta::between(&before, &rcuarray_obs::snapshot()));
    if array.capacity() != RESIZES * STEP {
        out.bad_capacity += 1;
    }
    out.rounds += 1;
    out.ops += reader.ops;
    out.busy += reader.busy;
    out.wrong += reader.wrong;
    *pos = reader.pos;
    for (bytes, lag) in stats {
        out.backlog_peak_bytes = out.backlog_peak_bytes.max(bytes);
        out.epoch_lag_peak = out.epoch_lag_peak.max(lag);
    }
    out.resize_ns.append(&mut resizes);
}

/// 256 timed `resize(1024)` calls, then a checkpoint. With a tracer the
/// array's reclamation stats are sampled between resizes and every
/// resize is recorded as a span.
fn resizer<S: Scheme>(
    array: &RcuArray<u64, S>,
    done: &AtomicBool,
    tracer: Option<&Tracer>,
) -> (Samples, Vec<(u64, u64)>) {
    // Release the reader even if a resize panics, so the round ends.
    struct Done<'a>(&'a AtomicBool);
    impl Drop for Done<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
        }
    }
    let done = Done(done);
    let mut samples = Samples::new();
    let mut stats = Vec::new();
    let mut log = tracer.map(Tracer::log);
    let round_id = log.as_ref().map_or(0, |l| l.open());
    let t_round = Instant::now();
    for i in 0..RESIZES {
        let t0 = Instant::now();
        array.resize(STEP);
        let t1 = Instant::now();
        samples.push((t1 - t0).as_nanos() as u64);
        if let Some(log) = log.as_mut() {
            log.record(resize_span::<S>(), round_id, t0, t1);
            if i % STATS_EVERY == STATS_EVERY - 1 {
                let r = array.stats().reclaim;
                stats.push((r.pending_bytes, r.epoch_lag));
            }
        }
    }
    array.checkpoint();
    drop(done);
    if let Some(log) = log.as_mut() {
        log.close(round_id, "grow.round", 0, 0, t_round, Instant::now());
    }
    (samples, stats)
}

fn resize_span<S: Scheme>() -> &'static str {
    match S::NAME {
        "ebr" => "rcuarray.resize.ebr",
        _ => "rcuarray.resize.qsbr",
    }
}

/// The concurrent reader. It remembers which indices it wrote, so every
/// read has one right answer: the oracle value if written, else zero.
/// At the end it re-reads everything it wrote: a write made before a
/// resize must survive it (block recycling, paper Lemma 6).
fn reader<S: Scheme>(
    array: &RcuArray<u64, S>,
    stream: &[u32],
    mut pos: usize,
    oracle: Oracle,
    done: &AtomicBool,
) -> ReaderOut {
    let mut written = vec![0u64; RESIZES * STEP / 64];
    let mut ops = 0u64;
    let mut wrong = 0u64;
    while array.capacity() == 0 && !done.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
    let start = Instant::now();
    loop {
        let cap = array.capacity() as u64;
        for &e in &stream[pos..pos + CHUNK] {
            let idx = (((e & !WRITE_BIT) as u64 * cap) >> 31) as usize;
            let (word, bit) = (idx / 64, 1u64 << (idx % 64));
            if e & WRITE_BIT != 0 {
                array.write(idx, oracle.value(idx));
                written[word] |= bit;
            } else {
                let want = if written[word] & bit != 0 {
                    oracle.value(idx)
                } else {
                    0
                };
                if array.read(idx) != want {
                    wrong += 1;
                }
            }
        }
        array.checkpoint();
        ops += CHUNK as u64;
        pos = (pos + CHUNK) % stream.len();
        if done.load(Ordering::Acquire) {
            break;
        }
    }
    let busy = start.elapsed();
    for (word, &bits) in written.iter().enumerate() {
        for b in 0..64 {
            if bits & (1 << b) != 0 {
                let idx = word * 64 + b;
                if array.read(idx) != oracle.value(idx) {
                    wrong += 1;
                }
            }
        }
    }
    array.checkpoint();
    ReaderOut {
        ops,
        busy,
        wrong,
        pos,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_reach_full_capacity_and_lose_no_write() {
        let setup = setup(5, Oracle::new(5));
        let out = run(&setup, Duration::ZERO, None);
        for s in [&out.ebr, &out.qsbr] {
            assert_eq!(s.rounds, 1);
            assert_eq!(s.bad_capacity, 0);
            assert_eq!(s.wrong, 0);
            assert_eq!(s.resize_ns.len(), RESIZES);
            assert!(s.ops > 0);
        }
    }
}
