//! Regenerate the series of every figure in the paper's evaluation (§V)
//! and print them as tables, plus the one ablation the figures' verdicts
//! lean on (recycling clone vs deep copy).
//!
//! ```text
//! cargo run --release --example paper_figures [FIGURE...]
//! ```
//!
//! FIGURE is any of `fig2a fig2b fig2c fig2d fig3 fig4 clone`; none means
//! all of them. Every other parameter is a constant below. Each cell runs
//! `REPS` repetitions and prints `median [min–max] ×reps`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rcuarray_repro::prelude::*;
use rcuarray_repro::rcuarray::{Block, BlockRegistry, Snapshot};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The x axis of Fig. 2 and Fig. 3.
const LOCALES: [usize; 4] = [1, 2, 4, 8];
/// Tasks per locale (paper: 44 on a 44-core node).
const TASKS_PER_LOCALE: usize = 4;
/// Update operations per task in Fig. 2a/2b (as in the paper).
const SHORT_OPS: usize = 1024;
/// Update operations per task in Fig. 2c/2d and Fig. 4 (paper: 1M).
const LONG_OPS: usize = 65_536;
/// Capacity the indexing figures index into.
const CAPACITY: usize = 1 << 20;
/// Elements per block, and elements added per Fig. 3 resize.
const BLOCK_SIZE: usize = 1024;
/// Resizes per Fig. 3 repetition (paper: 1024, to 1M elements).
/// ChapelArray keeps every superseded storage until it drops, so its
/// peak memory grows with the square of this: 256 keeps one repetition
/// at 263 MB, where 1024 would need 4.3 GB.
const INCREMENTS: usize = 256;
/// Fig. 4's x axis: operations between two QSBR checkpoints.
const OPS_PER_CHECKPOINT: [usize; 5] = [1, 10, 100, 1_000, 10_000];
/// Snapshot sizes of the clone ablation, in blocks.
const CLONE_BLOCKS: [usize; 3] = [16, 128, 1024];
/// Blocks cloned per clone-ablation repetition, at every snapshot size.
const CLONED_BLOCKS_PER_REP: usize = 1 << 18;
/// Repetitions per cell. The whole run takes about a minute on a
/// 2-vCPU host; the 1024-op cells of Fig. 2a/2b last well under a
/// millisecond each, so their medians need the extra repetitions.
const REPS: usize = 11;
/// Seed of the random index streams.
const SEED: u64 = 0xC0FFEE;

const FIGURES: [&str; 7] = ["fig2a", "fig2b", "fig2c", "fig2d", "fig3", "fig4", "clone"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    Ebr,
    Qsbr,
    Chapel,
    Sync,
}

impl Variant {
    fn label(self) -> &'static str {
        match self {
            Variant::Ebr => "EBRArray",
            Variant::Qsbr => "QSBRArray",
            Variant::Chapel => "ChapelArray",
            Variant::Sync => "SyncArray",
        }
    }
}

/// The four arrays the paper plots, behind one set of `u64` operations.
enum Array {
    Ebr(EbrArray<u64>),
    Qsbr(QsbrArray<u64>),
    Chapel(UnsafeArray<u64>),
    Sync(SyncArray<u64>),
}

macro_rules! each {
    ($array:expr, $a:ident => $body:expr) => {
        match $array {
            Array::Ebr($a) => $body,
            Array::Qsbr($a) => $body,
            Array::Chapel($a) => $body,
            Array::Sync($a) => $body,
        }
    };
}

impl Array {
    /// An empty array with the paper's block size and comm accounting on.
    fn new(variant: Variant, cluster: &Arc<Cluster>) -> Array {
        match variant {
            Variant::Ebr => Array::Ebr(EbrArray::new(cluster)),
            Variant::Qsbr => Array::Qsbr(QsbrArray::new(cluster)),
            Variant::Chapel => Array::Chapel(UnsafeArray::new(cluster)),
            Variant::Sync => Array::Sync(SyncArray::new(cluster)),
        }
    }

    fn write(&self, idx: usize, v: u64) {
        each!(self, a => a.write(idx, v))
    }

    fn resize(&self, additional: usize) {
        each!(self, a => { a.resize(additional); })
    }

    fn capacity(&self) -> usize {
        each!(self, a => a.capacity())
    }

    /// A QSBR quiescent state; a no-op for the other arrays.
    fn checkpoint(&self) {
        if let Array::Qsbr(a) = self {
            a.checkpoint();
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pattern {
    Random,
    Sequential,
}

/// One table cell: the rates of its repetitions, in ascending order.
struct Cell(Vec<f64>);

impl Cell {
    /// Run `rep` (which returns the time `work` units took) `REPS` times
    /// and keep each repetition's rate in units per second.
    fn measure(work: usize, mut rep: impl FnMut() -> Duration) -> Cell {
        let mut rates: Vec<f64> = (0..REPS)
            .map(|_| work as f64 / rep().as_secs_f64())
            .collect();
        rates.sort_by(f64::total_cmp);
        Cell(rates)
    }

    /// The middle repetition (`REPS` is odd).
    fn median(&self) -> f64 {
        self.0[REPS / 2]
    }
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (min, max) = (self.0[0], self.0[REPS - 1]);
        let cell = format!("{} [{}–{}] ×{REPS}", si(self.median()), si(min), si(max));
        f.pad(&cell)
    }
}

/// A rate with a k/M/G suffix.
fn si(v: f64) -> String {
    match v {
        v if v >= 1e9 => format!("{:.2}G", v / 1e9),
        v if v >= 1e6 => format!("{:.2}M", v / 1e6),
        v if v >= 1e3 => format!("{:.1}k", v / 1e3),
        v => format!("{v:.1}"),
    }
}

fn print_table(title: &str, x_name: &str, columns: &[&str], rows: &[(usize, Vec<String>)]) {
    println!("{title}");
    print!("{x_name:>9}");
    for c in columns {
        print!("  {c:>29}");
    }
    println!();
    for (x, cells) in rows {
        print!("{x:>9}");
        for c in cells {
            print!("  {c:>29}");
        }
        println!();
    }
    println!();
}

/// One timed indexing pass: every task of every locale performs `ops`
/// updates, checkpointing after every `checkpoint_every` of them when set.
fn index_pass(
    array: &Array,
    cluster: &Cluster,
    pattern: Pattern,
    ops: usize,
    checkpoint_every: Option<usize>,
) -> Duration {
    let start = Instant::now();
    cluster.spawn_tasks(TASKS_PER_LOCALE, |loc, task| {
        let task_id = (loc.index() * TASKS_PER_LOCALE + task) as u64;
        let mut rng = StdRng::seed_from_u64(SEED ^ task_id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // Sequential walkers start at spread offsets so they do not convoy
        // on one block.
        let mut next = (task_id as usize * (CAPACITY / 64 + 1)) % CAPACITY;
        for k in 0..ops {
            let idx = match pattern {
                Pattern::Random => rng.random_range(0..CAPACITY),
                Pattern::Sequential => {
                    let i = next;
                    next = (i + 1) % CAPACITY;
                    i
                }
            };
            array.write(idx, k as u64);
            if checkpoint_every.is_some_and(|every| (k + 1) % every == 0) {
                array.checkpoint();
            }
        }
    });
    start.elapsed()
}

/// An indexing cell: a fresh cluster and an array grown to `CAPACITY`
/// outside the timed passes; the passes reuse both.
fn index_cell(
    variant: Variant,
    locales: usize,
    pattern: Pattern,
    ops: usize,
    checkpoint_every: Option<usize>,
) -> Cell {
    let cluster = Cluster::new(Topology::new(locales, TASKS_PER_LOCALE));
    let array = Array::new(variant, &cluster);
    array.resize(CAPACITY);
    array.checkpoint();
    let work = locales * TASKS_PER_LOCALE * ops;
    Cell::measure(work, || {
        index_pass(&array, &cluster, pattern, ops, checkpoint_every)
    })
}

/// Fig. 2a–d: update throughput (ops/s) against locale count.
fn fig2(name: &str, pattern: Pattern, ops: usize, variants: &[Variant]) {
    let rows: Vec<_> = LOCALES
        .iter()
        .map(|&l| {
            let cells = variants
                .iter()
                .map(|&v| index_cell(v, l, pattern, ops, None).to_string())
                .collect();
            (l, cells)
        })
        .collect();
    let title = format!(
        "Fig. {name}: {pattern:?} indexing, {ops} ops/task, {TASKS_PER_LOCALE} tasks/locale (ops/s)"
    );
    let columns: Vec<_> = variants.iter().map(|v| v.label()).collect();
    print_table(&title, "locales", &columns, &rows);
}

/// Fig. 3: resize throughput (resizes/s) from zero capacity to
/// `INCREMENTS * BLOCK_SIZE` elements.
fn fig3(variants: &[Variant]) {
    let rows: Vec<_> = LOCALES
        .iter()
        .map(|&l| {
            let cluster = Cluster::new(Topology::new(l, TASKS_PER_LOCALE));
            let cells = variants
                .iter()
                .map(|&v| {
                    Cell::measure(INCREMENTS, || {
                        let array = Array::new(v, &cluster);
                        let start = Instant::now();
                        for _ in 0..INCREMENTS {
                            array.resize(BLOCK_SIZE);
                        }
                        let took = start.elapsed();
                        assert_eq!(array.capacity(), INCREMENTS * BLOCK_SIZE);
                        array.checkpoint();
                        took
                    })
                    .to_string()
                })
                .collect();
            (l, cells)
        })
        .collect();
    let title = format!("Fig. 3: {INCREMENTS} resizes of +{BLOCK_SIZE} elements (resizes/s)");
    let columns: Vec<_> = variants.iter().map(|v| v.label()).collect();
    print_table(&title, "locales", &columns, &rows);
}

/// Fig. 4: QSBR update throughput at one locale as checkpoints get
/// rarer, against the EBR baseline of Fig. 2d's workload.
fn fig4() {
    let ebr = index_cell(Variant::Ebr, 1, Pattern::Sequential, LONG_OPS, None);
    let rows: Vec<_> = OPS_PER_CHECKPOINT
        .iter()
        .map(|&every| {
            let qsbr = index_cell(Variant::Qsbr, 1, Pattern::Sequential, LONG_OPS, Some(every));
            let ratio = format!("{:.2}", qsbr.median() / ebr.median());
            (every, vec![qsbr.to_string(), ratio])
        })
        .collect();
    let title = format!(
        "Fig. 4: QSBR checkpoint overhead, 1 locale, {TASKS_PER_LOCALE} tasks, {LONG_OPS} \
         sequential ops/task (ops/s)\nEBRArray baseline: {ebr}"
    );
    print_table(&title, "ops/ckpt", &["QSBRArray", "median / EBR"], &rows);
}

/// The deep-copy alternative to `clone_recycled`: fresh blocks, every
/// element value copied (what a reallocating array such as ChapelArray
/// pays per resize).
fn clone_deep(registry: &BlockRegistry<u64>, snap: &Snapshot<u64>) -> Snapshot<u64> {
    let blocks = snap
        .blocks()
        .iter()
        .map(|old| {
            // SAFETY: the blocks belong to the caller's registry, which
            // outlives this call.
            let old = unsafe { old.get() };
            let new = Block::new(old.home(), old.capacity());
            new.copy_from(old);
            registry.adopt(new)
        })
        .collect();
    Snapshot::from_blocks(blocks, snap.version() + 1)
}

/// Ablation (§III-C): snapshot clones per second, recycling clone (one
/// pointer copy per block) vs deep copy (every element copied).
fn clone_ablation() {
    let rows: Vec<_> = CLONE_BLOCKS
        .iter()
        .map(|&blocks| {
            let registry = BlockRegistry::new();
            let refs = (0..blocks)
                .map(|i| registry.adopt(Block::new(LocaleId::new((i % 4) as u32), BLOCK_SIZE)))
                .collect();
            let snap = Snapshot::from_blocks(refs, 0);
            let clones = CLONED_BLOCKS_PER_REP / blocks;
            let recycle = Cell::measure(clones, || {
                let start = Instant::now();
                for _ in 0..clones {
                    black_box(snap.clone_recycled(&[]));
                }
                start.elapsed()
            });
            let deep = Cell::measure(clones, || {
                let start = Instant::now();
                for _ in 0..clones {
                    // A scratch registry per clone bounds memory; adopting
                    // the new blocks is part of what a deep copy costs.
                    let scratch = BlockRegistry::new();
                    black_box(clone_deep(&scratch, &snap));
                }
                start.elapsed()
            });
            let ratio = format!("{:.0}", recycle.median() / deep.median());
            (blocks, vec![recycle.to_string(), deep.to_string(), ratio])
        })
        .collect();
    let title = format!("Ablation: snapshot clone, {BLOCK_SIZE}-element blocks (clones/s)");
    let columns = ["recycling clone", "deep copy", "recycle / deep"];
    print_table(&title, "blocks", &columns, &rows);
}

fn main() {
    let mut figures: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = figures.iter().find(|f| !FIGURES.contains(&f.as_str())) {
        eprintln!("unknown figure '{bad}'; expected any of {FIGURES:?}");
        std::process::exit(2);
    }
    if figures.is_empty() {
        figures = FIGURES.iter().map(|f| f.to_string()).collect();
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host: {threads} hardware threads | locales {LOCALES:?} x {TASKS_PER_LOCALE} tasks | \
         cells: median [min–max] ×reps\n"
    );
    let paper = [Variant::Ebr, Variant::Qsbr, Variant::Chapel, Variant::Sync];
    // The paper leaves SyncArray out of Fig. 2c/2d and Fig. 3 "due to
    // required runtime".
    let no_sync = &paper[..3];
    for figure in &figures {
        match figure.as_str() {
            "fig2a" => fig2("2a", Pattern::Random, SHORT_OPS, &paper),
            "fig2b" => fig2("2b", Pattern::Sequential, SHORT_OPS, &paper),
            "fig2c" => fig2("2c", Pattern::Random, LONG_OPS, no_sync),
            "fig2d" => fig2("2d", Pattern::Sequential, LONG_OPS, no_sync),
            "fig3" => fig3(no_sync),
            "fig4" => fig4(),
            _ => clone_ablation(),
        }
    }
}
