//! Hot-reloading shared configuration with the *decoupled* RCU layer —
//! the paper's future-work item ("the decoupling of EBR from RCUArray can
//! be performed easily"), shipped here as `RcuPtr` in `rcuarray-reclaim`.
//!
//! A routing table is read on every "request" by worker threads and
//! occasionally replaced wholesale by a control thread. The same generic
//! code runs under both reclamation back-ends:
//!
//! * **EBR** — workers pay the two-counter announcement per read; the
//!   control thread reclaims old tables synchronously.
//! * **QSBR** — reads are free; workers checkpoint between requests
//!   (a natural quiescent point), deferring reclamation there.
//!
//! ```text
//! cargo run --release --example config_hot_reload
//! ```

use rcuarray_repro::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The hot-reloaded configuration: a generation stamp plus a routing map.
#[derive(Clone)]
struct RoutingTable {
    generation: u64,
    routes: Vec<u32>, // shard -> backend
}

impl RoutingTable {
    fn initial(shards: usize) -> Self {
        RoutingTable {
            generation: 0,
            routes: (0..shards as u32).collect(),
        }
    }

    fn route(&self, shard: usize) -> u32 {
        self.routes[shard % self.routes.len()]
    }
}

/// Serve requests against an RCU-protected table until `stop`, returning
/// the number served. Scheme-generic: the whole point of the decoupling.
fn serve<R: Reclaim>(
    table: &RcuPtr<RoutingTable, R>,
    stop: &AtomicBool,
    served: &AtomicU64,
    quiesce_every: usize,
) {
    let mut n = 0usize;
    while !stop.load(Ordering::Relaxed) {
        // One "request": route a shard through the current table and
        // sanity-check the snapshot's internal consistency.
        let (generation, backend) = table.read(|t| (t.generation, t.route(n)));
        assert!(u64::from(backend) < generation + 1024, "torn table");
        n += 1;
        if n.is_multiple_of(quiesce_every) {
            // Between requests: a natural quiescent point. A checkpoint
            // under QSBR, a no-op under EBR.
            table.reclaimer().quiesce();
        }
    }
    served.fetch_add(n as u64, Ordering::Relaxed);
}

fn run<R: Reclaim>(name: &str, reclaim: Arc<R>, reloads: u64) {
    let table = Arc::new(RcuPtr::new(RoutingTable::initial(64), reclaim));
    let stop = AtomicBool::new(false);
    let served = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..3 {
            let table = Arc::clone(&table);
            let stop = &stop;
            let served = &served;
            s.spawn(move || serve(table.as_ref(), stop, served, 256));
        }
        // The control plane hot-reloads the table `reloads` times.
        let table2 = Arc::clone(&table);
        let stop2 = &stop;
        s.spawn(move || {
            for g in 1..=reloads {
                table2.update(|old| {
                    let mut routes = old.routes.clone();
                    // Re-home one shard per reload.
                    let victim = (g as usize * 7) % routes.len();
                    routes[victim] = routes[victim].wrapping_add(1);
                    RoutingTable {
                        generation: g,
                        routes,
                    }
                });
                std::thread::yield_now();
            }
            stop2.store(true, Ordering::Relaxed);
        });
    });
    let final_gen = table.read(|t| t.generation);
    // Final quiesce so QSBR's deferred tables are freed before we report.
    table.reclaimer().quiesce();
    println!(
        "{name:<5}: served {:>9} requests during {} reloads in {:>7.1?} (final generation {})",
        served.load(Ordering::Relaxed),
        reloads,
        start.elapsed(),
        final_gen
    );
}

fn main() {
    println!("hot-reloading a routing table under both reclamation back-ends\n");
    run("ebr", Arc::new(EpochZone::new()), 500);
    run("qsbr", Arc::new(QsbrDomain::new()), 500);
    println!(
        "\nsame serve() code ran under both schemes — the paper's `isQSBR` as a type parameter"
    );
}
