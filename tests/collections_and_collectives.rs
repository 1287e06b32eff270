//! Integration of the higher layers on one shared cluster:
//! owner-computes iteration folded into a distributed sum, and atomic
//! element RMW through array references under contention.

use rcuarray_repro::prelude::*;
use std::sync::{Arc, Mutex};

fn cluster() -> Arc<Cluster> {
    Cluster::new(Topology::new(4, 2))
}

fn cfg() -> Config {
    Config::with_block_size(16)
}

#[test]
fn owner_computes_sum_equals_global_sum() {
    let c = cluster();
    let a: QsbrArray<u64> = QsbrArray::with_config(&c, cfg());
    a.resize(16 * 8);
    for i in 0..a.capacity() {
        a.write(i, i as u64);
    }
    a.forall_local(|idx, r| {
        assert_eq!(r.get(), idx as u64);
    });
    // Per-locale partial sums via owner-computes iteration, one task per
    // locale, folded on the caller — a miniature distributed aggregation.
    let partials = Mutex::new(Vec::new());
    c.coforall_locales(|_| {
        let local: u64 = a
            .local_blocks()
            .iter()
            .flat_map(|(bi, _)| {
                let start = bi * 16;
                (start..start + 16).map(|i| a.read(i))
            })
            .sum();
        partials.lock().unwrap().push(local);
    });
    let partials = partials.into_inner().unwrap();
    assert_eq!(partials.len(), c.num_locales());
    let n = a.capacity() as u64;
    assert_eq!(partials.iter().sum::<u64>(), n * (n - 1) / 2);
    a.checkpoint();
}

#[test]
fn atomic_rmw_through_array_refs_is_exact_under_contention() {
    let c = cluster();
    let a: QsbrArray<u64> = QsbrArray::with_config(&c, cfg());
    a.resize(16);
    c.forall_tasks(|_, _| {
        let r = a.get_ref(7);
        for _ in 0..500 {
            r.fetch_update(|v| v + 1);
        }
        a.checkpoint();
    });
    let expected = (c.topology().total_tasks() * 500) as u64;
    assert_eq!(a.read(7), expected, "fetch_update must not lose increments");
}
