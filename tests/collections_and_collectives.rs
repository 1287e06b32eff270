//! Integration of the higher layers: the §VI collections on the RCUArray
//! backbone, owner-computes iteration, bulk transfers and atomic element
//! RMW — all on one shared cluster.

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

#[test]
fn bulk_ops_interoperate_with_dist_vector() {
    let c = cluster();
    let v: DistVector<u64> = DistVector::with_config(&c, cfg());
    for i in 0..40 {
        v.push(i);
    }
    // Bulk-read the backing array directly.
    let window = v.backing().read_range(8..24);
    assert_eq!(window, (8..24).collect::<Vec<u64>>());
    // Bulk-overwrite a window and read it back through the vector.
    v.backing().write_slice(8, &[99; 4]);
    for i in 8..12 {
        assert_eq!(v.get(i), 99);
    }
    v.checkpoint();
}

#[test]
fn dist_table_and_vector_share_a_cluster_with_arrays() {
    let c = cluster();
    let table: DistTable = DistTable::with_capacity(&c, 1 << 10);
    let vec: DistVector<u64> = DistVector::with_config(&c, cfg());
    let array: EbrArray<u64> = EbrArray::with_config(&c, cfg());
    array.resize(64);

    c.forall_tasks(|loc, task| {
        let id = (loc.index() * 8 + task) as u64;
        table.insert(id + 1, id * 100).unwrap();
        vec.push(id);
        array.write((id as usize) % 64, id);
        table.checkpoint();
        vec.checkpoint();
    });

    assert_eq!(table.len(), c.topology().total_tasks());
    assert_eq!(vec.len(), c.topology().total_tasks());
    for loc in 0..c.num_locales() {
        for task in 0..c.topology().tasks_per_locale() {
            let id = (loc * 8 + task) as u64;
            assert_eq!(table.get(id + 1), Some(id * 100));
        }
    }
}
