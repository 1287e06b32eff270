//! System-level concurrency stress: readers, updaters and resizers
//! hammering one array from every locale, checking the paper's safety
//! claims end to end.

use rcuarray_repro::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

fn cfg() -> Config {
    Config::with_block_size(32)
}

/// Readers verify a per-slot invariant (value is either 0 or encodes its
/// own index) while resizers grow the array — any torn snapshot, lost
/// update or use-after-free breaks the invariant or crashes.
fn stress<S: rcuarray::Scheme>(make: impl Fn(&Arc<Cluster>) -> RcuArray<u64, S>) {
    let cluster = Cluster::new(Topology::new(2, 2));
    let array = make(&cluster);
    array.resize(256);
    let stop = AtomicBool::new(false);
    let reads_done = AtomicUsize::new(0);

    std::thread::scope(|s| {
        // Updaters: slot i always holds i * 2 + 1.
        for t in 0..2 {
            let array = array.clone();
            let stop = &stop;
            s.spawn(move || {
                let mut k = t * 17;
                while !stop.load(Ordering::Relaxed) {
                    let cap = array.capacity();
                    let i = k % cap;
                    array.write(i, (i as u64) * 2 + 1);
                    k += 13;
                }
                array.checkpoint();
            });
        }
        // Readers: every slot is still-zero or self-consistent.
        for _ in 0..2 {
            let array = array.clone();
            let stop = &stop;
            let reads_done = &reads_done;
            s.spawn(move || {
                let mut k = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let cap = array.capacity();
                    let i = (k * 7) % cap;
                    let v = array.read(i);
                    assert!(v == 0 || v == (i as u64) * 2 + 1, "slot {i} corrupted: {v}");
                    k += 1;
                    reads_done.fetch_add(1, Ordering::Relaxed);
                }
                array.checkpoint();
            });
        }
        // Resizer: grows the array 60 times while all of that runs.
        let array2 = array.clone();
        let stop2 = &stop;
        s.spawn(move || {
            for _ in 0..60 {
                array2.resize(32);
                std::thread::yield_now();
            }
            stop2.store(true, Ordering::Relaxed);
        });
    });

    assert_eq!(array.capacity(), 256 + 60 * 32);
    assert!(reads_done.load(Ordering::Relaxed) > 0);
    // Final sweep: every slot intact.
    for i in 0..array.capacity() {
        let v = array.read(i);
        assert!(v == 0 || v == (i as u64) * 2 + 1);
    }
    array.checkpoint();
}

#[test]
fn ebr_array_survives_full_stress() {
    stress(|c| EbrArray::<u64>::with_config(c, cfg()));
}

#[test]
fn qsbr_array_survives_full_stress() {
    stress(|c| QsbrArray::<u64>::with_config(c, cfg()));
}

#[test]
fn hazard_array_survives_full_stress() {
    stress(|c| HazardArray::<u64>::with_config(c, cfg()));
}

#[test]
fn updates_through_stale_refs_race_resizes_without_loss() {
    // Lemma 6 under fire: take references, resize, write through them
    // concurrently; every write must land.
    let cluster = Cluster::new(Topology::new(2, 2));
    let array: QsbrArray<u64> = QsbrArray::with_config(&cluster, cfg());
    array.resize(128);
    std::thread::scope(|s| {
        let refs: Vec<ElemRef<'_, u64>> = (0..128).map(|i| array.get_ref(i)).collect();
        let a2 = array.clone();
        let resizer = s.spawn(move || {
            for _ in 0..20 {
                a2.resize(32);
            }
        });
        for (i, r) in refs.iter().enumerate() {
            r.set(i as u64 + 1000);
        }
        resizer.join().unwrap();
    });
    for i in 0..128 {
        assert_eq!(array.read(i), i as u64 + 1000, "update through ref lost");
    }
    array.checkpoint();
}

#[test]
fn many_arrays_share_one_cluster() {
    let cluster = Cluster::new(Topology::new(2, 2));
    let arrays: Vec<QsbrArray<u64>> = (0..8)
        .map(|_| QsbrArray::with_config(&cluster, cfg()))
        .collect();
    std::thread::scope(|s| {
        for (i, a) in arrays.iter().enumerate() {
            s.spawn(move || {
                a.resize(64);
                a.fill(i as u64);
                a.checkpoint();
            });
        }
    });
    for (i, a) in arrays.iter().enumerate() {
        assert!(a.iter().all(|v| v == i as u64), "array {i} cross-talk");
    }
}

#[test]
fn concurrent_resizes_from_every_locale_serialize_correctly() {
    let cluster = Cluster::new(Topology::new(3, 1));
    let array: EbrArray<u64> = EbrArray::with_config(&cluster, cfg());
    cluster.forall_tasks(|_, _| {
        for _ in 0..10 {
            array.resize(32);
        }
    });
    assert_eq!(array.capacity(), 3 * 10 * 32);
    let stats = array.stats();
    assert_eq!(stats.num_blocks, 30);
    assert!(
        stats.block_imbalance() <= 1,
        "round-robin held under contention"
    );
}
