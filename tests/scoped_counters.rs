//! Each counted event is one scoped-counter call that feeds both the
//! owner's stats (an array, an EBR zone, a QSBR domain) and the
//! process-wide obs total. The two views must agree, and the process
//! totals must stay monotonic when an owner is dropped.

use rcuarray_repro::prelude::*;
use rcuarray_repro::rcuarray_obs::{snapshot, Snapshot};

const N: u64 = 12;

fn count(s: &Snapshot, name: &str) -> u64 {
    s.counter(name).unwrap_or(0)
}

#[test]
fn instance_counts_are_exact_and_process_totals_grow_by_at_least_as_much() {
    let cluster = Cluster::new(Topology::new(2, 1));
    let before = snapshot();

    let array = EbrArray::<u64>::new(&cluster);
    let zone = EpochZone::new();
    let domain = QsbrDomain::new();
    for _ in 0..N {
        array.resize(1);
        zone.synchronize();
        domain.defer_with_bytes(8, || {});
        domain.checkpoint();
    }

    let after = snapshot();
    let grew = |name| count(&after, name) - count(&before, name);
    assert_eq!(array.stats().resizes, N);
    assert!(grew("rcuarray_resizes_total") >= N);
    assert_eq!(zone.stats().advances, N);
    assert!(grew("rcuarray_ebr_advances_total") >= N);
    let d = domain.stats();
    assert_eq!((d.defers, d.checkpoints, d.reclaimed), (N, N, N));
    assert_eq!(d.pending_bytes, 0);
    assert!(grew("rcuarray_qsbr_defers_total") >= N);
    assert!(grew("rcuarray_qsbr_checkpoints_total") >= N);
    assert!(grew("rcuarray_qsbr_reclaimed_total") >= N);
    assert!(grew("rcuarray_qsbr_reclaimed_bytes_total") >= 8 * N);
}

#[test]
fn process_totals_do_not_drop_with_the_arrays_that_counted_them() {
    let cluster = Cluster::new(Topology::new(2, 1));
    let ebr = EbrArray::<u64>::new(&cluster);
    let qsbr = QsbrArray::<u64>::new(&cluster);
    for _ in 0..4 {
        ebr.resize(1);
        qsbr.resize(1);
        qsbr.checkpoint();
    }
    let live = snapshot();
    drop((ebr, qsbr));
    let dropped = snapshot();
    // The four process totals rcubench reads as before/after deltas.
    for name in [
        "rcuarray_resizes_total",
        "rcuarray_ebr_advances_total",
        "rcuarray_qsbr_reclaimed_total",
        "rcuarray_qsbr_checkpoints_total",
    ] {
        assert!(count(&live, name) > 0, "{name} never counted");
        assert!(
            count(&dropped, name) >= count(&live, name),
            "{name} fell when its array dropped"
        );
    }
}
