//! Cross-crate integration: the EBR and QSBR configurations of RCUArray
//! must be observably equivalent — same
//! results for the same operation sequence — differing only in *how* old
//! snapshots are reclaimed.

use rcuarray_repro::prelude::*;
use std::sync::Arc;

fn cluster() -> Arc<Cluster> {
    Cluster::new(Topology::new(3, 2))
}

fn cfg() -> Config {
    Config::with_block_size(16)
}

/// A deterministic mixed op sequence applied to any array-like object.
fn drive(
    read: impl Fn(usize) -> u64,
    write: impl Fn(usize, u64),
    resize: impl Fn(usize) -> usize,
) -> Vec<u64> {
    let mut log = Vec::new();
    let mut cap = resize(32);
    for step in 0..500u64 {
        let idx = (step as usize * 31) % cap;
        match step % 7 {
            0..=2 => log.push(read(idx)),
            3..=5 => write(idx, step * 3 + 1),
            _ => {
                if cap < 512 {
                    cap = resize(16);
                    log.push(cap as u64);
                }
            }
        }
    }
    log
}

#[test]
fn ebr_and_qsbr_arrays_agree_with_each_other_and_a_vec_model() {
    let c = cluster();
    let ebr: EbrArray<u64> = EbrArray::with_config(&c, cfg());
    let qsbr: QsbrArray<u64> = QsbrArray::with_config(&c, cfg());

    let log_e = drive(|i| ebr.read(i), |i, v| ebr.write(i, v), |n| ebr.resize(n));
    let log_q = drive(
        |i| qsbr.read(i),
        |i, v| qsbr.write(i, v),
        |n| qsbr.resize(n),
    );
    assert_eq!(log_e, log_q, "schemes must be observably identical");

    // Model: a plain Vec with the same rounding-up growth rule.
    let model = std::cell::RefCell::new(vec![0u64; 0]);
    let log_m = drive(
        |i| model.borrow()[i],
        |i, v| model.borrow_mut()[i] = v,
        |n| {
            let mut m = model.borrow_mut();
            let add = n.div_ceil(16) * 16;
            let new_len = m.len() + add;
            m.resize(new_len, 0);
            new_len
        },
    );
    assert_eq!(log_e, log_m, "arrays must match the sequential model");

    assert_eq!(ebr.to_vec(), qsbr.to_vec());
    assert_eq!(ebr.to_vec(), *model.borrow());
    qsbr.checkpoint();
}

#[test]
fn generic_code_runs_under_either_scheme() {
    fn sum_all<S: rcuarray::Scheme>(a: &RcuArray<u64, S>) -> u64 {
        a.iter().sum()
    }
    let c = cluster();
    let e: EbrArray<u64> = EbrArray::with_config(&c, cfg());
    let q: QsbrArray<u64> = QsbrArray::with_config(&c, cfg());
    e.resize(32);
    q.resize(32);
    e.fill(2);
    q.fill(2);
    assert_eq!(sum_all(&e), 64);
    assert_eq!(sum_all(&q), 64);
}

#[test]
fn elem_refs_survive_resizes_under_both_schemes() {
    fn check<S: rcuarray::Scheme>(name: &str, a: &RcuArray<u64, S>) {
        a.resize(16);
        let r = a.get_ref(3);
        a.resize(16); // clone + recycle while the reference is live
        r.set(99);
        assert_eq!(a.read(3), 99, "{name}: Lemma 6 violated");
    }
    let c = cluster();
    check("ebr", &EbrArray::<u64>::with_config(&c, cfg()));
    check("qsbr", &QsbrArray::<u64>::with_config(&c, cfg()));
}

#[test]
fn scheme_specific_reclamation_behaviour() {
    let c = cluster();
    // EBR reclaims synchronously inside resize: nothing pending after.
    let e: EbrArray<u64> = EbrArray::with_config(&c, cfg());
    for _ in 0..5 {
        e.resize(16);
    }
    assert!(
        e.qsbr_domain().is_none(),
        "EBR must not carry a QSBR domain"
    );
    let es = e.stats().reclaim;
    assert_eq!(es.pending, 0, "EBR leaves nothing pending");
    assert_eq!(es.retired, es.reclaimed);
    assert_eq!(es.advances, 5 * c.num_locales() as u64);

    // QSBR defers: snapshots pend until quiescence.
    let q: QsbrArray<u64> = QsbrArray::with_config(&c, cfg());
    for _ in 0..5 {
        q.resize(16);
    }
    assert_eq!(q.stats().reclaim.guards, 0, "QSBR reads must never pin");
    assert!(q.stats().reclaim.retired > 0);
    // Poll: resize tasks' TLS destructors may still be orphaning.
    for _ in 0..1000 {
        q.checkpoint();
        if q.stats().reclaim.pending == 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert_eq!(q.stats().reclaim.pending, 0);
}
