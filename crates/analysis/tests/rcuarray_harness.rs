//! The real RCUArray under the checker: concurrent reads against a
//! resize, for every reclamation scheme.
//!
//! The paper's core claim (§III-C): readers may run fully concurrent
//! with a resize; the writer installs the grown block table, waits out
//! the grace period, and only then frees the old table. Under the
//! checker this shows up as: no data race between a reader's element
//! access and the resizer's table teardown, on any explored schedule,
//! and every read returns either the pre- or post-resize view — never
//! garbage.
//!
//! One-locale topology: `coforall_locales` runs inline, so all
//! concurrency in the scenario is the reader/resizer threads the
//! harness spawns — exactly what the checker schedules.

#![cfg(feature = "check")]

use rcuarray::{
    Config as ArrayConfig, EbrArray, EbrScheme, LeakScheme, QsbrScheme, RcuArray, Scheme,
};
use rcuarray_analysis::{thread, Checker, Config, Policy};
use rcuarray_runtime::{Cluster, Topology};
use std::sync::Arc;

fn small_config() -> ArrayConfig {
    ArrayConfig::with_block_size(2)
}

/// The paper's core scenario — a reader fully concurrent with a resize —
/// written once against the [`Scheme`] seam and instantiated per scheme.
/// `checkpoint` is the scheme-neutral quiescence announcement: a drain
/// under QSBR, a no-op under EBR and Leak.
fn read_concurrent_with_resize<S: Scheme>(cfg: Config) {
    let report = Checker::new(cfg).run(|| {
        let cluster = Cluster::new(Topology::new(1, 1));
        let a: Arc<RcuArray<u64, S>> = Arc::new(RcuArray::with_config(&cluster, small_config()));
        a.resize(2);
        a.write(0, 5);
        a.write(1, 6);

        let r = a.clone();
        let reader = thread::spawn(move || {
            for _ in 0..2 {
                let v = r.read(0);
                assert_eq!(v, 5, "reader saw torn element");
                let w = r.read(1);
                assert_eq!(w, 6);
            }
            r.checkpoint();
        });

        // Concurrent grow: installs a larger block table and retires the
        // old one through the scheme's reclamation protocol.
        a.resize(2);
        assert_eq!(a.capacity(), 4);
        assert_eq!(a.read(0), 5);
        a.checkpoint();

        reader.join().unwrap();
    });
    assert!(report.is_clean(), "[{}] {report}", S::NAME);
    assert!(report.deadlocks.is_empty(), "[{}] {report}", S::NAME);
    assert!(report.budget_exhausted.is_empty(), "[{}] {report}", S::NAME);
}

fn sampled(seed: u64) -> Config {
    Config {
        base_seed: seed,
        iterations: 10,
        max_steps: 200_000,
        ..Config::default()
    }
}

#[test]
fn ebr_read_concurrent_with_resize_is_clean() {
    read_concurrent_with_resize::<EbrScheme>(sampled(0x5eed_0a01));
}

#[test]
fn qsbr_read_concurrent_with_resize_is_clean() {
    read_concurrent_with_resize::<QsbrScheme>(sampled(0x5eed_0a02));
}

#[test]
fn leak_read_concurrent_with_resize_is_clean() {
    read_concurrent_with_resize::<LeakScheme>(sampled(0x5eed_0a05));
}

/// The paper's core scenario under [`Policy::Dpor`] for both deferred
/// back-ends: systematic schedule enumeration of the read-vs-resize
/// window instead of seed sampling. The array's grace-period machinery
/// spins, so the budget bounds the exploration, not exhaustion.
#[test]
fn ebr_read_concurrent_with_resize_clean_under_dpor() {
    read_concurrent_with_resize::<EbrScheme>(Config {
        policy: Policy::Dpor,
        iterations: 12,
        max_steps: 200_000,
        ..Config::default()
    });
}

#[test]
fn qsbr_read_concurrent_with_resize_clean_under_dpor() {
    read_concurrent_with_resize::<QsbrScheme>(Config {
        policy: Policy::Dpor,
        iterations: 12,
        max_steps: 200_000,
        ..Config::default()
    });
}

#[test]
fn leak_scheme_never_frees_under_the_checker() {
    // The leak scheme's contract, verified on every explored schedule: a
    // retired snapshot is counted but its destructor never runs (so a
    // double-drop is impossible by construction) and the defer count only
    // grows — one retired snapshot per locale per resize, none reclaimed.
    let report = Checker::new(Config {
        base_seed: 0x5eed_0a06,
        iterations: 8,
        max_steps: 200_000,
        ..Config::default()
    })
    .run(|| {
        let cluster = Cluster::new(Topology::new(1, 1));
        let a: Arc<RcuArray<u64, LeakScheme>> =
            Arc::new(RcuArray::with_config(&cluster, small_config()));
        let mut last_retired = 0;
        for i in 1..=3u64 {
            a.resize(2);
            assert_eq!(a.checkpoint(), 0, "leak checkpoint must free nothing");
            let s = a.stats().reclaim;
            assert_eq!(s.retired, i, "one retired snapshot per resize");
            assert_eq!(s.reclaimed, 0, "leak scheme must never reclaim");
            assert_eq!(s.pending, i, "everything retired stays pending");
            assert!(s.retired > last_retired, "defer count must be monotone");
            last_retired = s.retired;
        }
    });
    assert!(report.is_clean(), "{report}");
}

#[test]
fn ebr_writer_and_reader_on_disjoint_elements_clean() {
    let report = Checker::new(Config {
        base_seed: 0x5eed_0a03,
        iterations: 8,
        max_steps: 200_000,
        ..Config::default()
    })
    .run(|| {
        let cluster = Cluster::new(Topology::new(1, 1));
        let a: Arc<EbrArray<u64>> = Arc::new(EbrArray::with_config(&cluster, small_config()));
        a.resize(4);
        a.write(3, 30);

        let r = a.clone();
        let t = thread::spawn(move || {
            r.write(0, 10);
            assert_eq!(r.read(0), 10);
        });

        assert_eq!(a.read(3), 30);
        a.resize(2);
        t.join().unwrap();
        assert_eq!(a.read(0), 10);
    });
    assert!(report.is_clean(), "{report}");
}
