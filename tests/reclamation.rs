//! End-to-end reclamation behaviour: EBR's synchronous drain, QSBR's
//! deferred checkpoints, parking, thread exit, and the generic `RcuPtr`
//! cell over both.

use rcuarray_repro::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn ebr_writer_waits_for_pinned_reader_through_rcucell() {
    let cell = Arc::new(RcuPtr::new(vec![1u8, 2, 3], Arc::new(EpochZone::new())));
    let writer_done = Arc::new(AtomicBool::new(false));

    // A reader that holds the read-side critical section open.
    let cell2 = Arc::clone(&cell);
    let done2 = Arc::clone(&writer_done);
    let reader = std::thread::spawn(move || {
        cell2.read(|v| {
            std::thread::sleep(Duration::from_millis(80));
            // The writer must still be blocked while we are in here.
            assert!(
                !done2.load(Ordering::SeqCst),
                "writer finished while reader was in its critical section"
            );
            v.len()
        })
    });

    std::thread::sleep(Duration::from_millis(20));
    cell.update(|v| {
        let mut v = v.clone();
        v.push(4);
        v
    });
    writer_done.store(true, Ordering::SeqCst);
    assert_eq!(reader.join().unwrap(), 3, "reader saw the old snapshot");
    assert_eq!(cell.read(|v| v.len()), 4);
}

#[test]
fn qsbr_defers_free_exactly_once_with_canaries() {
    struct Canary {
        drops: Arc<AtomicUsize>,
    }
    impl Drop for Canary {
        fn drop(&mut self) {
            self.drops.fetch_add(1, Ordering::SeqCst);
        }
    }

    let domain = QsbrDomain::new();
    let drops = Arc::new(AtomicUsize::new(0));
    const N: usize = 100;
    for _ in 0..N {
        domain.defer_drop(Canary {
            drops: Arc::clone(&drops),
        });
    }
    assert_eq!(drops.load(Ordering::SeqCst), 0);
    domain.checkpoint();
    assert_eq!(
        drops.load(Ordering::SeqCst),
        N,
        "each canary dropped exactly once"
    );
    domain.checkpoint();
    assert_eq!(drops.load(Ordering::SeqCst), N, "no double drops");
}

#[test]
fn qsbr_array_snapshot_count_is_bounded_by_checkpointing() {
    // A resizer that checkpoints keeps pending snapshots bounded even
    // under continuous growth (the Fig. 4 memory-vs-throughput story).
    let cluster = Cluster::new(Topology::new(2, 1));
    let a: QsbrArray<u64> = QsbrArray::with_config(&cluster, Config::with_block_size(8));
    for i in 0..100 {
        a.resize(8);
        if i % 4 == 3 {
            a.checkpoint();
        }
        let pending = a.qsbr_domain().unwrap().stats().pending;
        assert!(
            pending <= 64,
            "pending snapshots unbounded: {pending} at resize {i}"
        );
    }
    // Drain (poll for coforall TLS destructors).
    for _ in 0..1000 {
        a.checkpoint();
        if a.qsbr_domain().unwrap().stats().pending == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(a.qsbr_domain().unwrap().stats().pending, 0);
}

#[test]
fn parked_thread_never_gates_array_reclamation() {
    let cluster = Cluster::new(Topology::new(1, 1));
    let a: QsbrArray<u64> = QsbrArray::with_config(&cluster, Config::with_block_size(8));
    a.resize(8);
    let domain = a.qsbr_domain().unwrap().clone();

    let parked = Arc::new(std::sync::Barrier::new(2));
    let release = Arc::new(std::sync::Barrier::new(2));
    let a2 = a.clone();
    let parked2 = Arc::clone(&parked);
    let release2 = Arc::clone(&release);
    let idler = std::thread::spawn(move || {
        let _ = a2.read(0); // participate
        a2.qsbr_domain().unwrap().park(); // then go idle
        parked2.wait();
        release2.wait();
        a2.qsbr_domain().unwrap().unpark();
        let _ = a2.read(0); // safe again after unpark
    });

    parked.wait();
    // With the idler parked, this thread's checkpoint alone reclaims.
    a.resize(8);
    let before = domain.stats().reclaimed;
    a.checkpoint();
    assert!(
        domain.stats().reclaimed > before,
        "parked thread must not block reclamation"
    );
    release.wait();
    idler.join().unwrap();
}

#[test]
fn generic_rcu_ptr_reclaims_under_both_backends() {
    struct Canary(Arc<AtomicUsize>);
    impl Drop for Canary {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }
    // Canary payloads are only dropped via retire/quiesce or final drop.
    let drops_ebr = Arc::new(AtomicUsize::new(0));
    {
        let p = RcuPtr::new(Canary(Arc::clone(&drops_ebr)), Arc::new(EpochZone::new()));
        p.replace(Canary(Arc::clone(&drops_ebr)));
        assert_eq!(drops_ebr.load(Ordering::SeqCst), 1, "EBR frees at retire");
    }
    assert_eq!(drops_ebr.load(Ordering::SeqCst), 2);

    let drops_qsbr = Arc::new(AtomicUsize::new(0));
    {
        let reclaim = Arc::new(QsbrDomain::new());
        let p = RcuPtr::new(Canary(Arc::clone(&drops_qsbr)), Arc::clone(&reclaim));
        p.replace(Canary(Arc::clone(&drops_qsbr)));
        assert_eq!(drops_qsbr.load(Ordering::SeqCst), 0, "QSBR defers");
        reclaim.quiesce();
        assert_eq!(drops_qsbr.load(Ordering::SeqCst), 1);
    }
    assert_eq!(drops_qsbr.load(Ordering::SeqCst), 2);
}

#[test]
fn exited_reader_threads_do_not_leak_or_wedge_the_domain() {
    let cluster = Cluster::new(Topology::new(1, 1));
    let a: QsbrArray<u64> = QsbrArray::with_config(&cluster, Config::with_block_size(8));
    a.resize(8);
    // Threads that read (registering as participants) and exit without
    // ever checkpointing.
    for _ in 0..8 {
        let a2 = a.clone();
        std::thread::spawn(move || {
            let _ = a2.read(0);
        })
        .join()
        .unwrap();
    }
    a.resize(8);
    // The exited threads must not be counted in the minimum.
    for _ in 0..1000 {
        a.checkpoint();
        if a.qsbr_domain().unwrap().stats().pending == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(a.qsbr_domain().unwrap().stats().pending, 0);
}

#[test]
fn epoch_zone_overflow_safety_through_the_cell() {
    // Lemma 2 at the API level: a cell whose zone sits at the epoch
    // ceiling keeps functioning across the wrap.
    let cell = RcuPtr::new(0u64, Arc::new(EpochZone::new()));
    cell.reclaimer().set_epoch_for_test(u64::MAX - 1);
    for i in 1..=10 {
        cell.update(|v| v + i);
        assert_eq!(cell.read(|v| *v), (1..=i).sum::<u64>());
    }
    // 10 writes from MAX-1 wrapped past 0.
    assert!(cell.reclaimer().epoch() < 16);
}

#[test]
fn qsbr_rcu_ptrs_reclaim_through_any_clone_of_their_domain() {
    // Two cells on two clones of one domain: a single checkpoint through
    // a third clone frees both retired values.
    let domain = QsbrDomain::new();
    let a = RcuPtr::new(1u8, Arc::new(domain.clone()));
    let b = RcuPtr::new(2u8, Arc::new(domain.clone()));
    for _ in 0..5 {
        a.update(|v| v + 1);
        b.update(|v| v + 1);
    }
    assert_eq!(domain.clone().checkpoint(), 10);
    assert_eq!((a.read(|v| *v), b.read(|v| *v)), (6, 7));
    assert_eq!(domain.stats().pending, 0);
}

#[test]
fn rcu_ptr_updates_respect_the_backlog_cap_under_a_stalled_reader() {
    // A byte-capped QSBR domain with one participant that registers and
    // then never checkpoints: every update must go through the pressure
    // ladder (writer-help, then the blocking fallback), so the backlog
    // stays within the cap plus one retire while stall detection
    // quarantines the staller.
    type Payload = [u64; 8];
    const CAP: u64 = 1024;
    let slack = std::mem::size_of::<Payload>() as u64;
    let domain = QsbrDomain::new();
    domain.set_pressure(PressureConfig::bounded(CAP));
    domain.set_stall_policy(StallPolicy::after(1, 2));
    let cell = RcuPtr::new([0u64; 8], Arc::new(domain.clone()));

    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let staller = {
        let domain = domain.clone();
        std::thread::spawn(move || {
            domain.register_current_thread();
            ready_tx.send(()).unwrap();
            done_rx.recv().unwrap();
            domain.checkpoint();
        })
    };
    ready_rx.recv().unwrap();

    let mut peak = 0u64;
    for i in 0..200u64 {
        cell.update(|v| {
            let mut next: Payload = *v;
            next[0] = i;
            next
        });
        peak = peak.max(domain.reclaim_stats().pending_bytes);
    }
    assert_eq!(cell.read(|v| v[0]), 199);
    assert!(
        peak <= CAP + slack,
        "RcuPtr backlog escaped its cap: peak {peak} > {CAP} + {slack}"
    );

    done_tx.send(()).unwrap();
    staller.join().unwrap();
    for _ in 0..1000 {
        domain.checkpoint();
        if domain.stats().pending == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(domain.stats().pending, 0);
}
