//! Every array variant in the workspace — RCUArray under EBR and QSBR,
//! plus the two standalone comparators — must compute
//! identical results for identical deterministic workloads. Performance
//! differs; semantics must not.

use rcuarray_repro::prelude::*;
use std::sync::Arc;

/// A uniform driver over each variant's inherent API.
struct Variant {
    name: &'static str,
    read: Box<dyn Fn(usize) -> u64>,
    write: Box<dyn Fn(usize, u64)>,
    resize: Box<dyn Fn(usize)>,
    capacity: Box<dyn Fn() -> usize>,
}

fn variants(cluster: &Arc<Cluster>) -> Vec<Variant> {
    let cfg = Config::with_block_size(16);
    let ebr = Arc::new(EbrArray::<u64>::with_config(cluster, cfg));
    let qsbr = Arc::new(QsbrArray::<u64>::with_config(cluster, cfg));
    let unsafe_a = Arc::new(UnsafeArray::<u64>::new(cluster));
    let sync_a = Arc::new(SyncArray::<u64>::new(cluster));

    vec![
        Variant {
            name: "EbrArray",
            read: {
                let a = Arc::clone(&ebr);
                Box::new(move |i| a.read(i))
            },
            write: {
                let a = Arc::clone(&ebr);
                Box::new(move |i, v| a.write(i, v))
            },
            resize: {
                let a = Arc::clone(&ebr);
                Box::new(move |n| {
                    a.resize(n);
                })
            },
            capacity: {
                let a = ebr;
                Box::new(move || a.capacity())
            },
        },
        Variant {
            name: "QsbrArray",
            read: {
                let a = Arc::clone(&qsbr);
                Box::new(move |i| a.read(i))
            },
            write: {
                let a = Arc::clone(&qsbr);
                Box::new(move |i, v| a.write(i, v))
            },
            resize: {
                let a = Arc::clone(&qsbr);
                Box::new(move |n| {
                    a.resize(n);
                })
            },
            capacity: {
                let a = qsbr;
                Box::new(move || a.capacity())
            },
        },
        Variant {
            name: "UnsafeArray",
            read: {
                let a = Arc::clone(&unsafe_a);
                Box::new(move |i| a.read(i))
            },
            write: {
                let a = Arc::clone(&unsafe_a);
                Box::new(move |i, v| a.write(i, v))
            },
            // Match RCUArray's block rounding so capacities line up.
            resize: {
                let a = Arc::clone(&unsafe_a);
                Box::new(move |n| {
                    a.resize(n.div_ceil(16) * 16);
                })
            },
            capacity: {
                let a = unsafe_a;
                Box::new(move || a.capacity())
            },
        },
        Variant {
            name: "SyncArray",
            read: {
                let a = Arc::clone(&sync_a);
                Box::new(move |i| a.read(i))
            },
            write: {
                let a = Arc::clone(&sync_a);
                Box::new(move |i, v| a.write(i, v))
            },
            resize: {
                let a = Arc::clone(&sync_a);
                Box::new(move |n| {
                    a.resize(n.div_ceil(16) * 16);
                })
            },
            capacity: {
                let a = sync_a;
                Box::new(move || a.capacity())
            },
        },
    ]
}

#[test]
fn all_five_variants_agree_on_a_deterministic_workload() {
    let cluster = Cluster::new(Topology::new(2, 1));
    let vs = variants(&cluster);

    // The workload: interleaved growth, writes and reads.
    let mut logs: Vec<Vec<u64>> = vec![Vec::new(); vs.len()];
    for (k, v) in vs.iter().enumerate() {
        (v.resize)(32);
        for step in 0..400u64 {
            let cap = (v.capacity)();
            let idx = (step as usize * 13) % cap;
            match step % 5 {
                0 | 1 => (v.write)(idx, step * 7),
                2 | 3 => logs[k].push((v.read)(idx)),
                _ => {
                    if cap < 256 {
                        (v.resize)(16);
                        logs[k].push((v.capacity)() as u64);
                    }
                }
            }
        }
    }

    for (k, v) in vs.iter().enumerate().skip(1) {
        assert_eq!(logs[0], logs[k], "{} disagrees with {}", v.name, vs[0].name);
        assert_eq!((vs[0].capacity)(), (v.capacity)(), "{} capacity", v.name);
    }

    // Full-content comparison.
    let reference: Vec<u64> = (0..(vs[0].capacity)()).map(|i| (vs[0].read)(i)).collect();
    for v in vs.iter().skip(1) {
        let content: Vec<u64> = (0..(v.capacity)()).map(|i| (v.read)(i)).collect();
        assert_eq!(reference, content, "{} content mismatch", v.name);
    }
}

#[test]
fn zero_initialization_is_universal() {
    let cluster = Cluster::new(Topology::new(3, 1));
    for v in variants(&cluster) {
        (v.resize)(48);
        for i in 0..48 {
            assert_eq!((v.read)(i), 0, "{}[{i}] not zero-initialized", v.name);
        }
    }
}

#[test]
fn growth_preserves_content_in_every_variant() {
    let cluster = Cluster::new(Topology::new(2, 1));
    for v in variants(&cluster) {
        (v.resize)(16);
        for i in 0..16 {
            (v.write)(i, 1000 + i as u64);
        }
        (v.resize)(64);
        for i in 0..16 {
            assert_eq!((v.read)(i), 1000 + i as u64, "{} lost data on grow", v.name);
        }
    }
}
