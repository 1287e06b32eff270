//! The reclamation-scheme switch: the paper's `isQSBR` compile-time
//! parameter, realized as a *behavior-carrying* factory trait.
//!
//! "The implementation of RCUArray makes use of either EBR or QSBR, and
//! the required changes in implementation are minor and can be contained
//! within a single conditional using the compile-time parameter, isQSBR"
//! (§IV). Earlier revisions of this crate mirrored that literally — a
//! sealed marker trait with an `IS_QSBR` const bool that `array.rs`
//! branched on. That couples the array to every scheme it will ever
//! support. A [`Scheme`] is now a factory for [`Reclaim`] engines: the
//! array calls `protect`/`retire`/`quiesce` and never branches, so new
//! schemes ([`LeakScheme`], or the out-of-crate `HazardScheme` in
//! `rcuarray-baselines`) plug in with **zero** changes to `array.rs`.
//! The compiler still resolves everything statically — `S::Reclaim` is a
//! concrete type, exactly like Chapel's `param` specialization.

use crate::config::Config;
use rcuarray_ebr::EpochZone;
use rcuarray_qsbr::QsbrDomain;
use rcuarray_reclaim::{LeakReclaim, PressureConfig, Reclaim, StallPolicy};

/// A reclamation scheme: cluster-wide shared state plus a factory for the
/// per-locale [`Reclaim`] engines embedded in the privatized metadata.
///
/// Implementations decide the sharing topology themselves: EBR builds an
/// independent [`EpochZone`] per locale (node-local reader counters,
/// §III-D), while the QSBR scheme hands every locale a clone of
/// one shared [`QsbrDomain`] (reclamation is a runtime-wide service,
/// §III-B).
pub trait Scheme: Send + Sync + Sized + 'static {
    /// The reclamation engine one locale's privatized state embeds.
    type Reclaim: Reclaim;

    /// Scheme name for harness and Debug output ("ebr", "qsbr", ...).
    const NAME: &'static str;

    /// Build the scheme's cluster-wide shared state from the array config.
    fn new_shared(config: &Config) -> Self;

    /// The reclamation engine for one locale's privatized metadata.
    fn reclaimer(&self) -> Self::Reclaim;

    /// The shared QSBR domain, for schemes built on one (lets
    /// applications park/unpark worker threads around idle periods).
    fn domain(&self) -> Option<&QsbrDomain> {
        None
    }
}

/// Epoch-based reclamation: reads pay the TLS-free two-counter protocol
/// on a per-locale [`EpochZone`]; resizes reclaim old snapshots
/// synchronously (the paper's `EBRArray`).
#[derive(Debug)]
pub struct EbrScheme {
    pressure: PressureConfig,
    stall: StallPolicy,
}

impl Scheme for EbrScheme {
    type Reclaim = EpochZone;
    const NAME: &'static str = "ebr";

    fn new_shared(config: &Config) -> Self {
        EbrScheme {
            pressure: config.pressure,
            stall: config.stall,
        }
    }

    fn reclaimer(&self) -> EpochZone {
        // Each locale gets its own zone: reader traffic stays node-local.
        // Robustness knobs are per-zone: the bound applies to each
        // locale's evacuation backlog independently.
        let zone = EpochZone::new();
        zone.set_stall_policy(self.stall);
        zone.set_pressure(self.pressure);
        zone
    }
}

/// Quiescent-state-based reclamation: reads are unsynchronized; resizes
/// defer old snapshots to one shared domain; application threads
/// checkpoint (the paper's `QSBRArray`).
#[derive(Debug)]
pub struct QsbrScheme {
    domain: QsbrDomain,
}

impl Scheme for QsbrScheme {
    type Reclaim = QsbrDomain;
    const NAME: &'static str = "qsbr";

    fn new_shared(config: &Config) -> Self {
        let domain = QsbrDomain::new();
        // Robustness knobs are domain-wide: one backlog bound and one
        // stall policy cover every locale sharing the domain.
        domain.set_stall_policy(config.stall);
        domain.set_pressure(config.pressure);
        QsbrScheme { domain }
    }

    fn reclaimer(&self) -> QsbrDomain {
        // Clones share the domain: retirement from any locale lands in
        // one runtime-wide service.
        self.domain.clone()
    }

    fn domain(&self) -> Option<&QsbrDomain> {
        Some(&self.domain)
    }
}

/// No reclamation at all: no-op read guards, retired snapshots leak.
///
/// This is the *upper bound* scheme — the exact `UnsafeArray` comparison
/// the paper benchmarks against, but through the **identical** `RcuArray`
/// code path: any slowdown relative to `LeakScheme` is attributable to
/// the reclamation protocol, not the array structure. Only for
/// measurement and harness runs; a long-lived array under `LeakScheme`
/// grows without bound.
#[derive(Debug, Default)]
pub struct LeakScheme {
    pressure: PressureConfig,
}

impl Scheme for LeakScheme {
    type Reclaim = LeakReclaim;
    const NAME: &'static str = "leak";

    fn new_shared(config: &Config) -> Self {
        LeakScheme {
            pressure: config.pressure,
        }
    }

    fn reclaimer(&self) -> LeakReclaim {
        // A bounded leak scheme is a *retirement budget*: nothing ever
        // drains, so the cap is the total bytes the array may retire.
        LeakReclaim::with_pressure(self.pressure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcuarray_reclaim::Retired;

    #[test]
    fn names_match_reclaimers() {
        let cfg = Config::default();
        assert_eq!(EbrScheme::NAME, "ebr");
        assert_eq!(EbrScheme::new_shared(&cfg).reclaimer().name(), "ebr");
        assert_eq!(QsbrScheme::NAME, "qsbr");
        assert_eq!(QsbrScheme::new_shared(&cfg).reclaimer().name(), "qsbr");
        assert_eq!(LeakScheme::NAME, "leak");
        assert_eq!(LeakScheme::new_shared(&cfg).reclaimer().name(), "leak");
    }

    #[test]
    fn qsbr_reclaimers_share_their_scheme_domain() {
        let cfg = Config::default();
        let q = QsbrScheme::new_shared(&cfg);
        assert_eq!(q.reclaimer().id(), q.domain().unwrap().id());
    }

    #[test]
    fn per_locale_schemes_mint_independent_reclaimers() {
        let cfg = Config::default();
        let e = EbrScheme::new_shared(&cfg);
        let (z1, z2) = (e.reclaimer(), e.reclaimer());
        let _g = z1.read_lock();
        // A pin on one locale's zone must not appear on another's.
        assert_eq!(z1.reclaim_stats().guards, 1);
        assert_eq!(z2.reclaim_stats().guards, 0);
        assert!(e.domain().is_none());
        assert!(LeakScheme::new_shared(&cfg).domain().is_none());
    }

    #[test]
    fn leak_scheme_never_frees() {
        use rcuarray_analysis::atomic::{AtomicBool, Ordering};
        let l = LeakScheme::new_shared(&Config::default()).reclaimer();
        let flag = std::sync::Arc::new(AtomicBool::new(false));
        let f = std::sync::Arc::clone(&flag);
        l.retire(Retired::new(move || f.store(true, Ordering::SeqCst)));
        assert_eq!(l.quiesce(), 0);
        assert!(!flag.load(Ordering::SeqCst));
        assert_eq!(l.reclaim_stats().pending, 1);
    }
}
