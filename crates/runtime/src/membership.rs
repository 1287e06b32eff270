//! Cluster membership: a probe-driven failure detector and epoch-numbered
//! membership views.
//!
//! The paper evaluates RCUArray on a healthy machine; the fault layer
//! (DESIGN.md §5c) can down locales and partition links, but until now
//! nothing in the stack *tracked* which locales are reachable — every
//! caller rediscovered failures one `CommError::LocaleDown` at a time.
//! This module centralizes that knowledge:
//!
//! * **Heartbeats ride the data path.** A probe is an ordinary
//!   1-byte PUT sent through [`CommLayer`](crate::comm::CommLayer), so it
//!   is subject to the same fault plan, latency model and accounting as
//!   data traffic. There is no side channel that could disagree with
//!   what the data path experiences.
//! * **Deadlines are counted in probe rounds, not wall-clock time.** A
//!   locale moves `Up → Suspect` after `suspect_after` consecutive
//!   missed probes and `Suspect → Down` after `down_after`. Because
//!   probes consume the fault plan's seeded counter-mode streams, the
//!   detector's timing is deterministic for a given seed: the nightly
//!   chaos loop replays the exact transition schedule.
//! * **State machine:** `Up → Suspect → Down → Rejoining → Up`. A probe
//!   answered by a `Down` locale moves it to `Rejoining`, but the locale
//!   is *not* re-admitted to views until the recovery layer calls
//!   [`Membership::mark_caught_up`] — a rejoiner first replays the
//!   snapshot publishes and replica writes it missed.
//! * **Views are epoch-numbered.** Every transition bumps the epoch, so
//!   two observers can order the views they hold, and a resize can tell
//!   "the view I planned block homes with" from "the view now".
//!
//! Nothing probes in the background: detection advances only when
//! [`Cluster::probe_membership`](crate::Cluster::probe_membership) runs.
//! A cluster that never probes keeps every locale `Up` forever and
//! behaves exactly as it did before this module existed.

use crate::fault::MAX_FAULT_LOCALES;
use crate::locale::LocaleId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Health of one locale as seen by the failure detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocaleHealth {
    /// Answering probes; full member of every view.
    Up,
    /// Missed at least `suspect_after` consecutive probes. Still a view
    /// member (new blocks are still placed on it) but one deadline away
    /// from eviction.
    Suspect,
    /// Missed `down_after` consecutive probes. Excluded from views:
    /// resizes skip it, reads fail over to replicas, recovery
    /// re-replicates its blocks.
    Down,
    /// Answered a probe after being `Down`. Reachable again but stale;
    /// excluded from views until [`Membership::mark_caught_up`].
    Rejoining,
}

impl LocaleHealth {
    /// Whether this state participates in membership views (resize
    /// publishes, placement of new blocks).
    #[inline]
    pub fn in_view(self) -> bool {
        matches!(self, LocaleHealth::Up | LocaleHealth::Suspect)
    }
}

/// An immutable, epoch-numbered snapshot of cluster membership.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipView {
    epoch: u64,
    states: Vec<LocaleHealth>,
}

impl MembershipView {
    /// The epoch this view was taken at. Strictly increases across
    /// state transitions; equal epochs mean identical views.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Health of one locale in this view.
    #[inline]
    pub fn health(&self, l: LocaleId) -> LocaleHealth {
        self.states[l.index()]
    }

    /// Whether `l` is a member of this view (`Up` or `Suspect`).
    #[inline]
    pub fn in_view(&self, l: LocaleId) -> bool {
        self.states[l.index()].in_view()
    }

    /// Locales that are members of this view, in id order.
    pub fn members(&self) -> Vec<LocaleId> {
        (0..self.states.len())
            .filter(|&i| self.states[i].in_view())
            .map(|i| LocaleId::new(i as u32))
            .collect()
    }

    /// Number of view members.
    #[inline]
    pub fn num_members(&self) -> usize {
        self.states.iter().filter(|s| s.in_view()).count()
    }

    /// Total locales the view covers (members or not).
    #[inline]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True when the view covers no locales (never for a real cluster).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }
}

struct DetectorState {
    states: Vec<LocaleHealth>,
    /// Consecutive missed probes per locale; reset by any answered probe.
    misses: Vec<u32>,
}

/// The failure detector: per-locale health driven by probe outcomes.
///
/// Owned by [`Cluster`](crate::Cluster); shared references reach it via
/// [`Cluster::membership`](crate::Cluster::membership).
pub struct Membership {
    inner: Mutex<DetectorState>,
    /// Mirror of "state == Up" as a bitmask for lock-free hot-path
    /// queries ([`is_up`](Self::is_up)); same layout as the fault
    /// plan's down mask.
    up_mask: AtomicU64,
    epoch: AtomicU64,
    /// Consecutive misses before `Up → Suspect`.
    suspect_after: u32,
    /// Consecutive misses before `Suspect → Down`.
    down_after: u32,
}

impl Membership {
    /// A detector over `n` locales, all initially `Up`. Deadlines default
    /// to 1 missed probe for suspicion and 2 for eviction.
    pub fn new(n: usize) -> Membership {
        assert!((1..=MAX_FAULT_LOCALES).contains(&n));
        Membership {
            inner: Mutex::new(DetectorState {
                states: vec![LocaleHealth::Up; n],
                misses: vec![0; n],
            }),
            up_mask: AtomicU64::new(mask_all(n)),
            epoch: AtomicU64::new(0),
            suspect_after: 1,
            down_after: 2,
        }
    }

    /// A detector with explicit deadlines (in consecutive missed
    /// probes). `suspect_after >= 1`, `down_after > suspect_after`.
    pub fn with_deadlines(n: usize, suspect_after: u32, down_after: u32) -> Membership {
        assert!(suspect_after >= 1, "suspicion needs at least one miss");
        assert!(down_after > suspect_after, "eviction must follow suspicion");
        Membership {
            suspect_after,
            down_after,
            ..Membership::new(n)
        }
    }

    /// Number of locales covered.
    pub fn num_locales(&self) -> usize {
        self.inner.lock().expect("membership poisoned").states.len()
    }

    /// Lock-free fast path: is `l` currently `Up`? (`Suspect` is not
    /// `Up`: the hot read path starts failing over as soon as the
    /// detector has any reason to doubt the primary.)
    #[inline]
    pub fn is_up(&self, l: LocaleId) -> bool {
        self.up_mask.load(Ordering::Acquire) & (1u64 << l.index()) != 0
    }

    /// The current epoch without materializing a view.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Snapshot the current view.
    pub fn view(&self) -> MembershipView {
        let st = self.inner.lock().expect("membership poisoned");
        MembershipView {
            epoch: self.epoch.load(Ordering::Acquire),
            states: st.states.clone(),
        }
    }

    /// Record the outcome of one probe of `l`. Returns the new health.
    ///
    /// Called by [`Cluster::probe_membership`](crate::Cluster::probe_membership);
    /// exposed so harnesses can drive the state machine directly.
    pub fn record_probe(&self, l: LocaleId, answered: bool) -> LocaleHealth {
        let mut st = self.inner.lock().expect("membership poisoned");
        let i = l.index();
        let old = st.states[i];
        let new = if answered {
            st.misses[i] = 0;
            match old {
                // A reachable Down locale is stale, not healthy: it must
                // catch up before views re-admit it.
                LocaleHealth::Down => LocaleHealth::Rejoining,
                LocaleHealth::Rejoining => LocaleHealth::Rejoining,
                _ => LocaleHealth::Up,
            }
        } else {
            st.misses[i] = st.misses[i].saturating_add(1);
            let m = st.misses[i];
            match old {
                // A rejoiner that stops answering goes straight back to
                // Down: it was already evicted from views.
                LocaleHealth::Down | LocaleHealth::Rejoining => LocaleHealth::Down,
                _ if m >= self.down_after => LocaleHealth::Down,
                _ if m >= self.suspect_after => LocaleHealth::Suspect,
                _ => old,
            }
        };
        self.transition(&mut st, i, old, new);
        new
    }

    /// Re-admit a `Rejoining` locale after recovery has replayed the
    /// state it missed. No-op in any other state (the detector may have
    /// re-evicted it while recovery ran).
    pub fn mark_caught_up(&self, l: LocaleId) {
        let mut st = self.inner.lock().expect("membership poisoned");
        let i = l.index();
        if st.states[i] == LocaleHealth::Rejoining {
            st.misses[i] = 0;
            self.transition(&mut st, i, LocaleHealth::Rejoining, LocaleHealth::Up);
        }
    }

    fn transition(&self, st: &mut DetectorState, i: usize, old: LocaleHealth, new: LocaleHealth) {
        if old == new {
            return;
        }
        st.states[i] = new;
        let bit = 1u64 << i;
        if new == LocaleHealth::Up {
            self.up_mask.fetch_or(bit, Ordering::AcqRel);
        } else {
            self.up_mask.fetch_and(!bit, Ordering::AcqRel);
        }
        // Bumped under the lock, so epochs order transitions totally.
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }
}

impl std::fmt::Debug for Membership {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let v = self.view();
        f.debug_struct("Membership")
            .field("epoch", &v.epoch)
            .field("states", &v.states)
            .finish()
    }
}

fn mask_all(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L0: LocaleId = LocaleId::ZERO;
    fn l(i: u32) -> LocaleId {
        LocaleId::new(i)
    }

    #[test]
    fn fresh_detector_has_everyone_up_at_epoch_zero() {
        let m = Membership::new(4);
        let v = m.view();
        assert_eq!(v.epoch(), 0);
        assert_eq!(v.num_members(), 4);
        for i in 0..4 {
            assert!(m.is_up(l(i)));
            assert_eq!(v.health(l(i)), LocaleHealth::Up);
        }
        assert_eq!(v.members(), vec![l(0), l(1), l(2), l(3)]);
    }

    #[test]
    fn misses_walk_the_deadline_ladder() {
        let m = Membership::with_deadlines(3, 1, 3);
        assert_eq!(m.record_probe(l(1), false), LocaleHealth::Suspect);
        assert!(!m.is_up(l(1)), "suspects leave the fast-path mask");
        assert!(m.view().in_view(l(1)), "suspects stay view members");
        assert_eq!(m.record_probe(l(1), false), LocaleHealth::Suspect);
        assert_eq!(m.record_probe(l(1), false), LocaleHealth::Down);
        let v = m.view();
        assert!(!v.in_view(l(1)));
        assert_eq!(v.members(), vec![l(0), l(2)]);
        assert_eq!(v.num_members(), 2);
    }

    #[test]
    fn answered_probe_recovers_a_suspect_without_rejoin() {
        let m = Membership::new(2);
        assert_eq!(m.record_probe(l(1), false), LocaleHealth::Suspect);
        assert_eq!(m.record_probe(l(1), true), LocaleHealth::Up);
        assert!(m.is_up(l(1)));
    }

    #[test]
    fn down_locale_rejoins_only_after_catch_up() {
        let m = Membership::new(2);
        m.record_probe(l(1), false);
        m.record_probe(l(1), false);
        assert_eq!(m.view().health(l(1)), LocaleHealth::Down);
        // Reachable again: Rejoining, but still excluded from views.
        assert_eq!(m.record_probe(l(1), true), LocaleHealth::Rejoining);
        assert!(!m.view().in_view(l(1)));
        assert!(!m.is_up(l(1)));
        // Recovery finishes; only now is it a member again.
        m.mark_caught_up(l(1));
        assert_eq!(m.view().health(l(1)), LocaleHealth::Up);
        assert!(m.is_up(l(1)));
    }

    #[test]
    fn rejoiner_that_goes_silent_falls_back_to_down() {
        let m = Membership::new(2);
        m.record_probe(l(1), false);
        m.record_probe(l(1), false);
        m.record_probe(l(1), true);
        assert_eq!(m.view().health(l(1)), LocaleHealth::Rejoining);
        assert_eq!(m.record_probe(l(1), false), LocaleHealth::Down);
        m.mark_caught_up(l(1)); // no-op: not Rejoining anymore
        assert_eq!(m.view().health(l(1)), LocaleHealth::Down);
    }

    #[test]
    fn every_transition_bumps_the_epoch_and_stability_does_not() {
        let m = Membership::new(3);
        assert_eq!(m.epoch(), 0);
        m.record_probe(l(2), true); // Up → Up: no transition
        assert_eq!(m.epoch(), 0);
        m.record_probe(l(2), false); // → Suspect
        assert_eq!(m.epoch(), 1);
        m.record_probe(l(2), false); // → Down
        assert_eq!(m.epoch(), 2);
        m.record_probe(l(2), false); // Down → Down: no transition
        assert_eq!(m.epoch(), 2);
        m.record_probe(l(2), true); // → Rejoining
        assert_eq!(m.epoch(), 3);
        m.mark_caught_up(l(2)); // → Up
        assert_eq!(m.epoch(), 4);
        assert!(m.is_up(l(2)));
        assert!(m.is_up(L0));
    }

    #[test]
    #[should_panic(expected = "eviction must follow suspicion")]
    fn deadlines_must_be_ordered() {
        let _ = Membership::with_deadlines(2, 2, 2);
    }
}
