//! Lint fixture: rule 7 (`forget-guard`). A read guard leaked with
//! `mem::forget` never ends its critical section, so the reclamation
//! backlog behind it grows forever. Not compiled — exercised by the
//! lint CLI tests via an explicit path argument.

fn leak_a_guard(zone: &EpochZone) {
    let guard = zone.read_lock();
    std::mem::forget(guard);
}
