// Lint fixture (rule 9): a raw `CommLayer::record_*` call outside
// `crates/runtime/`. The fixture lives under a `crates/baselines/`
// path inside the fixtures tree so rule 9's path scoping matches, while
// the `fixtures` directory itself is skipped by the normal lint walk.

fn bypass_comm_layer_send(cluster: &Cluster, from: LocaleId, to: LocaleId) {
    // Should be `cluster.send_to(to, CommMessage::Get { bytes: 8 })`.
    let _ = cluster.comm().record_get(from, to, 8);
}
