//! The conformance + Wing–Gong suite of `linearizability.rs` over a
//! second, disjoint set of seeds. The binary is named for the switch it
//! once set to force every lookup down the generic locate loop; reads
//! now have that one path, so what it adds is more histories.

#[path = "common/harness.rs"]
mod harness;

#[test]
fn sequential_model_equivalence() {
    harness::sequential_model_equivalence(0x0FF5);
}

#[test]
fn concurrent_histories_linearize() {
    harness::concurrent_histories_linearize(101..113);
}

#[test]
fn snapshot_reads_match_model() {
    harness::snapshot_reads_match_model(0x0FF5);
}
