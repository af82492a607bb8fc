//! The artifact gate's listing (`gate.rs`): its manifest names exactly
//! the committed JSON files, and each is in `tango-obs`'s canonical form.

mod gate;

#[test]
fn committed_artifacts_are_canonical_json() {
    gate::listed_and_canonical();
}
