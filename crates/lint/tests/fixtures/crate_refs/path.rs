//! Fixture: the same hot-path module, but it really names the core
//! crate (`tango::…` path), so the bare `.lookup(…)` call may land there
//! and the callee inherits the hot-path restriction.

pub fn on_packet(rows: &Rows, raw: u64) -> u64 {
    let tango = tango::offset() + raw;
    rows.lookup(tango)
}
