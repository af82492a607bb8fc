//! Fixture: a hot-path dataplane module that *spells* `tango` — as a
//! local, a field and a struct-literal key — but never names the core
//! crate. Its bare `.lookup(…)` call must not link into `crates/core`:
//! core depends on dataplane, so that edge cannot exist.

pub struct Decapsulated {
    pub tango: u64,
}

pub fn on_packet(rows: &Rows, raw: u64) -> u64 {
    let tango = raw + 1;
    let d = Decapsulated { tango };
    let tango_pkt = Decapsulated { tango: d.tango };
    rows.lookup(tango_pkt.tango)
}
