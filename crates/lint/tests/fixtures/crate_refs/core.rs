//! Fixture: a core-crate method that indexes — harmless at set-up time,
//! a `hot-path-panic` finding only if a hot-path module can call it.

pub struct Table {
    rows: Vec<u64>,
}

impl Table {
    pub fn lookup(&self, i: u64) -> u64 {
        self.rows[i as usize]
    }
}
