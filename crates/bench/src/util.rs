//! Shared experiment plumbing: the seeded sweeps' options, result
//! directory, table printing, number formatting.

use std::path::PathBuf;

/// Options of a seeded sweep — `experiments telemetry`, `chaos` and
/// `trace`, which differ only in scenario, artifact and default seeds.
pub struct SweepOptions {
    /// Seeds to sweep, in order: each an independent simulation with its
    /// own rows and files in the output.
    pub seeds: Vec<u64>,
    /// `trace` only: a causal query to answer for the one seed instead
    /// of writing artifacts.
    pub query: Option<String>,
    /// Artifact directory override (`--out`); `None` = `results/`.
    pub out: Option<PathBuf>,
}

impl SweepOptions {
    /// A subcommand's defaults: its own seed list, `results/`.
    pub fn new(seeds: &[u64]) -> Self {
        SweepOptions {
            seeds: seeds.to_vec(),
            query: None,
            out: None,
        }
    }
}

/// The artifact directory for a subcommand run, created on demand: the
/// `--out` override when given, else `results/` under the working
/// directory. Subcommands that write more than one artifact (chaos) keep
/// their fixed file names inside it.
pub fn out_dir(out: &Option<PathBuf>) -> PathBuf {
    let dir = out.clone().unwrap_or_else(|| PathBuf::from("results"));
    std::fs::create_dir_all(&dir).expect("create the artifact dir");
    dir
}

/// Print a fixed-width table: header row then data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", c, w = widths[i.min(widths.len() - 1)]));
        }
        println!("{}", out.trim_end());
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// `count` per second of `wall_ns` wall-clock, truncated to an integer
/// (the timing sidecars' rate unit).
pub fn per_s(count: u64, wall_ns: u64) -> u64 {
    let rate = u128::from(count) * 1_000_000_000 / u128::from(wall_ns.max(1));
    u64::try_from(rate).unwrap_or(u64::MAX)
}

/// Format a float with the given decimals.
pub fn fmt(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use tango_obs::Value;

    /// `key` of a parsed artifact object; panics when it is missing.
    pub(crate) fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        match v {
            Value::Obj(m) => m.get(key).unwrap_or_else(|| panic!("no `{key}` in {v:?}")),
            other => panic!("looked up `{key}` in a non-object {other:?}"),
        }
    }

    /// The elements of a parsed artifact array.
    pub(crate) fn items(v: &Value) -> &[Value] {
        match v {
            Value::Arr(a) => a,
            other => panic!("expected an array, found {other:?}"),
        }
    }

    #[test]
    fn fmt_decimals() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(fmt(28.0, 1), "28.0");
    }

    #[test]
    fn per_s_truncates_and_saturates() {
        assert_eq!(per_s(3, 2_000_000_000), 1);
        assert_eq!(per_s(20_000, 0), 20_000_000_000_000);
        assert_eq!(per_s(u64::MAX, 1), u64::MAX);
    }

    #[test]
    fn results_dir_exists_after_call() {
        // An `--out` directory: the default `results/` would land in the
        // source tree, under the crate the test runs in.
        let dir = std::env::temp_dir().join(format!("tango-bench-util-{}", std::process::id()));
        let d = out_dir(&Some(dir.clone()));
        assert_eq!(d, dir);
        assert!(d.exists());
        std::fs::remove_dir_all(&d).expect("remove the test's --out dir");
    }
}
