//! CSV and terminal (ASCII) rendering for the experiment harness.
//!
//! Every table/figure regenerator in `tango-bench` writes a CSV (for
//! plotting) and prints an ASCII rendering (for eyeballing the shape
//! against the paper's figures).

use crate::series::TimeSeries;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Write series as CSV: `time_<unit>,<name1>,<name2>,...`. The series
/// need not share timestamps: the rows are the union of their
/// timestamps, and a series with no sample at a row's time leaves that
/// cell empty.
pub fn write_csv(
    path: &Path,
    time_header: &str,
    columns: &[(&str, &TimeSeries)],
) -> io::Result<()> {
    let mut rows: Vec<u64> = Vec::new();
    for (_, s) in columns {
        rows.extend(s.times_ns());
    }
    rows.sort_unstable();
    rows.dedup();

    let mut out = String::new();
    out.push_str(time_header);
    for (name, _) in columns {
        out.push(',');
        out.push_str(name);
    }
    out.push('\n');

    // Per-column cursor: series are time-ordered, so a linear merge works.
    let mut cursors = vec![0usize; columns.len()];
    for t in rows {
        let _ = write!(out, "{t}");
        for (ci, (_, s)) in columns.iter().enumerate() {
            out.push(',');
            let times = s.times_ns();
            let mut c = cursors[ci];
            while c < times.len() && times[c] < t {
                c += 1;
            }
            if c < times.len() && times[c] == t {
                let _ = write!(out, "{}", s.values()[c]);
                cursors[ci] = c + 1;
            } else {
                cursors[ci] = c;
            }
        }
        out.push('\n');
    }
    std::fs::write(path, out)
}

/// Render one or more series as an ASCII chart (rows = value buckets,
/// columns = time buckets; each series draws with its own glyph). This is
/// deliberately crude — it exists so `experiments fig4-left` visually
/// shows "GTT under NTT with spikes", like the paper's figure.
pub fn ascii_chart(
    columns: &[(&str, &TimeSeries)],
    width: usize,
    height: usize,
    y_label: &str,
) -> String {
    let glyphs = ['*', '+', 'o', 'x', '#', '@'];
    let (mut t_min, mut t_max) = (u64::MAX, 0u64);
    let (mut v_min, mut v_max) = (f64::INFINITY, f64::NEG_INFINITY);
    for (_, s) in columns {
        if let (Some(&t0), Some(&t1)) = (s.times_ns().first(), s.times_ns().last()) {
            t_min = t_min.min(t0);
            t_max = t_max.max(t1);
        }
        if let (Some(lo), Some(hi)) = (s.min(), s.max()) {
            v_min = v_min.min(lo);
            v_max = v_max.max(hi);
        }
    }
    if t_min > t_max || !v_min.is_finite() {
        return String::from("(no data)\n");
    }
    if v_max <= v_min {
        v_max = v_min + 1.0;
    }
    let t_span = (t_max - t_min).max(1);
    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, s)) in columns.iter().enumerate() {
        let glyph = glyphs[si % glyphs.len()];
        for (t, v) in s.iter() {
            let x = ((t - t_min) as f64 / t_span as f64 * (width - 1) as f64) as usize;
            let yf = (v - v_min) / (v_max - v_min);
            let y = height - 1 - (yf * (height - 1) as f64).round() as usize;
            grid[y][x] = glyph;
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "{y_label} [{v_min:.2} .. {v_max:.2}]");
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    out.push('+');
    out.extend(std::iter::repeat('-').take(width));
    out.push('\n');
    let mut legend = String::from(" ");
    for (si, (name, _)) in columns.iter().enumerate() {
        let _ = write!(legend, "{}={}  ", glyphs[si % glyphs.len()], name);
    }
    out.push_str(legend.trim_end());
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(pairs: &[(u64, f64)]) -> TimeSeries {
        let mut s = TimeSeries::new();
        for &(t, v) in pairs {
            s.push(t, v);
        }
        s
    }

    #[test]
    fn csv_merges_timestamps() {
        let a = ts(&[(0, 1.0), (10, 2.0)]);
        let b = ts(&[(10, 5.0), (20, 6.0)]);
        let dir = std::env::temp_dir().join("tango_measure_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("merge.csv");
        write_csv(&path, "t_ns", &[("a", &a), ("b", &b)]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "t_ns,a,b");
        assert_eq!(lines[1], "0,1,");
        assert_eq!(lines[2], "10,2,5");
        assert_eq!(lines[3], "20,,6");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn csv_empty_columns() {
        let a = TimeSeries::new();
        let dir = std::env::temp_dir().join("tango_measure_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.csv");
        write_csv(&path, "t_ns", &[("a", &a)]).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "t_ns,a\n");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn chart_renders_extremes() {
        let a = ts(&[(0, 1.0), (50, 5.0), (100, 1.0)]);
        let chart = ascii_chart(&[("a", &a)], 21, 5, "ms");
        assert!(chart.contains("[1.00 .. 5.00]"));
        // Peak row (top) has a glyph near the middle column.
        let rows: Vec<&str> = chart.lines().collect();
        assert!(rows[1].contains('*'), "top row: {:?}", rows[1]);
        assert!(chart.contains("*=a"));
    }

    #[test]
    fn chart_no_data() {
        let a = TimeSeries::new();
        assert_eq!(ascii_chart(&[("a", &a)], 10, 3, "ms"), "(no data)\n");
    }

    #[test]
    fn chart_flat_series_does_not_divide_by_zero() {
        let a = ts(&[(0, 2.0), (10, 2.0)]);
        let chart = ascii_chart(&[("a", &a)], 10, 3, "ms");
        assert!(chart.contains('*'));
    }

    #[test]
    fn chart_multiple_series_use_distinct_glyphs() {
        let a = ts(&[(0, 1.0), (10, 1.0)]);
        let b = ts(&[(0, 2.0), (10, 2.0)]);
        let chart = ascii_chart(&[("ntt", &a), ("gtt", &b)], 12, 4, "ms");
        assert!(chart.contains('*') && chart.contains('+'));
        assert!(chart.contains("*=ntt") && chart.contains("+=gtt"));
    }
}
