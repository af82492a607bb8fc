//! The in-band cooperation feedback message.
//!
//! Tango's routing decision at edge A is driven by edge B's receive-side
//! measurements of the A→B paths (§3: the cooperating networks share
//! what they see). This module is the wire format of that sharing: a
//! compact per-path digest the receiving switch periodically sends back
//! inside a Tango tunnel packet flagged `REPORT`. With this channel, the
//! cooperative feedback pays real network latency instead of the
//! zero-delay shared-memory idealization (both modes are supported; see
//! `switch::FeedbackMode`).
//!
//! Wire layout (big-endian):
//!
//! ```text
//! version: u8 | count: u8 | count × {
//!   path_id: u16 | samples: u64 | owd_ewma_ns: i64 |
//!   jitter_ns: u64 | loss_ppm: u32 | staleness_ns: u64
//! }
//! ```

use crate::policy::PathSnapshot;
use std::collections::BTreeMap;

/// Report wire-format version.
pub const REPORT_VERSION: u8 = 1;
/// Bytes per record.
const RECORD_LEN: usize = 2 + 8 + 8 + 8 + 4 + 8;
/// Sentinel for "never delivered" staleness.
const STALENESS_NONE: u64 = u64::MAX;

/// One path's digest inside a report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathRecord {
    /// Which path (tunnel id).
    pub path_id: u16,
    /// Samples observed so far.
    pub samples: u64,
    /// Smoothed one-way delay, ns (receiver-clock-relative; meaningful
    /// for relative comparisons, like everything else in Tango).
    pub owd_ewma_ns: i64,
    /// Rolling 1-second std-dev, ns.
    pub jitter_ns: u64,
    /// Loss rate in parts per million.
    pub loss_ppm: u32,
    /// Staleness relative to the freshest path, ns (`u64::MAX` = never
    /// delivered).
    pub staleness_ns: u64,
}

impl PathRecord {
    /// Convert to the policy-facing snapshot.
    pub fn to_snapshot(self) -> PathSnapshot {
        PathSnapshot {
            owd_ewma_ns: if self.samples > 0 {
                Some(self.owd_ewma_ns as f64)
            } else {
                None
            },
            last_owd_ns: None, // not carried: the EWMA is the feedback signal
            jitter_ns: if self.samples > 0 {
                Some(self.jitter_ns as f64)
            } else {
                None
            },
            loss_rate: f64::from(self.loss_ppm) / 1e6,
            samples: self.samples,
            staleness_ns: if self.staleness_ns == STALENESS_NONE {
                None
            } else {
                Some(self.staleness_ns)
            },
            // Not carried on the wire: the receiving switch overlays its
            // own locally-clocked progress tracking (see `snapshots`).
            silence_ns: None,
        }
    }
}

/// A full measurement report.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MeasurementReport {
    /// Per-path digests (at most 255 per report).
    pub records: Vec<PathRecord>,
}

/// Report decode errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportError {
    /// Buffer too short for the declared record count.
    Truncated,
    /// Unknown version byte.
    Version,
}

impl core::fmt::Display for ReportError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ReportError::Truncated => write!(f, "truncated report"),
            ReportError::Version => write!(f, "unknown report version"),
        }
    }
}

impl std::error::Error for ReportError {}

impl MeasurementReport {
    /// Encode to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let n = self.records.len().min(255);
        let mut out = Vec::with_capacity(2 + n * RECORD_LEN);
        out.push(REPORT_VERSION);
        out.push(n as u8);
        for r in self.records.iter().take(n) {
            out.extend_from_slice(&r.path_id.to_be_bytes());
            out.extend_from_slice(&r.samples.to_be_bytes());
            out.extend_from_slice(&r.owd_ewma_ns.to_be_bytes());
            out.extend_from_slice(&r.jitter_ns.to_be_bytes());
            out.extend_from_slice(&r.loss_ppm.to_be_bytes());
            out.extend_from_slice(&r.staleness_ns.to_be_bytes());
        }
        out
    }

    /// Decode from bytes. Every read is bounds-checked, so a truncated
    /// or corrupted report yields `Err`, never a panic.
    pub fn decode(data: &[u8]) -> Result<Self, ReportError> {
        fn take<'a, const N: usize>(data: &mut &'a [u8]) -> Result<&'a [u8; N], ReportError> {
            if data.len() < N {
                return Err(ReportError::Truncated);
            }
            let (head, rest) = data.split_at(N);
            *data = rest;
            // Infallible after the length check above.
            head.try_into().map_err(|_| ReportError::Truncated)
        }
        let mut cursor = data;
        let [version, count] = *take(&mut cursor)?;
        if version != REPORT_VERSION {
            return Err(ReportError::Version);
        }
        let n = usize::from(count);
        if data.len() < 2 + n * RECORD_LEN {
            return Err(ReportError::Truncated);
        }
        let mut records = Vec::with_capacity(n);
        for _ in 0..n {
            records.push(PathRecord {
                path_id: u16::from_be_bytes(*take(&mut cursor)?),
                samples: u64::from_be_bytes(*take(&mut cursor)?),
                owd_ewma_ns: i64::from_be_bytes(*take(&mut cursor)?),
                jitter_ns: u64::from_be_bytes(*take(&mut cursor)?),
                loss_ppm: u32::from_be_bytes(*take(&mut cursor)?),
                staleness_ns: u64::from_be_bytes(*take(&mut cursor)?),
            });
        }
        Ok(MeasurementReport { records })
    }

    /// The snapshots a controller consumes.
    pub fn to_snapshots(&self) -> BTreeMap<u16, PathSnapshot> {
        self.records
            .iter()
            .map(|r| (r.path_id, r.to_snapshot()))
            .collect()
    }
}

/// Build a report from a stats sink (receiver side): its per-path view
/// ([`crate::StatsSink::snapshots`]), quantized.
pub fn report_from_sink(sink: &crate::stats::StatsSink) -> MeasurementReport {
    let records = sink
        .snapshots()
        .map(|(path_id, s)| PathRecord {
            path_id,
            samples: s.samples,
            owd_ewma_ns: s.owd_ewma_ns.unwrap_or(0.0) as i64,
            jitter_ns: s.jitter_ns.unwrap_or(0.0) as u64,
            loss_ppm: (s.loss_rate * 1e6) as u32,
            staleness_ns: s.staleness_ns.unwrap_or(STALENESS_NONE),
        })
        .collect();
    MeasurementReport { records }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> MeasurementReport {
        MeasurementReport {
            records: vec![
                PathRecord {
                    path_id: 0,
                    samples: 1234,
                    owd_ewma_ns: 36_500_000,
                    jitter_ns: 60_000,
                    loss_ppm: 0,
                    staleness_ns: 0,
                },
                PathRecord {
                    path_id: 2,
                    samples: 1200,
                    owd_ewma_ns: -5_000, // negative EWMA: legal with clock offsets
                    jitter_ns: 10_000,
                    loss_ppm: 150_000,
                    staleness_ns: STALENESS_NONE,
                },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let r = sample_report();
        assert_eq!(MeasurementReport::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    fn empty_roundtrip() {
        let r = MeasurementReport::default();
        let bytes = r.encode();
        assert_eq!(bytes, vec![REPORT_VERSION, 0]);
        assert_eq!(MeasurementReport::decode(&bytes).unwrap(), r);
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let bytes = sample_report().encode();
        for cut in 0..bytes.len() {
            assert_eq!(
                MeasurementReport::decode(&bytes[..cut]),
                Err(ReportError::Truncated),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn version_checked() {
        let mut bytes = sample_report().encode();
        bytes[0] = 99;
        assert_eq!(MeasurementReport::decode(&bytes), Err(ReportError::Version));
    }

    #[test]
    fn snapshot_conversion() {
        let r = sample_report();
        let snaps = r.to_snapshots();
        let p0 = &snaps[&0];
        assert_eq!(p0.owd_ewma_ns, Some(36_500_000.0));
        assert_eq!(p0.loss_rate, 0.0);
        assert_eq!(p0.staleness_ns, Some(0));
        let p2 = &snaps[&2];
        assert_eq!(p2.owd_ewma_ns, Some(-5_000.0));
        assert!((p2.loss_rate - 0.15).abs() < 1e-9);
        assert_eq!(p2.staleness_ns, None, "sentinel maps to None");
    }

    #[test]
    fn zero_sample_record_yields_unmeasured_snapshot() {
        let rec = PathRecord {
            path_id: 7,
            samples: 0,
            owd_ewma_ns: 0,
            jitter_ns: 0,
            loss_ppm: 0,
            staleness_ns: STALENESS_NONE,
        };
        let s = rec.to_snapshot();
        assert_eq!(s.owd_ewma_ns, None);
        assert_eq!(s.jitter_ns, None);
        assert_eq!(s.samples, 0);
    }

    #[test]
    fn from_sink_builds_consistent_records() {
        let mut sink = crate::stats::StatsSink::new();
        sink.register_path(0, "NTT");
        sink.register_path(1, "GTT");
        for i in 0..50u32 {
            sink.path_mut(0)
                .record_owd(u64::from(i) * 10_000_000, 36_500_000.0, i, true);
        }
        for i in 0..40u32 {
            sink.path_mut(1)
                .record_owd(u64::from(i) * 10_000_000, 28_150_000.0, i, true);
        }
        let report = report_from_sink(&sink);
        assert_eq!(report.records.len(), 2);
        let snaps = report.to_snapshots();
        assert_eq!(snaps[&0].staleness_ns, Some(0), "freshest path");
        assert_eq!(
            snaps[&1].staleness_ns,
            Some(100_000_000),
            "10 samples behind"
        );
        assert!((snaps[&0].owd_ewma_ns.unwrap() - 36_500_000.0).abs() < 2.0);
    }
}
