//! Receive-side per-path statistics.
//!
//! The receiving switch attributes every valid tunnel packet to a path,
//! computes the one-way delay `local_now − sender_timestamp`, and feeds
//! sequence numbers to a loss/reorder tracker. The resulting [`StatsSink`]
//! is shared with the *peer's* controller — the cooperation channel of
//! the architecture. We model that channel as a shared handle with zero
//! feedback delay (see DESIGN.md §5); the control loop only samples it at
//! its own cadence, so the idealization is mild.
//!
//! Every admitted sample is stored once, in [`PathStats::owd`]: its
//! value, as a varint of its delta from the previous sample (≈ 2.9 B on
//! the Vultr pairing's jittered paths, losslessly; a value that is not a
//! whole number of nanoseconds takes 9 B), plus one bit saying whether an
//! application packet carried it.
//! The application-only samples are a view over those bits
//! ([`OwdSamples::app_values`]), not a second copy. Nothing keeps a
//! sample's timestamp: every time-keyed view is state `record_owd`
//! updates as the sample arrives — the last sample time
//! ([`PathStats::last_sample_ns`]), fixed [`BIN_NS`] bins
//! ([`PathStats::bins`]) and the rolling window with its jitter metric
//! ([`PathStats::rolling`]).
//!
//! The sink is also the data plane's only tally. Its `dataplane.<as>.…`
//! telemetry is derived from it by [`StatsSink::publish`], never counted
//! a second time: a new dataplane metric is a sink field plus one line
//! there.

use crate::policy::PathSnapshot;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use tango_measure::{
    series, Ewma, IntervalAverager, PlausibilityGate, ReplayWindow, RollingWindow, SeqTracker,
};
use tango_obs::Registry;
use tango_topology::AsId;

/// Width of [`PathStats::bins`], ns: the finest any reader of the delay
/// over time uses (Fig. 4 right); coarser views merge whole bins.
pub const BIN_NS: u64 = 500_000_000;

/// Capacity of an [`OwdSamples`] column's first chunk, bytes: small, so
/// a path that carries few samples pays little.
const FIRST_CHUNK_BYTES: usize = 1 << 10;
/// Capacity of every later chunk, bytes.
const CHUNK_BYTES: usize = 16 << 10;
/// Tag of an escaped record, whose raw 8 `f64` bytes follow. A delta
/// record's tag is its zigzag delta plus one, so it is never 0.
const ESCAPE: u8 = 0;

/// Admitted one-way delays (ns) in arrival order, each with one bit
/// saying whether an application packet carried it.
///
/// The values form an append-only byte column. A sample that is an
/// exactly integral `i64` (every measured OWD is a count of
/// nanoseconds) is the LEB128 varint of its zigzag delta from the last
/// integral sample, plus one: about 3 B for a jittered path. Any other
/// bit pattern (`-0.0`, NaN, ±inf, a fraction), or a delta that does not
/// fit, is an escape byte (0) and the raw 8 bytes. The bytes live in
/// chunks that are filled to their capacity and never reallocated; a
/// record never straddles two. Decoding ([`Self::iter`]) restores every
/// bit pattern.
#[derive(Debug, Clone, Default)]
pub struct OwdSamples {
    /// The encoded records: the first chunk [`FIRST_CHUNK_BYTES`], later
    /// ones [`CHUNK_BYTES`], allocated on the push that needs them.
    chunks: Vec<Vec<u8>>,
    len: usize,
    /// The last integral sample, the base of the next delta (0 before
    /// any).
    base: i64,
    /// The last sample.
    last: f64,
    /// Bit `i` is set when sample `i` came from an app packet (word
    /// `i / 64`, bit `i % 64`).
    app: Vec<u64>,
}

/// `value` as the `i64` it is exactly (same bits back through `as f64`),
/// if it is one.
fn integral(value: f64) -> Option<i64> {
    let i = value as i64;
    ((i as f64).to_bits() == value.to_bits()).then_some(i)
}

/// One sample as the column stores it.
enum Record {
    /// Zigzag delta from the base, plus one.
    Delta(u64),
    /// Raw `f64` bits.
    Escape(u64),
}

impl Record {
    /// Encode `value` against `*base`, advancing it past an integral
    /// value.
    fn encode(value: f64, base: &mut i64) -> Record {
        let Some(i) = integral(value) else {
            return Record::Escape(value.to_bits());
        };
        let prev = std::mem::replace(base, i);
        let tag = i
            .checked_sub(prev)
            .and_then(|d| (((d << 1) ^ (d >> 63)) as u64).checked_add(1));
        tag.map_or(Record::Escape(value.to_bits()), Record::Delta)
    }

    /// Bytes the record takes: 1 per 7 bits of a tag, 9 for an escape.
    fn len(&self) -> usize {
        match *self {
            Record::Delta(tag) => (64 - tag.leading_zeros() as usize).div_ceil(7),
            Record::Escape(_) => 9,
        }
    }

    fn write(&self, out: &mut Vec<u8>) {
        match *self {
            Record::Delta(mut tag) => {
                while tag >= 0x80 {
                    out.push(tag as u8 | 0x80);
                    tag >>= 7;
                }
                out.push(tag as u8);
            }
            Record::Escape(bits) => {
                out.push(ESCAPE);
                out.extend_from_slice(&bits.to_le_bytes());
            }
        }
    }
}

impl OwdSamples {
    fn push(&mut self, value: f64, app: bool) {
        let bit = self.len % 64;
        if bit == 0 {
            self.app.push(0);
        }
        if let Some(word) = self.app.last_mut() {
            *word |= u64::from(app) << bit;
        }
        let record = Record::encode(value, &mut self.base);
        let room = self.chunks.last().map_or(0, |c| c.capacity() - c.len());
        if room < record.len() {
            let capacity = if self.chunks.is_empty() {
                FIRST_CHUNK_BYTES
            } else {
                CHUNK_BYTES
            };
            self.chunks.push(Vec::with_capacity(capacity));
        }
        if let Some(chunk) = self.chunks.last_mut() {
            record.write(chunk);
        }
        self.len += 1;
        self.last = value;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// No sample yet?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every sample's value, in arrival order, decoded without
    /// allocating.
    pub fn iter(&self) -> OwdIter<'_> {
        OwdIter {
            chunks: self.chunks.iter(),
            bytes: [].iter(),
            base: 0,
            left: self.len,
        }
    }

    /// Every sample's value, in arrival order, decoded into a `Vec`.
    pub fn values(&self) -> Vec<f64> {
        self.iter().collect()
    }

    /// The most recent sample, or None when empty.
    pub fn last(&self) -> Option<f64> {
        (self.len > 0).then_some(self.last)
    }

    /// The values of *application* packets only (what end users actually
    /// experienced on this path), in arrival order.
    pub fn app_values(&self) -> impl Iterator<Item = f64> + '_ {
        self.iter()
            .enumerate()
            .filter(|(i, _)| self.app.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1))
            .map(|(_, v)| v)
    }

    /// Mean value, or None when empty.
    pub fn mean(&self) -> Option<f64> {
        series::mean(self.iter())
    }
}

/// The decoder behind [`OwdSamples::iter`].
#[derive(Debug, Clone)]
pub struct OwdIter<'a> {
    chunks: std::slice::Iter<'a, Vec<u8>>,
    /// What is left of the current chunk.
    bytes: std::slice::Iter<'a, u8>,
    base: i64,
    left: usize,
}

impl Iterator for OwdIter<'_> {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        let mut byte = loop {
            match self.bytes.next() {
                Some(&b) => break b,
                None => self.bytes = self.chunks.next()?.iter(),
            }
        };
        self.left = self.left.saturating_sub(1);
        if byte == ESCAPE {
            let mut raw = [0; 8];
            raw.iter_mut()
                .zip(&mut self.bytes)
                .for_each(|(r, &b)| *r = b);
            let value = f64::from_le_bytes(raw);
            if let Some(i) = integral(value) {
                self.base = i;
            }
            return Some(value);
        }
        let mut tag = u64::from(byte & 0x7f);
        let mut shift = 0;
        while byte & 0x80 != 0 {
            byte = *self.bytes.next()?;
            shift += 7;
            tag |= u64::from(byte & 0x7f).wrapping_shl(shift);
        }
        let zigzag = tag.wrapping_sub(1);
        let delta = (zigzag >> 1) as i64 ^ -((zigzag & 1) as i64);
        self.base = self.base.wrapping_add(delta);
        Some(self.base as f64)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for OwdIter<'_> {}

/// Live statistics for one path (tunnel).
#[derive(Debug)]
pub struct PathStats {
    /// Display label ("NTT", "GTT", ...).
    pub label: String,
    /// Raw one-way-delay samples. Values may be offset by the constant
    /// clock skew — relative comparisons across paths remain exact
    /// (§4.2).
    pub owd: OwdSamples,
    /// The same samples in [`BIN_NS`] bins keyed by *receiver local*
    /// time: the delay over time.
    pub bins: IntervalAverager,
    /// Receiver-local time of the most recent sample in `owd`, ns.
    pub last_sample_ns: Option<u64>,
    /// Smoothed one-way delay.
    pub owd_ewma: Ewma,
    /// Rolling 1-second window, which also accumulates the paper's
    /// jitter metric ([`Self::jitter_ns`]).
    pub rolling: RollingWindow,
    /// Loss / reorder / duplicate tracking from tunnel sequence numbers.
    pub seq: SeqTracker,
    /// Packets rejected before measurement (bad checksum / header).
    pub rejected: u64,
    /// App (non-probe) packets delivered on this path.
    pub app_delivered: u64,
    /// Receiver-local time of the most recent arrival (probe or app,
    /// quarantined or not), ns. `None` until the first arrival. The
    /// health machinery's silence signal does not read it: that signal
    /// counts admitted `owd` samples.
    pub last_rx_local_ns: Option<u64>,
    /// Anti-replay window over tunnel sequence numbers (consulted only
    /// when the pairing authenticates, since without a key an attacker
    /// can forge arbitrary fresh sequence numbers anyway).
    pub replay: ReplayWindow,
    /// Plausibility gate over the OWD series: quarantines samples too
    /// far from the smoothed reference before they reach the EWMA the
    /// policies rank by.
    pub gate: PlausibilityGate,
    /// OWD samples the gate quarantined on this path.
    pub implausible_owd: u64,
}

impl PathStats {
    fn new(label: String) -> Self {
        PathStats {
            label,
            owd: OwdSamples::default(),
            bins: IntervalAverager::new(BIN_NS),
            last_sample_ns: None,
            owd_ewma: Ewma::new(0.05),
            rolling: RollingWindow::new(1_000_000_000),
            seq: SeqTracker::new(),
            rejected: 0,
            app_delivered: 0,
            last_rx_local_ns: None,
            replay: ReplayWindow::new(),
            gate: PlausibilityGate::default(),
            implausible_owd: 0,
        }
    }

    /// Record a valid measurement.
    pub fn record_owd(&mut self, rx_local_ns: u64, owd_ns: f64, sequence: u32, probe: bool) {
        self.owd.push(owd_ns, !probe);
        self.bins.push(rx_local_ns, owd_ns, !probe);
        self.last_sample_ns = Some(rx_local_ns);
        self.owd_ewma.update(owd_ns);
        self.rolling.push(rx_local_ns, owd_ns);
        self.seq.record(sequence);
        self.last_rx_local_ns = Some(rx_local_ns);
        if !probe {
            self.app_delivered += 1;
        }
    }

    /// The paper's jitter metric over every admitted sample: the mean std
    /// of the rolling 1-second window, or the whole series' std while
    /// less than one window has passed (as
    /// [`tango_measure::mean_rolling_std`]). `None` before any sample.
    pub fn jitter_ns(&self) -> Option<f64> {
        self.rolling
            .mean_std()
            .or_else(|| series::std(self.owd.iter()))
    }

    /// Record a measurement through the plausibility gate. Returns
    /// whether the OWD value was admitted into the delay views.
    ///
    /// A quarantined sample still proves the packet *arrived*: sequence
    /// tracking, `last_rx_local_ns` and app delivery counts advance
    /// regardless. The delay views (`owd`, `bins`, `last_sample_ns`,
    /// EWMA, rolling window) are withheld, and so is the silence signal,
    /// which counts `owd` samples. A poisoned timestamp cannot masquerade
    /// as path death all the same: the gate promotes a new level after
    /// `promote_after` (8) consecutive outliers, so at most 7 consecutive
    /// arrivals are withheld.
    pub fn record_owd_gated(
        &mut self,
        rx_local_ns: u64,
        owd_ns: f64,
        sequence: u32,
        probe: bool,
    ) -> bool {
        if self.gate.admit(owd_ns) {
            self.record_owd(rx_local_ns, owd_ns, sequence, probe);
            return true;
        }
        self.implausible_owd += 1;
        self.seq.record(sequence);
        self.last_rx_local_ns = Some(rx_local_ns);
        if !probe {
            self.app_delivered += 1;
        }
        false
    }
}

/// All paths' statistics at one switch — receive-side measurements plus
/// send-side counters (the peer's controller reads only the path stats).
#[derive(Debug, Default)]
pub struct StatsSink {
    paths: BTreeMap<u16, PathStats>,
    /// Tunnel packets sent, per outgoing tunnel id and of every kind. A
    /// tunnel's next sequence number is its count mod 2³².
    tunnel_tx: BTreeMap<u16, u64>,
    /// Tango-looking packets that failed validation and could not be
    /// attributed to any path.
    pub unattributed_rejects: u64,
    /// App packets this switch encapsulated onto tunnels.
    pub tx_encapsulated: u64,
    /// Host packets forwarded natively (non-Tango destinations).
    pub tx_untunneled: u64,
    /// Probes this switch emitted.
    pub probes_sent: u64,
    /// Probe timer firings the policy suppressed (backoff gating on a
    /// path believed down).
    pub probes_withheld: u64,
    /// Sends requested on an unknown tunnel id (a control-plane bug).
    pub tx_no_tunnel: u64,
    /// Control-loop ticks executed.
    pub control_ticks: u64,
    /// Plain (un-encapsulated) packets received for local hosts.
    pub plain_rx: u64,
    /// (local time ns, path ids selected) after each control decision —
    /// the experiments use this to plot which path carried traffic when.
    pub selection_history: Vec<(u64, Vec<u16>)>,
    /// In-band measurement reports sent to the peer.
    pub reports_sent: u64,
    /// In-band measurement reports received and applied.
    pub reports_received: u64,
    /// Reports received but undecodable (counted, never applied).
    pub reports_rejected: u64,
    /// Packets rejected by telemetry authentication (§6 mode).
    pub auth_rejects: u64,
    /// Authenticated packets rejected as replays (valid tag, stale or
    /// already-seen sequence number).
    pub replay_rejects: u64,
    /// OWD samples quarantined by plausibility gating, all paths.
    pub implausible_owd: u64,
}

impl StatsSink {
    /// Empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-register a path so its label is known before traffic flows.
    pub fn register_path(&mut self, id: u16, label: impl Into<String>) {
        self.paths
            .entry(id)
            .or_insert_with(|| PathStats::new(label.into()));
    }

    /// Get-or-create a path entry.
    pub fn path_mut(&mut self, id: u16) -> &mut PathStats {
        self.paths
            .entry(id)
            .or_insert_with(|| PathStats::new(format!("path-{id}")))
    }

    /// Read a path's stats.
    pub fn path(&self, id: u16) -> Option<&PathStats> {
        self.paths.get(&id)
    }

    /// All registered paths.
    pub fn paths(&self) -> impl Iterator<Item = (u16, &PathStats)> {
        self.paths.iter().map(|(k, v)| (*k, v))
    }

    /// Each path as the peer's controller sees it. The per-path view is
    /// made here only: shared feedback collects it and an in-band report
    /// quantizes it. Staleness is measured against the freshest
    /// path, in this (the receiver's) clock; `silence_ns` is left `None`
    /// for the reading switch to overlay from its own clock.
    pub fn snapshots(&self) -> impl Iterator<Item = (u16, PathSnapshot)> + '_ {
        let freshest = self.paths.values().filter_map(|p| p.last_sample_ns).max();
        self.paths().map(move |(id, p)| {
            let staleness_ns = match (freshest, p.last_sample_ns) {
                (Some(f), Some(l)) => Some(f.saturating_sub(l)),
                _ => None,
            };
            let snapshot = PathSnapshot {
                owd_ewma_ns: p.owd_ewma.get(),
                last_owd_ns: p.owd.last(),
                jitter_ns: p.rolling.std(),
                loss_rate: p.seq.loss_rate(),
                samples: p.owd.len() as u64,
                staleness_ns,
                silence_ns: None,
            };
            (id, snapshot)
        })
    }

    /// Count a rejected packet (attributed to a path if possible).
    pub fn record_reject(&mut self, path: Option<u16>) {
        match path {
            Some(id) => self.path_mut(id).rejected += 1,
            None => self.unattributed_rejects += 1,
        }
    }

    /// Pre-register an outgoing tunnel, so its send count is published
    /// (at 0) before it carries anything.
    pub(crate) fn register_tunnel(&mut self, id: u16) {
        self.tunnel_tx.entry(id).or_insert(0);
    }

    /// Count one packet sent on tunnel `id` and return its sequence
    /// number: the tunnel's send count before it, mod 2³².
    pub(crate) fn next_tx_seq(&mut self, id: u16) -> u32 {
        let sent = self.tunnel_tx.entry(id).or_insert(0);
        let seq = *sent as u32;
        *sent += 1;
        seq
    }

    /// Publish this sink as `node`'s `dataplane.<as>.…` telemetry:
    /// per-kind tx, rx and reject totals, and for every tunnel and every
    /// receive path its tx and rx counts and its loss, reorder and
    /// duplicate gauges, zeros included. Each counter is raised to the
    /// sink's total, so publishing again without new traffic changes
    /// nothing.
    pub fn publish(&self, registry: &Registry, node: AsId) {
        let prefix = format!("dataplane.{}", node.0);
        let raise = |name: &str, total: u64| {
            let counter = registry.counter(&format!("{prefix}.{name}"));
            counter.add(total.saturating_sub(counter.get()));
        };
        let ids: BTreeSet<u16> = self
            .tunnel_tx
            .keys()
            .chain(self.paths.keys())
            .copied()
            .collect();
        let mut decap = 0;
        for id in ids {
            let [received, lost, reordered, duplicates] = self.paths.get(&id).map_or([0; 4], |p| {
                let s = &p.seq;
                [s.received(), s.lost(), s.reordered(), s.duplicates()]
            });
            // A duplicate is a measured arrival too.
            let rx = received + duplicates;
            decap += rx;
            raise(
                &format!("path.{id}.tx"),
                self.tunnel_tx.get(&id).copied().unwrap_or(0),
            );
            raise(&format!("path.{id}.rx"), rx);
            for (name, value) in [
                ("lost", lost),
                ("reordered", reordered),
                ("duplicates", duplicates),
            ] {
                registry
                    .gauge(&format!("{prefix}.path.{id}.{name}"))
                    .set(value);
            }
        }
        let rejected = self.paths.values().map(|p| p.rejected).sum::<u64>();
        for (name, total) in [
            ("tx.app", self.tx_encapsulated),
            ("tx.probe", self.probes_sent),
            ("tx.report", self.reports_sent),
            ("rx.decap", decap),
            ("rx.rejected", self.unattributed_rejects + rejected),
            ("rx.auth_rejects", self.auth_rejects),
            ("rx.replay_rejects", self.replay_rejects),
            ("rx.implausible_owd", self.implausible_owd),
            ("rx.plain", self.plain_rx),
        ] {
            raise(name, total);
        }
    }
}

/// A shareable handle to a sink: the receiver writes, the peer's
/// controller reads.
pub type SharedStats = Arc<Mutex<StatsSink>>;

/// Create a fresh shared sink.
pub fn shared_sink() -> SharedStats {
    Arc::new(Mutex::new(StatsSink::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_updates_all_views() {
        let mut s = StatsSink::new();
        s.register_path(0, "NTT");
        for i in 0..10u32 {
            s.path_mut(0)
                .record_owd(u64::from(i) * 1_000_000, 36_500_000.0, i, true);
        }
        let p = s.path(0).unwrap();
        assert_eq!(p.label, "NTT");
        assert_eq!(p.owd.len(), 10);
        assert_eq!(p.seq.received(), 10);
        assert_eq!(p.seq.lost(), 0);
        assert!((p.owd_ewma.get().unwrap() - 36_500_000.0).abs() < 1.0);
        assert_eq!(p.app_delivered, 0);
        assert_eq!(p.last_rx_local_ns, Some(9_000_000));
        assert_eq!(p.last_sample_ns, Some(9_000_000));
        let bin = p.bins.total().unwrap();
        assert_eq!((bin.count, bin.app, bin.min), (10, 0, 36_500_000.0));
        assert_eq!(p.bins.bins().len(), 1, "10 ms of samples, one 500 ms bin");
        assert_eq!(p.rolling.len(), 10);
        assert_eq!(p.jitter_ns(), Some(0.0));
    }

    #[test]
    fn the_first_chunk_waits_for_the_first_sample() {
        let mut p = PathStats::new("NTT".into());
        assert_eq!(p.owd.chunks.capacity(), 0, "no heap for an idle path");
        p.record_owd(0, 36e6, 0, true);
        let capacities: Vec<usize> = p.owd.chunks.iter().map(Vec::capacity).collect();
        assert_eq!(capacities, [FIRST_CHUNK_BYTES]);
    }

    #[test]
    fn a_jittered_path_packs_in_about_three_bytes_a_sample() {
        // 100 000 samples of a 36 ms path with uniform ±300 µs jitter:
        // most deltas need 21 bits, three varint bytes.
        let mut owd = OwdSamples::default();
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for i in 0..100_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let jitter = (x % 600_001) as i64 - 300_000;
            owd.push((36_000_000 + jitter) as f64, i % 3 != 0);
        }
        let capacities: Vec<usize> = owd.chunks.iter().map(Vec::capacity).collect();
        assert_eq!(capacities[0], FIRST_CHUNK_BYTES);
        assert!(capacities[1..].iter().all(|&c| c == CHUNK_BYTES));
        let per_sample = capacities.iter().sum::<usize>() as f64 / owd.len() as f64;
        assert!(
            per_sample <= 3.25,
            "{per_sample:.3} B per sample, chunk slack included"
        );
        assert_eq!(owd.iter().len(), 100_000);
    }

    #[test]
    fn app_packets_counted_separately() {
        let mut s = StatsSink::new();
        s.path_mut(1).record_owd(0, 1.0, 0, false);
        s.path_mut(1).record_owd(10, 1.0, 1, true);
        assert_eq!(s.path(1).unwrap().app_delivered, 1);
    }

    #[test]
    fn app_view_equals_the_series_it_replaces() {
        let mut p = PathStats::new("NTT".into());
        // What the old `record_owd` pushed into its own `app_owd` series:
        // every admitted non-probe sample.
        let mut reference = Vec::new();
        let mut quarantined_apps = 0;
        for i in 0..240u32 {
            let t = u64::from(i) * 10_000_000;
            let probe = i % 3 == 0;
            // Every 7th sample is an isolated poison the gate quarantines.
            let owd = if i % 7 == 6 {
                10e9
            } else {
                30e6 + f64::from(i % 13) * 1e3
            };
            if p.record_owd_gated(t, owd, i, probe) {
                if !probe {
                    reference.push((t, owd));
                }
            } else if !probe {
                quarantined_apps += 1;
            }
        }
        assert!(p.owd.len() > 128, "samples span three bitmap words");
        assert!(quarantined_apps > 0 && p.implausible_owd > quarantined_apps);
        let view: Vec<f64> = p.owd.app_values().collect();
        assert_eq!(view, reference.iter().map(|&(_, v)| v).collect::<Vec<_>>());
        assert_eq!(view.len() as u64, p.app_delivered - quarantined_apps);
        // Each bin's app count is the reference's samples in its window.
        for bin in p.bins.bins() {
            let window = bin.start_ns..bin.start_ns + BIN_NS;
            let apps = reference.iter().filter(|(t, _)| window.contains(t));
            assert_eq!(bin.app, apps.count() as u64, "bin at {}", bin.start_ns);
        }
        assert_eq!(p.bins.total().unwrap().count, p.owd.len() as u64);
    }

    #[test]
    fn rejects_attributed_and_not() {
        let mut s = StatsSink::new();
        s.record_reject(Some(2));
        s.record_reject(None);
        assert_eq!(s.path(2).unwrap().rejected, 1);
        assert_eq!(s.unattributed_rejects, 1);
    }

    #[test]
    fn register_is_idempotent() {
        let mut s = StatsSink::new();
        s.register_path(0, "NTT");
        s.path_mut(0).record_owd(0, 5.0, 0, true);
        s.register_path(0, "renamed");
        assert_eq!(s.path(0).unwrap().label, "NTT");
        assert_eq!(s.path(0).unwrap().owd.len(), 1);
    }

    #[test]
    fn gated_record_quarantines_poison_but_keeps_liveness() {
        let mut s = StatsSink::new();
        s.register_path(0, "GTT");
        // Establish an honest 28 ms reference.
        for i in 0..10u32 {
            assert!(s.path_mut(0).record_owd_gated(
                u64::from(i) * 1_000_000,
                27_900_000.0,
                i,
                true
            ));
        }
        // Poisoned sample claiming a 10 s delay.
        let admitted = s.path_mut(0).record_owd_gated(10_000_000, 10e9, 10, false);
        assert!(!admitted);
        let p = s.path(0).unwrap();
        assert_eq!(p.implausible_owd, 1);
        // Delay views untouched by the poison...
        assert_eq!(p.owd.len(), 10);
        assert!((p.owd_ewma.get().unwrap() - 27_900_000.0).abs() < 1.0);
        // ...but liveness signals advanced: the packet DID arrive.
        assert_eq!(p.seq.received(), 11);
        assert_eq!(p.last_rx_local_ns, Some(10_000_000));
        // The staleness clock sees admitted samples only.
        assert_eq!(p.last_sample_ns, Some(9_000_000));
        assert_eq!(p.app_delivered, 1);
    }

    #[test]
    fn publish_is_the_sink() {
        let mut s = StatsSink::new();
        // Tunnel 0 only sends, tunnel 2 never does.
        s.register_tunnel(0);
        s.register_tunnel(2);
        assert_eq!([0, 1, 2].map(|_| s.next_tx_seq(0)), [0, 1, 2]);
        s.tx_encapsulated = 1;
        s.probes_sent = 1;
        s.reports_sent = 1;
        // Path 1 only receives: 0, 3 (1 and 2 missing), 1 (late), 4
        // (quarantined), 4 again (duplicate).
        for (t, owd, seq) in [
            (0, 30e6, 0),
            (1, 30e6, 3),
            (2, 30e6, 1),
            (3, 10e9, 4),
            (4, 30e6, 4),
        ] {
            if !s.path_mut(1).record_owd_gated(t, owd, seq, true) {
                s.implausible_owd += 1;
            }
        }
        s.record_reject(None);
        s.record_reject(Some(1));
        s.auth_rejects = 2;
        s.replay_rejects = 3;
        s.plain_rx = 4;

        let registry = Registry::new();
        s.publish(&registry, AsId(7));
        let snap = registry.snapshot();
        let named = |pairs: &[(&str, u64)]| -> BTreeMap<String, u64> {
            let named = pairs.iter().map(|&(k, v)| (format!("dataplane.7.{k}"), v));
            named.collect()
        };
        let counters = named(&[
            ("path.0.rx", 0),
            ("path.0.tx", 3),
            ("path.1.rx", 5),
            ("path.1.tx", 0),
            ("path.2.rx", 0),
            ("path.2.tx", 0),
            ("rx.auth_rejects", 2),
            ("rx.decap", 5),
            ("rx.implausible_owd", 1),
            ("rx.plain", 4),
            ("rx.rejected", 2),
            ("rx.replay_rejects", 3),
            ("tx.app", 1),
            ("tx.probe", 1),
            ("tx.report", 1),
        ]);
        let mut gauges = named(&[
            ("path.1.lost", 1),
            ("path.1.reordered", 1),
            ("path.1.duplicates", 1),
        ]);
        for id in [0, 2] {
            for g in ["lost", "reordered", "duplicates"] {
                gauges.insert(format!("dataplane.7.path.{id}.{g}"), 0);
            }
        }
        assert_eq!(snap.counters, counters);
        assert_eq!(snap.gauges, gauges);
        assert!(snap.histograms.is_empty());
        s.publish(&registry, AsId(7));
        assert_eq!(registry.snapshot(), snap, "a second publish adds nothing");
    }

    #[test]
    fn shared_sink_is_actually_shared() {
        let a = shared_sink();
        let b = Arc::clone(&a);
        a.lock().path_mut(0).record_owd(0, 1.0, 0, true);
        assert_eq!(b.lock().path(0).unwrap().owd.len(), 1);
    }
}
