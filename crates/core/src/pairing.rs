//! The pairing harness: one call from topology to running measurement.

use std::collections::BTreeMap;
use std::sync::Arc;
use tango_bgp::{BgpEngine, EngineError};
pub use tango_control::Side;
use tango_control::{
    provision, HealthConfig, HealthGated, HealthState, HealthTimeline, HealthTransition,
    ProvisionError, ProvisionedPairing, SideConfig,
};
use tango_dataplane::{
    codec, stats::shared_sink, FeedbackMode, MeasurementReport, PathPolicy, PathRecord,
    SharedStats, StaticPolicy, SwitchConfig, TangoSwitch,
};
use tango_measure::IntervalAverager;
use tango_net::SipKey;
use tango_obs::Registry;
use tango_sim::{
    shared_adversary_stats, AdversaryAgent, AdversaryBehavior, AdversaryStats, Agent,
    FaultInjector, NetworkSim, NodeClock, Packet, RouterAgent, ShardMode, SharedAdversaryStats,
    SimConfig, SimTime, SpanKey, SpanKind, SpanRing, TAG_ADV_SPOOF,
};
use tango_topology::{AsId, TimeWindow, Topology, WideAreaEvent};

/// Capacity of the pairing-level control-plane span recorder. Control
/// spans are rare (one per control step, health transition, or
/// violation), so this never wraps in practice — which keeps the flight
/// dump exact and shard-invariant.
const CONTROL_SPAN_CAPACITY: usize = 1 << 14;

/// Paths discovered at most per direction.
const MAX_PATHS: usize = 8;

/// One flight-recorder dump: the control-plane recorder's retained
/// spans rendered in the canonical `tango-trace/spans/v1` form, plus
/// the digest experiments embed in their artifacts. A pure function of
/// the run, so the same scenario yields the same digest across shard
/// counts and runner modes.
#[derive(Debug, Clone)]
pub struct FlightDump {
    /// Canonical span-dump JSON (sorted keys, fixed indentation).
    pub json: String,
    /// FNV-1a fingerprint of `json`.
    pub digest: u64,
    /// Number of spans in the dump.
    pub span_count: u64,
}

/// Harness construction errors.
#[derive(Debug)]
pub enum PairingError {
    /// Discovery/provisioning failed.
    Provision(ProvisionError),
    /// The BGP engine failed.
    Engine(EngineError),
    /// A wide-area event names a path the pairing did not provision.
    NoSuchPath {
        /// The path id asked for.
        path: u16,
        /// How many paths the event's kind can target: the longer
        /// direction's count for outages, resets and hijacks, the shorter
        /// one's for the packet-level attacks (the carrier is read from
        /// side A's paths, a forged report rides side B's tunnel).
        paths: usize,
    },
}

impl From<ProvisionError> for PairingError {
    fn from(e: ProvisionError) -> Self {
        PairingError::Provision(e)
    }
}

impl From<EngineError> for PairingError {
    fn from(e: EngineError) -> Self {
        PairingError::Engine(e)
    }
}

impl core::fmt::Display for PairingError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PairingError::Provision(e) => write!(f, "provisioning: {e}"),
            PairingError::Engine(e) => write!(f, "BGP: {e}"),
            PairingError::NoSuchPath { path, paths } => {
                write!(f, "no path {path}: {paths} paths were provisioned")
            }
        }
    }
}

impl std::error::Error for PairingError {}

/// Options controlling a pairing run.
pub struct PairingOptions {
    /// Simulation seed (same seed ⇒ identical run).
    pub seed: u64,
    /// Probe period per tunnel (the paper uses 10 ms). `None` disables.
    pub probe_period: Option<SimTime>,
    /// Control-loop period (`None` = static selection).
    pub control_period: Option<SimTime>,
    /// Policy at side A for A→B traffic (installed selections).
    pub policy_a: Box<dyn PathPolicy>,
    /// Policy at side B for B→A traffic.
    pub policy_b: Box<dyn PathPolicy>,
    /// Clock offset of side B's switch (side A is the reference). The
    /// paper's clocks are unsynchronized; experiments vary this to show
    /// the invariance.
    pub clock_offset_b_ns: i64,
    /// Optional global fault injection.
    pub fault: Option<FaultInjector>,
    /// The path id both switches start on before any policy decision
    /// (0 = the BGP-default path, by discovery order).
    pub initial_path: u16,
    /// Causal span ring capacity per shard (0 = disabled). Armed runs
    /// record the [`tango_sim::Span`] stream the flight recorder and
    /// `experiments trace` export; see DESIGN.md §12.
    pub span_capacity: usize,
    /// Cooperation feedback channel: zero-delay shared view (default,
    /// the DESIGN.md §5 idealization) or in-band report packets that pay
    /// real wide-area latency and loss.
    pub feedback: FeedbackMode,
    /// Shared secret enabling §6 authenticated telemetry on both
    /// switches (SipHash-2-4 trailers, verified on receive).
    pub auth_key: Option<SipKey>,
    /// Application-specific routing overrides (§3), applied at both
    /// switches: inner DSCP/traffic-class byte → pinned path id.
    pub class_map: BTreeMap<u8, u16>,
    /// Scheduled *structured* faults, honest and Byzantine, lowered by
    /// [`TangoPairing::build`]: `Blackhole`s onto the topology before the
    /// simulator starts; `SessionReset`s and `Hijack`s into control-plane
    /// steps [`TangoPairing::run_until`] executes against the BGP engine
    /// mid-run; `OwdPoison`, `Replay` and `SpoofReports` into one
    /// [`AdversaryAgent`] per attacking carrier.
    pub wide_area_events: Vec<WideAreaEvent>,
    /// Wrap side A's policy in a [`HealthGated`] liveness gate with these
    /// thresholds; the transition timeline is exposed via
    /// [`TangoPairing::health_timeline`].
    pub health_a: Option<HealthConfig>,
    /// Same for side B's policy.
    pub health_b: Option<HealthConfig>,
    /// Build the health gates in monitor-only mode: machines and
    /// timelines run, but enforcement is off and the inner decision is
    /// installed verbatim. Exists solely so the invariant checker's
    /// self-test can demonstrate a caught violation; never enable in
    /// experiments measuring Tango itself.
    pub monitor_only_health: bool,
    /// Telemetry registry: when set, the simulator and the BGP engine
    /// export metrics into it (`sim.…`, `bgp.…`), and
    /// [`TangoPairing::run_until`] publishes both switches' stats sinks
    /// (`dataplane.<as>.…`) and health logs (`health.<as>.…`) into it at
    /// the end of every call. Keep a clone to snapshot it.
    pub obs: Option<Registry>,
    /// Number of simulator shards (see `tango_sim::shard`). Any value
    /// yields bit-identical results. Under [`FeedbackMode::Shared`] a
    /// count that would split the two tenants falls back to one shard
    /// (`sim.shard_count()` reports it).
    pub shards: usize,
    /// How multi-shard runs execute (serial reference, the default, vs.
    /// worker threads); identical output either way.
    pub shard_mode: ShardMode,
}

impl Default for PairingOptions {
    fn default() -> Self {
        PairingOptions {
            seed: 1,
            probe_period: Some(SimTime::from_ms(10)),
            control_period: None,
            policy_a: Box::new(StaticPolicy::single(0, "bgp-default")),
            policy_b: Box::new(StaticPolicy::single(0, "bgp-default")),
            clock_offset_b_ns: 0,
            fault: None,
            initial_path: 0,
            span_capacity: 0,
            feedback: FeedbackMode::Shared,
            auth_key: None,
            class_map: BTreeMap::new(),
            wide_area_events: Vec::new(),
            health_a: None,
            health_b: None,
            monitor_only_health: false,
            obs: None,
            shards: 1,
            shard_mode: ShardMode::Serial,
        }
    }
}

/// What a pending control-plane step announces or withdraws when its
/// simulated time arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ControlStep {
    /// SessionReset: both sides' tunnel prefixes for the path, with
    /// their original pin communities.
    Reset,
    /// Sub-prefix hijack: `attacker` originates a /56 more-specific of
    /// each tunnel endpoint on the path, attracting its traffic.
    Hijack {
        /// The announcing (Byzantine) AS.
        attacker: AsId,
    },
}

/// A scheduled control-plane action, executed by `run_until`.
#[derive(Debug, Clone, Copy)]
struct PendingControl {
    at: SimTime,
    path: u16,
    step: ControlStep,
    /// Announce the step's prefixes (a reset's re-announce, a hijack's
    /// start) or withdraw them (a reset's start, a hijack's end).
    announce: bool,
}

/// Everything the harness keeps per edge.
struct SideState {
    config: SideConfig,
    /// What this side *receives* (peer→side measurements) plus its send
    /// counters.
    stats: SharedStats,
    /// Health-transition timeline of the side's gated policy (if enabled).
    timeline: Option<HealthTimeline>,
    /// How many timeline entries are already mirrored as spans.
    synced_health: usize,
    /// The app packet this side sends, per `(payload_len, traffic_class)`:
    /// built once, then scheduled as clones that share its bytes.
    templates: BTreeMap<(usize, u8), Packet>,
}

/// A fully wired Tango deployment between two edges, ready to run.
pub struct TangoPairing {
    /// The simulator (topology, agents, event queue).
    pub sim: NetworkSim,
    /// The converged BGP engine (for inspection; the simulator's router
    /// tables were derived from it).
    pub bgp: BgpEngine,
    /// The provisioning outcome: discovered paths and tunnel tables.
    pub provisioned: ProvisionedPairing,
    /// Per-side state, indexed by [`Side::idx`].
    sides: [SideState; 2],
    /// Scheduled control-plane steps (session resets, hijacks), soonest
    /// first.
    pending_controls: Vec<PendingControl>,
    /// Byzantine nodes and their behaviors, so control-plane
    /// re-convergence reinstalls the adversary wrapper instead of
    /// silently reverting the node to an honest router. The re-wrap
    /// resets an in-flight replay stash: a replay window spanning a
    /// reset or hijack loses the captures made before it.
    adversaries: BTreeMap<AsId, Vec<AdversaryBehavior>>,
    /// The one counter handle every adversary shares.
    adversary_stats: SharedAdversaryStats,
    /// The telemetry registry every layer exports into (if enabled).
    obs: Option<Registry>,
    /// The pairing-level causal recorder: control-plane steps, BGP
    /// updates, health transitions, invariant violations. Keys use
    /// [`SpanKey::CONTROL_ORIGIN`] with `control_seq`, so the stream
    /// merges cleanly with the engine's per-shard rings.
    control_spans: SpanRing,
    /// Next per-origin sequence number for control spans.
    control_seq: u64,
    /// `(time_ns, cause key)` of every applied control step — the key a
    /// later effect (health transition) is parented to. The cause is the
    /// step's last recorded span (its final `BgpUpdate` when the step
    /// touched BGP, else the `Control` root), so ancestry walks
    /// chaos event → BGP update → health transition → reroute.
    control_roots: Vec<(u64, SpanKey)>,
    /// `(time_ns, path, span key)` of every emitted health-transition
    /// span — the parent pool for invariant-violation spans.
    health_spans: Vec<(u64, u16, SpanKey)>,
}

/// `Err(NoSuchPath)` unless `path` is among the `paths` an event can
/// target.
fn check_path(path: u16, paths: usize) -> Result<(), PairingError> {
    if usize::from(path) < paths {
        Ok(())
    } else {
        Err(PairingError::NoSuchPath { path, paths })
    }
}

/// Forge the report a spoofing carrier injects toward side A: every path
/// looks terrible except `path`, which looks perfect — enough to flip
/// any latency/loss-driven ranking if the switch believes it.
fn forged_report(provisioned: &ProvisionedPairing, path: u16) -> Vec<u8> {
    let tunnels = &provisioned.from(Side::B).tunnels;
    let records = (0..tunnels.len() as u16)
        .map(|id| {
            if id == path {
                PathRecord {
                    path_id: id,
                    samples: 100_000,
                    owd_ewma_ns: 1_000_000, // 1 ms: impossibly good
                    jitter_ns: 1_000,
                    loss_ppm: 0,
                    staleness_ns: 0,
                }
            } else {
                PathRecord {
                    path_id: id,
                    samples: 100_000,
                    owd_ewma_ns: 500_000_000, // 500 ms: unusable
                    jitter_ns: 50_000_000,
                    loss_ppm: 500_000,
                    staleness_ns: 0,
                }
            }
        })
        .collect();
    let report = MeasurementReport { records }.encode();
    // Ride B's tunnel for `path` toward A — a byte-faithful REPORT
    // packet, except the attacker has no key so there is no auth tag.
    let tunnel = &tunnels[usize::from(path)];
    codec::report_packet(tunnel, 0x5bf0_0000 + u32::from(path), 0, &report, None)
}

impl TangoPairing {
    /// Build a pairing over an arbitrary topology.
    ///
    /// `neighbor_pref` carries per-border route preferences (pass the
    /// scenario's map, or an empty iterator for pure shortest-path).
    pub fn build(
        topology: Topology,
        neighbor_pref: impl IntoIterator<Item = (AsId, BTreeMap<AsId, u32>)>,
        side_a: SideConfig,
        side_b: SideConfig,
        options: PairingOptions,
    ) -> Result<Self, PairingError> {
        let mut bgp = BgpEngine::new(topology.clone());
        if let Some(registry) = &options.obs {
            // Attach before provisioning so discovery's convergences are
            // already counted.
            bgp.set_obs(registry);
        }
        for (node, prefs) in neighbor_pref {
            bgp.set_neighbor_pref(node, prefs)?;
        }
        let provisioned = provision(&mut bgp, &topology, &side_a, &side_b, MAX_PATHS)?;
        let mut sides = [side_a, side_b].map(|config| SideState {
            config,
            stats: shared_sink(),
            timeline: None,
            synced_health: 0,
            templates: BTreeMap::new(),
        });

        // Lower the structured wide-area events now that provisioning
        // fixed the path order: the one place a path id becomes links, a
        // control-plane step or an attacker. A `Blackhole { path }`
        // resolves to the path's *distinguishing* hop in each direction —
        // the transit adjacent to the receiving border, unique per path by
        // discovery construction — so exactly that path dies, in both
        // directions (delivery into A first). The Byzantine kinds run at
        // a distinguishing carrier of side A's paths.
        let mut topology = topology;
        let path_links = |p: u16| -> Vec<(AsId, AsId)> {
            let into = |rx: Side| {
                let inbound = provisioned.from(rx.peer()).paths.get(usize::from(p))?;
                Some((*inbound.transit_path.last()?, sides[rx.idx()].config.border))
            };
            Side::BOTH.into_iter().filter_map(into).collect()
        };
        let a_paths = &provisioned.from(Side::A).paths;
        let carrier = |p: u16| {
            a_paths[usize::from(p)]
                .distinguishing_carrier()
                .expect("discovery keeps only paths with a transit hop")
        };
        let [a_len, b_len] = Side::BOTH.map(|s| provisioned.from(s).tunnels.len());
        let (longest, both) = (a_len.max(b_len), a_len.min(b_len));
        let mut pending_controls = Vec::new();
        let mut hijacks = Vec::new();
        let mut blackholes: Vec<(u16, TimeWindow)> = Vec::new();
        let mut attacks: Vec<(AsId, u16, AdversaryBehavior)> = Vec::new();
        for ev in &options.wide_area_events {
            let (path, window) = (ev.path(), ev.window());
            let controls = |step, announce_at_start: bool| {
                [
                    (window.start_ns, announce_at_start),
                    (window.end_ns, !announce_at_start),
                ]
                .map(|(at_ns, announce)| PendingControl {
                    at: SimTime(at_ns),
                    path,
                    step,
                    announce,
                })
            };
            match *ev {
                WideAreaEvent::Blackhole { .. } => {
                    check_path(path, longest)?;
                    blackholes.push((path, window));
                    for link_ev in ev.lower(path_links) {
                        topology
                            .add_event(link_ev)
                            .expect("wide-area event targets existing links");
                    }
                }
                WideAreaEvent::SessionReset { .. } => {
                    // Withdrawn at the window's start, re-announced at its end.
                    check_path(path, longest)?;
                    pending_controls.extend(controls(ControlStep::Reset, false));
                }
                WideAreaEvent::Hijack { .. } => {
                    check_path(path, longest)?;
                    let attacker = carrier((path + 1) % a_paths.len() as u16);
                    hijacks.extend(controls(ControlStep::Hijack { attacker }, true));
                }
                WideAreaEvent::OwdPoison { skew_ns, .. } => {
                    check_path(path, both)?;
                    let behavior = AdversaryBehavior::OwdPoison { window, skew_ns };
                    attacks.push((carrier(path), path, behavior));
                }
                WideAreaEvent::Replay {
                    delay_ns, every, ..
                } => {
                    check_path(path, both)?;
                    let behavior = AdversaryBehavior::Replay {
                        window,
                        delay: SimTime(delay_ns),
                        every,
                    };
                    attacks.push((carrier(path), path, behavior));
                }
                WideAreaEvent::SpoofReports { period_ns, .. } => {
                    check_path(path, both)?;
                    let behavior = AdversaryBehavior::SpoofPackets {
                        window,
                        period: SimTime(period_ns),
                        packet: forged_report(&provisioned, path),
                    };
                    attacks.push((carrier(path), path, behavior));
                }
            }
        }
        // Hijacks queue behind the resets, so a tie runs the reset first.
        pending_controls.append(&mut hijacks);
        pending_controls.sort_by_key(|r| r.at);
        // One adversary per carrier: its behaviors path by path, each
        // path's in event order.
        attacks.sort_by_key(|&(node, path, _)| (node, path));
        let mut adversaries: BTreeMap<AsId, Vec<AdversaryBehavior>> = BTreeMap::new();
        for (node, _, behavior) in attacks {
            adversaries.entry(node).or_default().push(behavior);
        }

        let mut sim_config = SimConfig {
            seed: options.seed,
            span_capacity: options.span_capacity,
            fault: options.fault,
            obs: options.obs.clone(),
            shards: options.shards,
            shard_mode: options.shard_mode,
        };
        let mut sim = NetworkSim::new(topology.clone(), sim_config.clone());
        // Shared feedback is a zero-delay channel between the two
        // switches: each reads the other's sink at its own control tick.
        // Across a shard boundary that read would see whatever the other
        // shard happened to have processed of the current window, so —
        // like a zero-latency cross-shard link — it forces one shard.
        // In-band reports pay link latency and keep the requested count.
        let [tenant_a, tenant_b] = Side::BOTH.map(|s| sides[s.idx()].config.tenant);
        if options.feedback == FeedbackMode::Shared
            && sim.shard_of(tenant_a) != sim.shard_of(tenant_b)
        {
            sim_config.shards = 1;
            sim = NetworkSim::new(topology, sim_config);
        }
        sim.set_clock(
            tenant_b,
            NodeClock::with_offset_ns(options.clock_offset_b_ns),
        );

        // Gate, configure and install each side's switch.
        let policies = [
            (options.policy_a, options.health_a),
            (options.policy_b, options.health_b),
        ];
        for (side, (mut policy, health)) in Side::BOTH.into_iter().zip(policies) {
            let me = sides[side.idx()].config.clone();
            // Liveness gating: wrap the configured policy before it moves
            // into the switch, keeping a handle on its timeline.
            if let Some(cfg) = health {
                let mut gated = HealthGated::new(policy, cfg);
                if options.monitor_only_health {
                    gated = gated.monitor_only();
                }
                sides[side.idx()].timeline = Some(gated.timeline());
                policy = Box::new(gated);
            }
            let config = SwitchConfig {
                id: me.tenant,
                border: me.border,
                tunnels: provisioned.from(side).tunnels.clone(),
                remote_host_prefixes: vec![sides[side.peer().idx()].config.host_prefix],
                probe_period: options.probe_period,
                control_period: options.control_period,
                initial_path: options.initial_path,
                // A switch that is its own border (multi-homed enterprise)
                // routes outgoing packets itself, from its converged BGP
                // table.
                wan_table: if me.border == me.tenant {
                    Some(bgp.forwarding_table(me.tenant)?)
                } else {
                    None
                },
                feedback: options.feedback,
                auth_key: options.auth_key,
                class_map: options.class_map.clone(),
                rx_labels: provisioned
                    .from(side.peer())
                    .tunnels
                    .iter()
                    .map(|t| (t.id, t.label.clone()))
                    .collect(),
            };
            TangoSwitch::install(
                &mut sim,
                config,
                policy,
                Arc::clone(&sides[side.idx()].stats),
                Arc::clone(&sides[side.peer().idx()].stats),
                SimTime::from_ms(1 + side.idx() as u64),
            );
        }

        let mut pairing = TangoPairing {
            sim,
            bgp,
            provisioned,
            sides,
            pending_controls,
            adversaries,
            adversary_stats: shared_adversary_stats(),
            obs: options.obs,
            control_spans: SpanRing::new(CONTROL_SPAN_CAPACITY),
            control_seq: 0,
            control_roots: Vec::new(),
            health_spans: Vec::new(),
        };
        pairing.install_routers()?;
        // Arm each adversary's spoof timer at its earliest spoof window
        // (it keeps ticking until the window opens, then injects on its
        // period), carriers in ascending order.
        for (&node, behaviors) in &pairing.adversaries {
            let spoof_start = behaviors.iter().filter_map(|b| match b {
                AdversaryBehavior::SpoofPackets { window, .. } => Some(window.start_ns),
                _ => None,
            });
            if let Some(at_ns) = spoof_start.min() {
                pairing
                    .sim
                    .schedule_timer_at(SimTime(at_ns), node, TAG_ADV_SPOOF);
            }
        }
        // Blackholes were lowered onto the topology above and never pass
        // `apply_control`, so their flight-recorder spans (step 4 start,
        // step 5 end) are emitted here, at build time.
        for (path, window) in blackholes {
            pairing.record_control(window.start_ns, 4, path);
            pairing.record_control(window.end_ns, 5, path);
        }
        Ok(pairing)
    }

    fn side(&self, side: Side) -> &SideState {
        &self.sides[side.idx()]
    }

    /// Open one dispatch on the control recorder at `at_ns` and record
    /// `kind` at `node` under `parent`. Returns the span's key.
    fn control_span(&mut self, at_ns: u64, node: u32, parent: SpanKey, kind: SpanKind) -> SpanKey {
        let seq = self.control_seq;
        self.control_seq += 1;
        self.control_spans
            .begin_dispatch(at_ns, SpanKey::CONTROL_ORIGIN, seq);
        self.control_spans.record_dispatch(node, parent, kind);
        self.control_spans.dispatch_key()
    }

    /// Record a control-plane root span (`SpanKind::Control`) keyed at
    /// `time_ns` on the control recorder, registering it as the latest
    /// cause at that time. Returns its key.
    fn record_control(&mut self, time_ns: u64, step: u8, path: u16) -> SpanKey {
        let kind = SpanKind::Control { step, path };
        let key = self.control_span(time_ns, 0, SpanKey::NONE, kind);
        self.control_roots.push((time_ns, key));
        key
    }

    /// The key of the most recent control cause at or before `t_ns`
    /// ([`SpanKey::NONE`] when nothing happened yet) — what effect spans
    /// (health transitions) are parented to.
    fn control_cause_at(&self, t_ns: u64) -> SpanKey {
        self.control_roots
            .iter()
            .filter(|(at, _)| *at <= t_ns)
            .max_by_key(|(at, _)| *at)
            .map(|&(_, k)| k)
            .unwrap_or(SpanKey::NONE)
    }

    /// Mirror freshly appended health-timeline entries as
    /// `HealthTransition` spans (parented to the most recent control
    /// cause), with a `Reroute` child whenever a transition enters or
    /// leaves `Down` (selection moves off / back onto the path). Spans
    /// are keyed by controller-local time — the timeline's clock domain.
    fn sync_health_spans(&mut self) {
        for side in Side::BOTH {
            let Some(timeline) = self.health_timeline(side) else {
                continue;
            };
            let node = self.side_config(side).tenant.0;
            for tr in timeline.iter().skip(self.side(side).synced_health) {
                let parent = self.control_cause_at(tr.at_ns);
                let kind = SpanKind::HealthTransition {
                    path: tr.path,
                    from: tr.from.code(),
                    to: tr.to.code(),
                };
                let key = self.control_span(tr.at_ns, node, parent, kind);
                self.health_spans.push((tr.at_ns, tr.path, key));
                if tr.to == HealthState::Down || tr.from == HealthState::Down {
                    self.control_spans
                        .record(node, SpanKind::Reroute { path: tr.path });
                }
            }
            self.sides[side.idx()].synced_health = timeline.len();
        }
    }

    /// Append an invariant-violation span (the flight-recorder trigger):
    /// parented to the latest health-transition span of the offending
    /// path, so the dump's ancestry chain resolves from the violation all
    /// the way back to the chaos event that caused it.
    pub fn record_violation(&mut self, side: Side, at_ns: u64, path: u16, state: u8) {
        self.sync_health_spans();
        let node = self.side_config(side).tenant.0;
        let parent = self
            .health_spans
            .iter()
            .filter(|(t, p, _)| *p == path && *t <= at_ns)
            .max_by_key(|(t, _, _)| *t)
            .map(|&(_, _, k)| k)
            .unwrap_or_else(|| self.control_cause_at(at_ns));
        let kind = SpanKind::InvariantViolation { path, state };
        self.control_span(at_ns, node, parent, kind);
    }

    /// The run's full causal span stream: the engine's per-shard rings
    /// merged with the control-plane recorder, in canonical key order.
    /// Empty unless the run was built with a nonzero
    /// [`PairingOptions::span_capacity`] (engine spans) — control spans
    /// are always recorded.
    pub fn spans(&mut self) -> SpanRing {
        self.sync_health_spans();
        let engine = self.sim.spans();
        SpanRing::merged([&engine, &self.control_spans])
    }

    /// Flush the flight recorder: the control recorder's spans (control
    /// steps, BGP updates, health transitions, reroutes, violations) in
    /// canonical form, plus the digest chaos artifacts embed.
    pub fn flight_dump(&mut self) -> FlightDump {
        self.sync_health_spans();
        let spans = self.control_spans.spans();
        let json = tango_trace::export::spans_to_json(
            &spans,
            self.control_spans.total_recorded(),
            self.control_spans.capacity() as u64,
        );
        FlightDump {
            digest: tango_trace::export::digest64(json.as_bytes()),
            span_count: spans.len() as u64,
            json,
        }
    }

    /// Advance simulated time, executing any scheduled control-plane
    /// steps ([`WideAreaEvent::SessionReset`], [`WideAreaEvent::Hijack`])
    /// whose time falls inside the window: the simulator runs up to the boundary,
    /// the announcements change, BGP re-converges, and the routers'
    /// forwarding tables are reinstalled (the RIB→FIB push) before
    /// simulated time continues. With a registry attached, both stats
    /// sinks and both health logs are then published into it, as the
    /// simulator publishes its own counters at the end of its
    /// `run_until`; publishing is idempotent, so slicing a run changes
    /// no figure.
    pub fn run_until(&mut self, t: SimTime) {
        while let Some(next) = self.pending_controls.first().copied() {
            if next.at > t {
                break;
            }
            self.sim.run_until(next.at);
            self.pending_controls.remove(0);
            self.apply_control(next);
        }
        self.sim.run_until(t);
        if let Some(registry) = &self.obs {
            for side in &self.sides {
                side.stats.lock().publish(registry, side.config.tenant);
                if let Some(timeline) = &side.timeline {
                    timeline.lock().publish(registry, side.config.tenant);
                }
            }
        }
    }

    /// What the adversaries the pairing's Byzantine wide-area events
    /// installed did, summed over every carrier (a snapshot copy).
    pub fn adversary_stats(&self) -> AdversaryStats {
        *self.adversary_stats.lock()
    }

    /// Execute one control-plane step (session-reset withdraw or
    /// re-announce, hijack start or end), re-converge, and reinstall
    /// every non-tenant router. Records the step and each BGP update it
    /// drove on the flight recorder.
    fn apply_control(&mut self, control: PendingControl) {
        let PendingControl {
            at,
            path,
            step,
            announce,
        } = control;
        // Flight-recorder step codes: 0 reset withdraw, 1 re-announce,
        // 2 hijack start, 3 hijack end.
        let step_code = match step {
            ControlStep::Reset => u8::from(announce),
            ControlStep::Hijack { .. } => 3 - u8::from(announce),
        };
        let mut cause = self.record_control(at.as_ns(), step_code, path);
        // (origin, prefix, communities) per direction. Side A's tunnel
        // `path` targets the prefix *B* announced (pinned for A→B
        // traffic), and vice versa; a hijacker originates a /56
        // more-specific of the same endpoint.
        let cidr = |endpoint, len| {
            tango_net::IpCidr::V6(
                tango_net::Ipv6Cidr::new(endpoint, len).expect("a /48 or /56 of a tunnel endpoint"),
            )
        };
        let target = |side: Side| {
            let direction = self.provisioned.from(side);
            let tunnel = direction.tunnels.get(usize::from(path))?;
            let pinned = direction.paths.get(usize::from(path))?;
            Some(match step {
                ControlStep::Reset => (
                    self.side_config(side.peer()).tenant,
                    cidr(tunnel.remote_endpoint, 48),
                    pinned.pin_communities.clone(),
                ),
                ControlStep::Hijack { attacker } => (
                    attacker,
                    cidr(tunnel.remote_endpoint, 56),
                    std::collections::BTreeSet::new(),
                ),
            })
        };
        let targets: Vec<_> = Side::BOTH.into_iter().filter_map(target).collect();
        for (origin, prefix, communities) in targets {
            let updated = if announce {
                self.bgp.announce(origin, prefix, communities)
            } else {
                self.bgp.withdraw(origin, prefix).map(drop)
            };
            updated.expect("origin exists in the topology");
            let kind = SpanKind::BgpUpdate {
                path,
                announce: u8::from(announce),
            };
            cause = self.control_spans.record(origin.0, kind);
        }
        // Later effects (health transitions) are parented to the step's
        // last BGP update — the edge routing actually changed on.
        if let Some(last) = self.control_roots.last_mut() {
            last.1 = cause;
        }
        self.bgp
            .converge()
            .expect("re-convergence after control-plane step");
        self.install_routers().expect("converged table");
    }

    /// (Re)install every non-tenant node from its converged BGP table.
    fn install_routers(&mut self) -> Result<(), PairingError> {
        let tenants = Side::BOTH.map(|s| self.side_config(s).tenant);
        let routers: Vec<AsId> = self
            .sim
            .topology()
            .nodes()
            .map(|n| n.id)
            .filter(|id| !tenants.contains(id))
            .collect();
        routers
            .into_iter()
            .try_for_each(|id| self.reinstall_router(id))
    }

    /// (Re)install one non-tenant node from its converged BGP table,
    /// preserving any adversary wrapper registered for it.
    fn reinstall_router(&mut self, id: AsId) -> Result<(), PairingError> {
        let mut agent: Box<dyn Agent> =
            Box::new(RouterAgent::new(id, self.bgp.forwarding_table(id)?));
        if let Some(behaviors) = self.adversaries.get(&id) {
            let stats = Arc::clone(&self.adversary_stats);
            agent = Box::new(AdversaryAgent::new(agent, behaviors.clone(), stats));
        }
        self.sim.set_agent(id, agent);
        Ok(())
    }

    /// The health-transition timeline recorded by `side`'s
    /// [`HealthGated`] policy, oldest first. `None` unless the side was
    /// built with `health_a`/`health_b`.
    pub fn health_timeline(&self, side: Side) -> Option<Vec<HealthTransition>> {
        let timeline = self.side(side).timeline.as_ref()?;
        Some(timeline.lock().transitions.clone())
    }

    /// The stats sink of a side (what that side *receives*).
    pub fn stats(&self, side: Side) -> &SharedStats {
        &self.side(side).stats
    }

    /// The tunnel labels for traffic *into* a side (discovery order).
    pub fn labels_into(&self, side: Side) -> Vec<String> {
        let inbound = self.provisioned.from(side.peer());
        inbound.tunnels.iter().map(|t| t.label.clone()).collect()
    }

    /// Clone a path's one-way delay over time as measured at `side`
    /// (i.e. the `peer → side` direction): its
    /// [`tango_dataplane::BIN_NS`] bins keyed by receiver-local time.
    pub fn owd_bins(&self, side: Side, path: u16) -> Option<IntervalAverager> {
        self.stats(side).lock().path(path).map(|p| p.bins.clone())
    }

    /// Mean one-way delay in milliseconds for a path into `side`.
    pub fn mean_owd_ms(&self, side: Side, path: u16) -> Option<f64> {
        self.stats(side)
            .lock()
            .path(path)
            .and_then(|p| p.owd.mean())
            .map(|v| v / 1e6)
    }

    /// Schedule an application packet from `side`'s host toward the
    /// peer's host prefix at simulated time `at`.
    pub fn send_app_packet(&mut self, at: SimTime, from: Side, payload_len: usize) {
        self.send_app_packet_class(at, from, payload_len, 0);
    }

    /// [`TangoPairing::send_app_packet`] with an explicit DSCP/traffic
    /// class (for §3 application-specific routing).
    pub fn send_app_packet_class(
        &mut self,
        at: SimTime,
        from: Side,
        payload_len: usize,
        traffic_class: u8,
    ) {
        let (src, dst) = (
            self.side_config(from).host_prefix,
            self.side_config(from.peer()).host_prefix,
        );
        let addr_in = |p: tango_net::IpCidr, host: u128| match p {
            tango_net::IpCidr::V6(c) => c.host(host).expect("host prefix wide enough"),
            tango_net::IpCidr::V4(_) => unreachable!("host prefixes are IPv6 in this harness"),
        };
        let me = &mut self.sides[from.idx()];
        let template = me
            .templates
            .entry((payload_len, traffic_class))
            .or_insert_with(|| {
                // Born with headroom: the switch encapsulates in place
                // instead of rebuilding the wire image.
                Packet::host(
                    addr_in(src, 0x10),
                    addr_in(dst, 0x20),
                    payload_len,
                    tango_dataplane::codec::ENCAP_OVERHEAD,
                    traffic_class,
                )
            });
        self.sim
            .schedule_host_packet(at, me.config.tenant, template.clone());
    }

    /// The side configs (for reporting).
    pub fn side_config(&self, side: Side) -> &SideConfig {
        &self.side(side).config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn side_peer_flips() {
        assert_eq!(Side::A.peer(), Side::B);
        assert_eq!(Side::B.peer(), Side::A);
    }
}
