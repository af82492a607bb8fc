//! The replica-mesh scaling scenario: K independent copies of the Vultr
//! NY↔LA deployment inside **one** simulator.
//!
//! The sharded engine (`tango_sim::shard`) parallelizes a *single
//! scenario* across cores; this module supplies the canonical workload
//! for measuring that. Each replica is a full copy of the calibrated
//! Vultr topology (tenants, borders, five transits) with its AS numbers
//! offset by `r * 100_000` and its own address plan, all living in one
//! `Topology`/`NetworkSim`. No link crosses replicas, so when the
//! partition boundary falls between replicas the conservative lookahead
//! is unbounded and every shard runs to the horizon in a single window —
//! the embarrassingly parallel upper bound of the sharded design. (A
//! partition that cuts *through* a replica still works: it just
//! synchronizes on the replica's internal link latencies.)
//!
//! Routing is plain converged BGP: one engine over the whole mesh (the
//! components are disconnected, so announcements cannot leak between
//! replicas), every node forwarding by longest-prefix match. Traffic is
//! bidirectional host-to-host streams inside each replica, paying the
//! real continental-crossing delays and jitter.

use crate::pairing::PairingError;
use std::collections::BTreeSet;
use tango_bgp::BgpEngine;
use tango_net::{IpCidr, Ipv6Packet, Ipv6Repr};
use tango_sim::{NetworkSim, Packet, RouterAgent, ShardMode, SimConfig, SimTime};
use tango_topology::vultr::{vultr_scenario, TENANT_LA, TENANT_NY};
use tango_topology::{AsId, AsNode, LinkProfile, Topology};

/// AS-number stride between replicas (far above every real AS number in
/// the Vultr scenario, so offset ids never collide).
const REPLICA_STRIDE: u32 = 100_000;

/// App payload bytes per injected mesh packet.
const PAYLOAD_BYTES: usize = 64;

/// Options for building a [`MeshSim`].
pub struct MeshOptions {
    /// Number of Vultr-deployment replicas in the mesh.
    pub replicas: usize,
    /// Simulation seed.
    pub seed: u64,
    /// Simulator shards (any value is bit-identical; the natural choice
    /// divides `replicas` so partition boundaries fall between replicas).
    pub shards: usize,
    /// Execution mode for multi-shard runs.
    pub shard_mode: ShardMode,
    /// Span ring capacity per shard (0 disables; the digest then covers
    /// stats only). Must cover the run: [`NetworkSim::digest`] rejects a
    /// wrapped ring.
    pub span_capacity: usize,
}

impl Default for MeshOptions {
    fn default() -> Self {
        MeshOptions {
            replicas: 8,
            seed: 1,
            shards: 1,
            shard_mode: ShardMode::Auto,
            span_capacity: 0,
        }
    }
}

/// A built replica mesh: the simulator plus enough address-plan context
/// to inject traffic.
pub struct MeshSim {
    /// The simulator over the whole mesh.
    pub sim: NetworkSim,
    /// Number of replicas in the mesh.
    pub replicas: usize,
}

fn offset_id(id: AsId, r: usize) -> AsId {
    AsId(id.0 + (r as u32) * REPLICA_STRIDE)
}

/// Replica `r`'s LA-side host prefix (`2001:db8:1ff::/48` offset by
/// `r * 0x1000` in the third hextet).
fn la_host_prefix(r: usize) -> IpCidr {
    format!("2001:db8:{:x}::/48", 0x1ff + r * 0x1000)
        .parse()
        .expect("static prefix template")
}

/// Replica `r`'s NY-side host prefix.
fn ny_host_prefix(r: usize) -> IpCidr {
    format!("2001:db8:{:x}::/48", 0x2ff + r * 0x1000)
        .parse()
        .expect("static prefix template")
}

/// Build the mesh: `replicas` offset copies of the Vultr topology, one
/// converged BGP engine, a [`RouterAgent`] on every node.
pub fn vultr_replica_mesh(options: &MeshOptions) -> Result<MeshSim, PairingError> {
    assert!(options.replicas >= 1, "mesh needs at least one replica");
    assert!(
        options.replicas <= 14,
        "address plan supports at most 14 replicas"
    );
    let scenario = vultr_scenario();
    let base = &scenario.topology;
    let mut topology = Topology::new();
    for r in 0..options.replicas {
        for node in base.nodes() {
            topology
                .add_node(AsNode::new(
                    offset_id(node.id, r),
                    node.kind,
                    format!("{}-r{r}", node.name),
                ))
                .expect("offset ids are unique");
        }
        // Reconstruct every edge with offset endpoints, preserving the
        // business relationship and both direction profiles.
        for node in base.nodes() {
            for &peer in base.neighbors(node.id) {
                if node.id >= peer {
                    continue; // each undirected edge once
                }
                let rel = base
                    .relationship(node.id, peer)
                    .expect("adjacency implies a link");
                let forward = base
                    .direction_profile(node.id, peer)
                    .expect("adjacency implies a profile")
                    .clone();
                let reverse = base
                    .direction_profile(peer, node.id)
                    .expect("adjacency implies a profile")
                    .clone();
                topology
                    .add_link(
                        offset_id(node.id, r),
                        offset_id(peer, r),
                        rel,
                        LinkProfile::asymmetric(forward, reverse),
                    )
                    .expect("offset edges are unique");
            }
        }
    }

    let mut bgp = BgpEngine::new(topology.clone());
    for r in 0..options.replicas {
        for (&border, prefs) in &scenario.neighbor_pref {
            let offset_prefs = prefs.iter().map(|(&n, &p)| (offset_id(n, r), p)).collect();
            bgp.set_neighbor_pref(offset_id(border, r), offset_prefs)
                .map_err(PairingError::Engine)?;
        }
        bgp.announce(offset_id(TENANT_LA, r), la_host_prefix(r), BTreeSet::new())
            .map_err(PairingError::Engine)?;
        bgp.announce(offset_id(TENANT_NY, r), ny_host_prefix(r), BTreeSet::new())
            .map_err(PairingError::Engine)?;
    }
    bgp.converge().map_err(PairingError::Engine)?;

    let mut sim = NetworkSim::new(
        topology.clone(),
        SimConfig {
            seed: options.seed,
            span_capacity: options.span_capacity,
            shards: options.shards,
            shard_mode: options.shard_mode,
            ..SimConfig::default()
        },
    );
    for node in topology.nodes() {
        let table = bgp
            .forwarding_table(node.id)
            .map_err(PairingError::Engine)?;
        sim.set_agent(node.id, Box::new(RouterAgent::new(node.id, table)));
    }
    Ok(MeshSim {
        sim,
        replicas: options.replicas,
    })
}

impl MeshSim {
    /// Inject one app packet at `time` in replica `r`: LA→NY when
    /// `toward_ny`, NY→LA otherwise. `stream` varies the source address's
    /// low bits so flows spread over ECMP lanes deterministically.
    pub fn send_app_packet(&mut self, time: SimTime, r: usize, toward_ny: bool, stream: u16) {
        assert!(r < self.replicas, "replica out of range");
        let (src_hex, dst_hex, tenant) = if toward_ny {
            (0x1ff + r * 0x1000, 0x2ff + r * 0x1000, TENANT_LA)
        } else {
            (0x2ff + r * 0x1000, 0x1ff + r * 0x1000, TENANT_NY)
        };
        let repr = Ipv6Repr {
            src_addr: format!("2001:db8:{:x}::{:x}", src_hex, u32::from(stream) + 1)
                .parse()
                .expect("static address template"),
            dst_addr: format!("2001:db8:{:x}::1", dst_hex)
                .parse()
                .expect("static address template"),
            next_header: 17,
            payload_len: PAYLOAD_BYTES,
            hop_limit: 64,
            traffic_class: 0,
            flow_label: 0,
        };
        let mut buf = vec![0u8; repr.total_len()];
        let mut view = Ipv6Packet::new_unchecked(&mut buf);
        repr.emit(&mut view).expect("buffer sized by total_len");
        self.sim
            .schedule_host_packet(time, offset_id(tenant, r), Packet::new(buf));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(replicas: usize, shards: usize, mode: ShardMode, seed: u64) -> String {
        let mut mesh = vultr_replica_mesh(&MeshOptions {
            replicas,
            seed,
            shards,
            shard_mode: mode,
            span_capacity: 4096,
        })
        .expect("mesh builds");
        let mut t = SimTime::from_ms(1);
        for i in 0..200u16 {
            let r = usize::from(i) % replicas;
            mesh.send_app_packet(t, r, i % 2 == 0, i);
            t += SimTime::from_us(250);
        }
        mesh.sim.run_until(SimTime::from_secs(1));
        mesh.sim.digest()
    }

    #[test]
    fn replicas_deliver_and_stay_isolated() {
        let mut mesh = vultr_replica_mesh(&MeshOptions {
            replicas: 2,
            ..MeshOptions::default()
        })
        .expect("mesh builds");
        mesh.send_app_packet(SimTime::from_ms(1), 0, true, 0);
        mesh.send_app_packet(SimTime::from_ms(1), 1, false, 1);
        mesh.sim.run_until(SimTime::from_secs(1));
        // Each packet crosses tenant → border → transit → border → tenant:
        // 4 transmissions and 4 deliveries per packet, none lost between
        // replicas.
        assert_eq!(mesh.sim.stats().deliveries, 8);
        assert_eq!(mesh.sim.stats().no_link, 0);
        assert_eq!(mesh.sim.stats().lost_link, 0);
    }

    #[test]
    fn mesh_digest_is_shard_invariant() {
        let baseline = run(2, 1, ShardMode::Serial, 9);
        assert_eq!(run(2, 2, ShardMode::Serial, 9), baseline);
        assert_eq!(run(2, 2, ShardMode::Threaded, 9), baseline);
        // The counters alone rarely move with the seed; the span stream does.
        #[cfg(feature = "trace")]
        assert_ne!(run(2, 1, ShardMode::Serial, 10), baseline, "seed matters");
    }

    #[test]
    fn replica_partition_has_unbounded_lookahead() {
        let mesh = vultr_replica_mesh(&MeshOptions {
            replicas: 4,
            shards: 4,
            ..MeshOptions::default()
        })
        .expect("mesh builds");
        assert_eq!(mesh.sim.shard_count(), 4);
        assert_eq!(
            mesh.sim.shard_lookahead_ns(),
            u64::MAX,
            "no link crosses replicas, so shards never need to synchronize"
        );
    }
}
