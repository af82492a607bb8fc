//! Convenience constructors for the paper's Vultr NY/LA deployment.
//!
//! Side A = Los Angeles, side B = New York. Address plan (mirroring the
//! prototype's "four different /48 prefixes" out of an institutional
//! block, §4.1):
//!
//! * LA tunnel block `2001:db8:100::/44`, hosts `2001:db8:1ff::/48`
//! * NY tunnel block `2001:db8:200::/44`, hosts `2001:db8:2ff::/48`

use crate::pairing::{PairingError, PairingOptions, TangoPairing};
use tango_control::SideConfig;
use tango_topology::vultr::{vultr_scenario, TENANT_LA, TENANT_NY, VULTR_LA, VULTR_NY};
use tango_topology::LinkEvent;

/// The LA side configuration used by [`vultr_pairing`].
pub fn la_side() -> SideConfig {
    SideConfig {
        tenant: TENANT_LA,
        border: VULTR_LA,
        block: "2001:db8:100::/44".parse().expect("static"),
        host_prefix: "2001:db8:1ff::/48".parse().expect("static"),
    }
}

/// The NY side configuration used by [`vultr_pairing`].
pub fn ny_side() -> SideConfig {
    SideConfig {
        tenant: TENANT_NY,
        border: VULTR_NY,
        block: "2001:db8:200::/44".parse().expect("static"),
        host_prefix: "2001:db8:2ff::/48".parse().expect("static"),
    }
}

/// Build the paper's two-DC deployment: side A = LA, side B = NY.
pub fn vultr_pairing(options: PairingOptions) -> Result<TangoPairing, PairingError> {
    vultr_pairing_with_events(Vec::new(), options)
}

/// Same, with scheduled wide-area events (the Fig. 4 route change /
/// instability) added to the topology before the simulator starts.
pub fn vultr_pairing_with_events(
    events: Vec<LinkEvent>,
    options: PairingOptions,
) -> Result<TangoPairing, PairingError> {
    let scenario = vultr_scenario();
    let mut topology = scenario.topology.clone();
    for ev in events {
        topology
            .add_event(ev)
            .expect("events target scenario links");
    }
    TangoPairing::build(
        topology,
        scenario.neighbor_pref,
        la_side(),
        ny_side(),
        options,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairing::Side;
    use tango_sim::SimTime;

    #[test]
    fn vultr_pairing_builds_and_probes() {
        let mut p = vultr_pairing(PairingOptions::default()).unwrap();
        assert_eq!(p.provisioned.from(Side::A).tunnels.len(), 4);
        assert_eq!(
            p.labels_into(Side::A),
            vec!["NTT", "Telia", "GTT", "Level3"],
            "NY→LA labels in discovery order"
        );
        assert_eq!(
            p.labels_into(Side::B),
            vec!["NTT", "Telia", "GTT", "Cogent"],
            "LA→NY labels"
        );
        p.run_until(SimTime::from_secs(5));
        // All four paths measured in both directions.
        for side in [Side::A, Side::B] {
            for path in 0..4 {
                let mean = p.mean_owd_ms(side, path).unwrap();
                assert!((25.0..45.0).contains(&mean), "{side:?}/{path}: {mean}");
            }
        }
        // The headline: default ≈ 30 % worse than best.
        let ratio = p.mean_owd_ms(Side::A, 0).unwrap() / p.mean_owd_ms(Side::A, 2).unwrap();
        assert!((1.25..1.35).contains(&ratio), "ratio {ratio}");
    }
}
