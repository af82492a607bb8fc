//! §6 "From Tango of 2 to Tango of N": pair every edge site with every
//! other over a randomly generated Internet-like topology, and tabulate
//! how much path diversity and delay improvement cooperation exposes for
//! each pair.
//!
//! ```sh
//! cargo run --release --example tango_of_n [n_sites] [seed]
//! ```

use tango::prelude::*;
use tango_control::SideConfig;
use tango_net::Ipv6Cidr;
use tango_topology::gen::{generate, GenParams};

fn block_for(site: usize, role: usize) -> Ipv6Cidr {
    // Two /44s per site (one per pairing role) out of 2001:db8::/32.
    let base: Ipv6Cidr = "2001:db8::/32".parse().expect("static");
    base.subnet(44, (site * 2 + role) as u128).expect("fits")
}

fn host_prefix_for(site: usize) -> Ipv6Cidr {
    let base: Ipv6Cidr = "2001:db9::/32".parse().expect("static");
    base.subnet(48, site as u128).expect("fits")
}

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(3);

    let generated = generate(&GenParams {
        transits: 8,
        edges: n,
        transit_peering_prob: 0.45,
        providers_per_edge: (2, 4),
        seed,
        ..GenParams::default()
    });
    println!(
        "generated topology: {} transits, {} edge sites, {} links (seed {seed})\n",
        generated.transits.len(),
        generated.edge_sites.len(),
        generated.topology.link_count()
    );

    println!(
        "{:<12} {:>6} {:>6} {:>12} {:>12} {:>8}",
        "pair", "paths>", "paths<", "default(ms)", "best(ms)", "gain"
    );
    let mut total_paths = 0usize;
    let mut pairs = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            let a = generated.edge_sites[i];
            let b = generated.edge_sites[j];
            // In the generated graph the edge site is its own border (it
            // multihomes directly to transits), so tenant == border's
            // customer is collapsed: treat the site node as the tenant
            // and pick its first provider as "border"? No: the site IS
            // the Tango switch and speaks BGP itself — the multi-homed
            // enterprise case of §2. Discovery suppression then applies
            // at the site itself.
            let side = |site: tango_topology::AsId, idx: usize, role: usize| SideConfig {
                tenant: site,
                border: site, // self-bordered: the site runs its own BGP
                block: block_for(idx, role),
                host_prefix: tango_net::IpCidr::V6(host_prefix_for(idx)),
            };
            let result = TangoPairing::build(
                generated.topology.clone(),
                std::iter::empty(),
                side(a, i, 0),
                side(b, j, 1),
                PairingOptions {
                    seed: seed ^ (i as u64) << 8 ^ j as u64,
                    ..Default::default()
                },
            );
            let mut pairing = match result {
                Ok(p) => p,
                Err(e) => {
                    println!("{:<12} unpairable: {e}", format!("E{i}-E{j}"));
                    continue;
                }
            };
            pairing.run_until(SimTime::from_secs(10));
            let fwd = pairing.provisioned.from(Side::A).paths.len();
            let rev = pairing.provisioned.from(Side::B).paths.len();
            let default = pairing.mean_owd_ms(Side::A, 0).unwrap_or(f64::NAN);
            let best = (0..rev)
                .filter_map(|p| pairing.mean_owd_ms(Side::A, p as u16))
                .fold(f64::INFINITY, f64::min);
            println!(
                "{:<12} {fwd:>6} {rev:>6} {default:>12.2} {best:>12.2} {:>7.1}%",
                format!("E{i}-E{j}"),
                (default / best - 1.0) * 100.0
            );
            total_paths += fwd + rev;
            pairs += 1;
        }
    }
    if pairs > 0 {
        println!(
            "\n{} pairings, {:.1} usable wide-area paths per direction on average.",
            pairs,
            total_paths as f64 / (pairs * 2) as f64
        );
        println!("Each pairing is a building block of the §6 N-party overlay.");
    }
}
