//! Quickstart: stand up the paper's two-datacenter deployment, probe all
//! wide-area paths for a minute of simulated time, and report what
//! cooperation bought us.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use tango::prelude::*;

fn main() {
    // Side A = Vultr Los Angeles, side B = Vultr New York (§4). This
    // builds the AS topology, converges BGP, runs the §4.1 community
    // discovery in both directions, announces one pinned /48 per path,
    // and installs the eBPF-equivalent switch on both tenant servers.
    let mut pairing = tango::vultr_pairing(PairingOptions {
        seed: 42,
        probe_period: Some(SimTime::from_ms(10)), // one probe per path per 10 ms (§5)
        ..PairingOptions::default()
    })
    .expect("vultr scenario provisions");

    println!("== discovered wide-area paths (Fig. 3) ==");
    for (dir, paths) in [
        ("LA -> NY", &pairing.provisioned.from(Side::A).paths),
        ("NY -> LA", &pairing.provisioned.from(Side::B).paths),
    ] {
        for (i, p) in paths.iter().enumerate() {
            let transits: Vec<String> = p.transit_path.iter().map(|a| a.to_string()).collect();
            println!(
                "  {dir} path {i}: [{}]  pinned by {} communit{}",
                transits.join(" "),
                p.pin_communities.len(),
                if p.pin_communities.len() == 1 {
                    "y"
                } else {
                    "ies"
                },
            );
        }
    }

    // One simulated minute of probing (~6000 samples per path).
    pairing.run_until(SimTime::from_secs(60));

    println!("\n== one-way delay, NY -> LA (measured at the LA switch) ==");
    let labels = pairing.labels_into(Side::A);
    let mut best: Option<(usize, f64)> = None;
    for (i, label) in labels.iter().enumerate() {
        let sink = pairing.stats(Side::A).lock();
        let path = sink.path(i as u16).expect("probed");
        let mean = path.owd.mean().unwrap() / 1e6;
        let jitter = path.jitter_ns().unwrap() / 1e6;
        println!("  {label:<8} mean {mean:6.2} ms   rolling-1s jitter {jitter:.3} ms");
        if best.map(|(_, b)| mean < b).unwrap_or(true) {
            best = Some((i, mean));
        }
    }
    let (best_idx, best_ms) = best.expect("four paths measured");
    let default_ms = pairing.mean_owd_ms(Side::A, 0).unwrap();
    println!(
        "\nBGP default ({}) is {:.0}% worse than the best path ({}).",
        labels[0],
        (default_ms / best_ms - 1.0) * 100.0,
        labels[best_idx],
    );
    println!("Tango exposes the difference — and the tunnels to act on it.");
}
