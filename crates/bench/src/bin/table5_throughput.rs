//! Table 5: system throughput (questions/minute) under the three
//! load-balancing strategies at high load. Averaged over five seeds (a
//! single simulated run is as noisy as a single hardware run).

use bench::render::shape_verdict;
use cluster_sim::experiments::load_balancing_summary;

const SEEDS: [u64; 5] = [2001, 2002, 2003, 2004, 2005];
const PAPER: [(usize, f64, f64, f64); 3] = [
    (4, 2.64, 3.45, 4.18),
    (8, 5.04, 5.52, 7.77),
    (12, 7.89, 9.71, 12.09),
];

fn main() {
    println!(
        "Table 5 — throughput (questions/minute, mean of {} runs)\n",
        SEEDS.len()
    );
    println!(
        "{:<14}{:>8}{:>8}{:>8}{:>26}",
        "", "DNS", "INTER", "DQA", "paper (DNS/INTER/DQA)"
    );
    let mut broken = Vec::new();
    for &(nodes, pd, pi, pq) in &PAPER {
        let s = load_balancing_summary(nodes, &SEEDS);
        let [dns, inter, dqa] = s.throughput;
        if !(dns < inter && inter < dqa) {
            broken.push(nodes);
        }
        println!(
            "{:<14}{:>8.2}{:>8.2}{:>8.2}{:>14.2}{:>6.2}{:>6.2}",
            format!("{nodes} processors"),
            s.throughput[0],
            s.throughput[1],
            s.throughput[2],
            pd,
            pi,
            pq
        );
    }
    println!(
        "\nshape check: DNS < INTER < DQA at every size: {}",
        shape_verdict(&broken)
    );
}
