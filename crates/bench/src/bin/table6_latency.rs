//! Table 6: average question response times (seconds) under the three
//! load-balancing strategies at high load, averaged over five seeds.

use bench::render::shape_verdict;
use cluster_sim::experiments::load_balancing_summary;

const SEEDS: [u64; 5] = [2001, 2002, 2003, 2004, 2005];
const PAPER: [(usize, f64, f64, f64); 3] = [
    (4, 143.88, 122.51, 111.85),
    (8, 135.30, 118.82, 113.53),
    (12, 132.45, 115.29, 106.03),
];

fn main() {
    println!(
        "Table 6 — average question response times (seconds, mean of {} runs)\n",
        SEEDS.len()
    );
    println!(
        "{:<14}{:>9}{:>9}{:>9}{:>30}",
        "", "DNS", "INTER", "DQA", "paper (DNS/INTER/DQA)"
    );
    let mut broken = Vec::new();
    for &(nodes, pd, pi, pq) in &PAPER {
        let s = load_balancing_summary(nodes, &SEEDS);
        let [dns, inter, dqa] = s.response_time;
        if !(dqa < dns && dqa < inter) {
            broken.push(nodes);
        }
        println!(
            "{:<14}{:>9.1}{:>9.1}{:>9.1}{:>14.1}{:>8.1}{:>8.1}",
            format!("{nodes} processors"),
            s.response_time[0],
            s.response_time[1],
            s.response_time[2],
            pd,
            pi,
            pq
        );
    }
    println!(
        "\nshape check: DQA lowest latency at every size: {}",
        shape_verdict(&broken)
    );
    println!("(absolute values differ: our open-loop burst holds more questions in");
    println!(" flight than the paper's; the strategy ordering is the result)");
}
