//! Series generators for the paper's analytical figures and Table 4.

use crate::inter::InterQuestionModel;
use crate::intra::IntraQuestionModel;
use qa_types::params::{GBPS, MBPS};
use qa_types::{SystemParams, Trec9Profile};

/// One point of a speedup curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupPoint {
    /// Processor count.
    pub n: usize,
    /// Speedup at `n`.
    pub speedup: f64,
}

/// One cell of Table 4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table4Cell {
    /// Disk bandwidth (bytes/s).
    pub disk_bandwidth: f64,
    /// Network bandwidth (bytes/s).
    pub net_bandwidth: f64,
    /// Practical processor limit `N_max` (Eq. 34).
    pub n_max: usize,
    /// Speedup at `N_max`.
    pub speedup: f64,
}

/// Fig. 8a: analytical *system* speedup vs processors for network bandwidths
/// of 10 Mbps, 100 Mbps and 1 Gbps. Returns one `(bandwidth, curve)` per
/// network.
pub fn figure8a(max_n: usize, step: usize) -> Vec<(f64, Vec<SpeedupPoint>)> {
    let nets = [10.0 * MBPS, 100.0 * MBPS, GBPS];
    nets.iter()
        .map(|&net| {
            let model = InterQuestionModel::new(
                SystemParams::trec9().with_net_bandwidth(net),
                Trec9Profile::average(),
            );
            let curve = (1..=max_n)
                .step_by(step.max(1))
                .map(|n| SpeedupPoint {
                    n,
                    speedup: model.speedup(n),
                })
                .collect();
            (net, curve)
        })
        .collect()
}

/// Fig. 9a: analytical *question* speedup vs processors at 1 Gbps disk for
/// network bandwidths of 1, 10, 100 Mbps and 1 Gbps.
pub fn figure9a(max_n: usize, step: usize) -> Vec<(f64, Vec<SpeedupPoint>)> {
    let nets = [MBPS, 10.0 * MBPS, 100.0 * MBPS, GBPS];
    nets.iter()
        .map(|&net| (net, intra_curve(net, GBPS, max_n, step)))
        .collect()
}

/// Fig. 9b: analytical *question* speedup vs processors at 1 Gbps network
/// for disk bandwidths of 100, 250, 500 Mbps and 1 Gbps.
pub fn figure9b(max_n: usize, step: usize) -> Vec<(f64, Vec<SpeedupPoint>)> {
    let disks = [100.0 * MBPS, 250.0 * MBPS, 500.0 * MBPS, GBPS];
    disks
        .iter()
        .map(|&disk| (disk, intra_curve(GBPS, disk, max_n, step)))
        .collect()
}

fn intra_curve(net: f64, disk: f64, max_n: usize, step: usize) -> Vec<SpeedupPoint> {
    let model = IntraQuestionModel::new(
        SystemParams::trec9()
            .with_net_bandwidth(net)
            .with_disk_bandwidth(disk),
        Trec9Profile::complex(),
    );
    (1..=max_n)
        .step_by(step.max(1))
        .map(|n| SpeedupPoint {
            n,
            speedup: model.speedup(n),
        })
        .collect()
}

/// Table 4: practical processor limits and speedups over the paper's
/// 4×4 disk × network bandwidth grid.
pub fn table4() -> Vec<Table4Cell> {
    let disks = [100.0 * MBPS, 250.0 * MBPS, 500.0 * MBPS, GBPS];
    let nets = [MBPS, 10.0 * MBPS, 100.0 * MBPS, GBPS];
    let mut out = Vec::with_capacity(16);
    for &disk in &disks {
        for &net in &nets {
            let model = IntraQuestionModel::new(
                SystemParams::trec9()
                    .with_net_bandwidth(net)
                    .with_disk_bandwidth(disk),
                Trec9Profile::complex(),
            );
            let (n_max, speedup) = model.practical_limit();
            out.push(Table4Cell {
                disk_bandwidth: disk,
                net_bandwidth: net,
                n_max,
                speedup,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure8a_has_three_ordered_curves() {
        let fig = figure8a(1000, 100);
        assert_eq!(fig.len(), 3);
        // Faster network → higher curve at N = 1000-ish.
        let last: Vec<f64> = fig.iter().map(|(_, c)| c.last().unwrap().speedup).collect();
        assert!(last[0] < last[1] && last[1] < last[2], "{last:?}");
    }

    #[test]
    fn figure9a_curves_increase_with_net_bandwidth() {
        let fig = figure9a(200, 20);
        assert_eq!(fig.len(), 4);
        let at_100: Vec<f64> = fig
            .iter()
            .map(|(_, c)| c.iter().find(|p| p.n >= 100).unwrap().speedup)
            .collect();
        for w in at_100.windows(2) {
            assert!(w[0] < w[1], "{at_100:?}");
        }
    }

    #[test]
    fn figure9b_curves_decrease_with_disk_bandwidth() {
        let fig = figure9b(200, 20);
        assert_eq!(fig.len(), 4);
        let at_100: Vec<f64> = fig
            .iter()
            .map(|(_, c)| c.iter().find(|p| p.n >= 100).unwrap().speedup)
            .collect();
        for w in at_100.windows(2) {
            assert!(w[0] >= w[1], "Fig 9b ordering violated: {at_100:?}");
        }
    }

    #[test]
    fn table4_is_full_grid_with_sane_cells() {
        let t = table4();
        assert_eq!(t.len(), 16);
        for c in &t {
            assert!(c.n_max >= 5 && c.n_max <= 150, "N_max {}", c.n_max);
            assert!(c.speedup > 1.0 && c.speedup < 100.0);
            // Speedup at the practical limit is roughly half the asymptote,
            // i.e. close to N/2 (the paper's cells all satisfy this).
            let ratio = c.speedup / (c.n_max as f64);
            assert!((0.35..=0.65).contains(&ratio), "ratio {ratio}");
        }
    }

    #[test]
    fn table4_monotone_in_net_bandwidth_within_rows() {
        let t = table4();
        for row in t.chunks(4) {
            for w in row.windows(2) {
                assert!(w[0].n_max <= w[1].n_max);
                assert!(w[0].speedup <= w[1].speedup + 1e-9);
            }
        }
    }
}
