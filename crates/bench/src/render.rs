//! Small helpers for printing paper-style tables.

/// Format a bandwidth in bytes/s as the paper writes it ("100 Mbps").
pub fn fmt_bandwidth(bytes_per_sec: f64) -> String {
    let mbps = bytes_per_sec * 8.0 / 1_000_000.0;
    if mbps >= 1000.0 {
        format!("{} Gbps", mbps / 1000.0)
    } else {
        format!("{mbps} Mbps")
    }
}

/// Render one table row of f64 cells with a label.
pub fn row(label: &str, cells: &[f64], precision: usize) -> String {
    let mut s = format!("{label:<16}");
    for c in cells {
        s.push_str(&format!(" {c:>10.precision$}"));
    }
    s
}

/// The verdict a table binary prints after "shape check: <claim>": `holds`,
/// or the cluster sizes whose printed row breaks the claim.
pub fn shape_verdict(broken: &[usize]) -> String {
    if broken.is_empty() {
        return "holds".to_string();
    }
    let sizes: Vec<String> = broken.iter().map(|n| n.to_string()).collect();
    format!("does NOT hold at {} processors", sizes.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_formatting() {
        assert_eq!(fmt_bandwidth(125_000.0), "1 Mbps");
        assert_eq!(fmt_bandwidth(12_500_000.0), "100 Mbps");
        assert_eq!(fmt_bandwidth(125_000_000.0), "1 Gbps");
    }

    #[test]
    fn shape_verdict_names_the_sizes_that_break_the_claim() {
        assert_eq!(shape_verdict(&[]), "holds");
        assert_eq!(shape_verdict(&[4, 12]), "does NOT hold at 4, 12 processors");
    }

    #[test]
    fn row_formatting() {
        let r = row("DNS", &[2.64, 5.04], 2);
        assert!(r.starts_with("DNS"));
        assert!(r.contains("2.64"));
    }
}
