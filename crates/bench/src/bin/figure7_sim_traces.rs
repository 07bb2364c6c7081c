//! Fig. 7 from the simulator: virtual-time traces of a 4-node run with the
//! calibrated 2001-hardware demands, complementing `figure7_traces` (real
//! threads, real text, wall-clock milliseconds).

use cluster_sim::workload::{QaSimulation, SimConfig, SimEventKind};
use scheduler::partition::PartitionStrategy;

fn main() {
    for (label, strategy) in [
        ("(a) SEND for AP", PartitionStrategy::Send),
        ("(b) ISEND for AP", PartitionStrategy::Isend),
        (
            "(c) RECV for AP (40-paragraph chunks)",
            PartitionStrategy::Recv { chunk_size: 40 },
        ),
    ] {
        let cfg = SimConfig {
            record_trace: true,
            ..SimConfig::paper_low_load(4, strategy, 1, 226)
        };
        let r = QaSimulation::new(cfg).run();
        println!("Figure 7 {label} — virtual seconds, calibrated Pentium-III demands\n");
        for e in &r.trace {
            let line = match e.kind {
                SimEventKind::Submitted { dns, home } => {
                    format!("question started on {home} (DNS chose {dns})")
                }
                SimEventKind::PrChunkDone { node, collection } => {
                    format!("{node} finished collection C{collection}")
                }
                SimEventKind::PoMerged { node } => format!("{node} merged + ordered paragraphs"),
                SimEventKind::ApBatchDone { node, paragraphs } => {
                    format!("{node} finished {paragraphs} paragraphs")
                }
                SimEventKind::Completed { node } => format!("{node} sorted final answers"),
                SimEventKind::Rejected => "question rejected at admission".to_string(),
                SimEventKind::Shed { module } => {
                    format!("{module} shed: deadline budget too short")
                }
            };
            println!("  [{:>8.2}s] {line}", e.at);
        }
        println!();
    }
    println!("compare (a)'s uneven batch completions against (b)'s tight window and");
    println!("(c)'s many small pulls — the contrast of the paper's three listings");
}
