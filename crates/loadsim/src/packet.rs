//! The broadcast load packet.

use qa_types::{NodeId, ResourceVector};

/// One load-monitor broadcast: the paper's `S_load`-byte packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadPacket {
    /// Sender.
    pub node: NodeId,
    /// CPU and disk load at measurement time (utilization ∈ [0, ∞); values
    /// above 1 mean queued work beyond one busy server).
    pub load: ResourceVector,
    /// Bytes of memory in use.
    pub memory_used: u64,
    /// Number of questions currently hosted.
    pub questions: u32,
    /// Sender-local timestamp (seconds).
    pub sent_at: f64,
}
