//! The three partitioning algorithms of §4.1.
//!
//! All three assume the task is *iterative* — a sequence of items
//! (sub-collections for PR, paragraphs for PS/AP):
//!
//! * **SEND** (Fig. 5a): the item array is split into *consecutive* runs
//!   sized by the processor weights. Assumes sub-task granularity does not
//!   vary much between items.
//! * **ISEND** (Fig. 5b): items are dealt round-robin so each partition
//!   still receives its weighted count but items are *interleaved*. Assumes
//!   the item array is sorted by decreasing granularity (true for AP input,
//!   which PO sorts by rank).
//! * **RECV** (Fig. 6a): the item array is cut into equal-size chunks that
//!   receivers pull one at a time; no granularity assumption at all.

/// Which partitioning algorithm a dispatcher uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// Sender-controlled, contiguous weighted split.
    Send,
    /// Sender-controlled, interleaved weighted split.
    Isend,
    /// Receiver-controlled fixed-size chunks.
    Recv {
        /// Items per chunk (≥ 1). Fig. 10 sweeps this; 40 is optimal on the
        /// paper's platform.
        chunk_size: usize,
    },
}

/// Convert normalized weights into integer item counts summing to `total`
/// (largest-remainder apportionment, deterministic on ties by index).
pub fn partition_counts(total: usize, weights: &[f64]) -> Vec<usize> {
    if weights.is_empty() {
        return Vec::new();
    }
    let sum: f64 = weights.iter().sum();
    if sum <= 0.0 {
        // Degenerate: uniform.
        let base = total / weights.len();
        let mut counts = vec![base; weights.len()];
        for c in counts.iter_mut().take(total % weights.len()) {
            *c += 1;
        }
        return counts;
    }
    let exact: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut assigned: usize = counts.iter().sum();
    // Distribute the remainder to the largest fractional parts.
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = exact[a] - exact[a].floor();
        let fb = exact[b] - exact[b].floor();
        fb.partial_cmp(&fa)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut i = 0;
    while assigned < total {
        counts[order[i % order.len()]] += 1;
        assigned += 1;
        i += 1;
    }
    counts
}

/// SEND: consecutive runs sized by weights (Fig. 5a).
///
/// # Examples
/// ```
/// use scheduler::partition::partition_send;
/// let parts = partition_send((0..10).collect(), &[0.5, 0.5]);
/// assert_eq!(parts[0], vec![0, 1, 2, 3, 4]);
/// assert_eq!(parts[1], vec![5, 6, 7, 8, 9]);
/// ```
pub fn partition_send<T>(items: Vec<T>, weights: &[f64]) -> Vec<Vec<T>> {
    let counts = partition_counts(items.len(), weights);
    let mut out: Vec<Vec<T>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
    let mut it = items.into_iter();
    for (part, &c) in out.iter_mut().zip(&counts) {
        part.extend(it.by_ref().take(c));
    }
    out
}

/// ISEND: round-robin interleave honoring weighted counts (Fig. 5b).
///
/// Items are dealt cyclically across partitions, skipping partitions that
/// have already reached their weighted count, so the `k`-th heaviest items
/// spread evenly instead of clustering in one partition.
///
/// # Examples
/// ```
/// use scheduler::partition::partition_isend;
/// // Items sorted by decreasing cost: the heavy head spreads across both.
/// let parts = partition_isend((0..6).collect(), &[0.5, 0.5]);
/// assert_eq!(parts[0], vec![0, 2, 4]);
/// assert_eq!(parts[1], vec![1, 3, 5]);
/// ```
pub fn partition_isend<T>(items: Vec<T>, weights: &[f64]) -> Vec<Vec<T>> {
    let counts = partition_counts(items.len(), weights);
    let n = counts.len();
    let mut out: Vec<Vec<T>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
    if n == 0 {
        return out;
    }
    let mut next = 0usize;
    for item in items {
        // Find the next partition with remaining capacity.
        let mut tries = 0;
        while out[next].len() >= counts[next] {
            next = (next + 1) % n;
            tries += 1;
            debug_assert!(tries <= n, "counts sum to items.len()");
        }
        out[next].push(item);
        next = (next + 1) % n;
    }
    out
}

/// RECV: cut into equal-size chunks (Fig. 6a). The final chunk absorbs the
/// remainder ("chunk k extended to include the last item") when the
/// remainder is smaller than half a chunk; otherwise it becomes its own
/// chunk.
pub fn partition_recv<T>(items: Vec<T>, chunk_size: usize) -> Vec<Vec<T>> {
    let chunk_size = chunk_size.max(1);
    let total = items.len();
    if total == 0 {
        return Vec::new();
    }
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(total / chunk_size + 1);
    let mut it = items.into_iter();
    loop {
        let chunk: Vec<T> = it.by_ref().take(chunk_size).collect();
        if chunk.is_empty() {
            break;
        }
        chunks.push(chunk);
    }
    // Pad the last chunk into the previous one when it is a small remainder.
    if chunks.len() >= 2 {
        let last_len = chunks.last().map(Vec::len).unwrap_or(0);
        if last_len * 2 < chunk_size {
            let last = chunks.pop().expect("len >= 2");
            chunks.last_mut().expect("len >= 1").extend(last);
        }
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_sum_and_follow_weights() {
        let c = partition_counts(441, &[0.25, 0.25, 0.25, 0.25]);
        assert_eq!(c.iter().sum::<usize>(), 441);
        // 441 / 4 = 110.25 → three 110s and one 111 (first index wins tie).
        assert!(c.iter().all(|&x| x == 110 || x == 111));
        let c = partition_counts(100, &[0.7, 0.2, 0.1]);
        assert_eq!(c, vec![70, 20, 10]);
    }

    #[test]
    fn counts_zero_weights_uniform() {
        let c = partition_counts(10, &[0.0, 0.0, 0.0]);
        assert_eq!(c.iter().sum::<usize>(), 10);
        assert_eq!(c, vec![4, 3, 3]);
    }

    #[test]
    fn counts_empty_weights() {
        assert!(partition_counts(5, &[]).is_empty());
    }

    #[test]
    fn send_partitions_are_consecutive() {
        let items: Vec<u32> = (0..10).collect();
        let parts = partition_send(items, &[0.5, 0.3, 0.2]);
        assert_eq!(parts[0], (0..5).collect::<Vec<_>>());
        assert_eq!(parts[1], (5..8).collect::<Vec<_>>());
        assert_eq!(parts[2], (8..10).collect::<Vec<_>>());
    }

    #[test]
    fn isend_interleaves_heavy_items() {
        // Items sorted by decreasing granularity (index 0 heaviest): the
        // first `n` items must land in `n` distinct partitions.
        let items: Vec<u32> = (0..12).collect();
        let parts = partition_isend(items, &[0.25, 0.25, 0.25, 0.25]);
        assert_eq!(parts.len(), 4);
        for p in &parts {
            assert_eq!(p.len(), 3);
        }
        assert_eq!(parts[0], vec![0, 4, 8]);
        assert_eq!(parts[1], vec![1, 5, 9]);
        assert_eq!(parts[2], vec![2, 6, 10]);
        assert_eq!(parts[3], vec![3, 7, 11]);
    }

    #[test]
    fn isend_respects_weighted_counts() {
        let items: Vec<u32> = (0..10).collect();
        let parts = partition_isend(items, &[0.6, 0.4]);
        assert_eq!(parts[0].len(), 6);
        assert_eq!(parts[1].len(), 4);
        // Everything assigned exactly once.
        let mut all: Vec<u32> = parts.concat();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn isend_balances_weighted_sum_of_sorted_granularities() {
        // Granularities decreasing 100, 99, ... 1; two equal partitions.
        let items: Vec<u32> = (1..=100).rev().collect();
        let parts = partition_isend(items.clone(), &[0.5, 0.5]);
        let sum0: u32 = parts[0].iter().sum();
        let sum1: u32 = parts[1].iter().sum();
        let imbalance = (sum0 as i64 - sum1 as i64).abs();
        // SEND would give |sum0 - sum1| = 2500; ISEND stays tiny.
        assert!(imbalance <= 100, "imbalance {imbalance}");
        let send_parts = partition_send(items, &[0.5, 0.5]);
        let ssum0: u32 = send_parts[0].iter().sum();
        let ssum1: u32 = send_parts[1].iter().sum();
        assert!((ssum0 as i64 - ssum1 as i64).abs() > imbalance);
    }

    #[test]
    fn recv_chunks_equal_size_with_padded_tail() {
        let items: Vec<u32> = (0..9).collect();
        let chunks = partition_recv(items, 2);
        // 2,2,2,2,1 → the final 1-item remainder (1*2 < 2 is false) stays.
        assert_eq!(chunks.len(), 5);
        assert_eq!(chunks[4], vec![8]);

        let items: Vec<u32> = (0..10).collect();
        let chunks = partition_recv(items, 4);
        // 4,4,2 → remainder 2, 2*2 >= 4 keeps it separate.
        assert_eq!(chunks.len(), 3);

        let items: Vec<u32> = (0..9).collect();
        let chunks = partition_recv(items, 4);
        // 4,4,1 → remainder 1, 1*2 < 4 folds into previous: 4,5.
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[1].len(), 5);
    }

    #[test]
    fn recv_edge_cases() {
        assert!(partition_recv(Vec::<u32>::new(), 4).is_empty());
        let chunks = partition_recv(vec![1, 2, 3], 0);
        assert_eq!(chunks.len(), 3, "chunk size clamps to 1");
        let chunks = partition_recv(vec![1, 2], 10);
        assert_eq!(chunks.len(), 1);
    }

    #[test]
    fn all_strategies_preserve_every_item() {
        let items: Vec<u32> = (0..57).collect();
        for parts in [
            partition_send(items.clone(), &[0.4, 0.35, 0.25]),
            partition_isend(items.clone(), &[0.4, 0.35, 0.25]),
            partition_recv(items.clone(), 8),
        ] {
            let mut all: Vec<u32> = parts.concat();
            all.sort_unstable();
            assert_eq!(all, items);
        }
    }
}
