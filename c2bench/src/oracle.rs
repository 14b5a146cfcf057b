//! Reference oracles written independently of the library under test:
//! exact Jaccard by a sorted merge, the paper's Eq. 2 quality on a fixed
//! user sample, and the exhaustive top-k under the GoldFinger estimate
//! recomputed from raw fingerprint words.

use cnc_dataset::Dataset;
use cnc_graph::KnnGraph;
use std::cmp::Ordering;

/// Exact Jaccard similarity of two strictly increasing item lists.
pub fn jaccard(a: &[u32], b: &[u32]) -> f64 {
    let (mut i, mut j, mut inter) = (0, 0, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - inter;
    if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    }
}

/// The GoldFinger estimate popcount(a AND b) / popcount(a OR b).
pub fn fingerprint_estimate(a: &[u64], b: &[u64]) -> f64 {
    let (mut inter, mut union) = (0u32, 0u32);
    for (x, y) in a.iter().zip(b) {
        inter += (x & y).count_ones();
        union += (x | y).count_ones();
    }
    if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    }
}

/// Sum of the `k` largest values (fewer when `values` is shorter).
fn top_sum(mut values: Vec<f64>, k: usize) -> f64 {
    if values.len() > k {
        values.select_nth_unstable_by(k - 1, |a, b| b.total_cmp(a));
        values.truncate(k);
    }
    values.iter().sum()
}

/// Eq. 2 restricted to a fixed sample of users: the exact similarity
/// summed over the graph's edges of the sampled users, divided by the
/// same sum over their exact k nearest neighbours. Missing edges count 0.
pub struct QualityOracle {
    sample: Vec<u32>,
    exact_sum: f64,
}

impl QualityOracle {
    /// Brute-forces the exact top-`k` of every sampled user on `threads`
    /// threads.
    pub fn new(dataset: &Dataset, sample: Vec<u32>, k: usize, threads: usize) -> Self {
        let chunk = sample.len().div_ceil(threads.max(1)).max(1);
        let exact_sum = std::thread::scope(|scope| {
            let handles: Vec<_> = sample
                .chunks(chunk)
                .map(|part| {
                    scope.spawn(move || {
                        part.iter()
                            .map(|&u| {
                                let pu = dataset.profile(u);
                                let sims = dataset
                                    .iter()
                                    .filter(|&(v, _)| v != u)
                                    .map(|(_, pv)| jaccard(pu, pv))
                                    .collect();
                                top_sum(sims, k)
                            })
                            .sum::<f64>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("oracle thread panicked")).sum()
        });
        QualityOracle { sample, exact_sum }
    }

    /// Eq. 2 of `graph` on the sample.
    pub fn quality(&self, dataset: &Dataset, graph: &KnnGraph) -> f64 {
        let approx: f64 = self
            .sample
            .iter()
            .map(|&u| {
                graph
                    .neighbors(u)
                    .iter()
                    .map(|nb| jaccard(dataset.profile(u), dataset.profile(nb.user)))
                    .sum::<f64>()
            })
            .sum();
        if self.exact_sum == 0.0 {
            return if approx == 0.0 { 1.0 } else { f64::INFINITY };
        }
        approx / self.exact_sum
    }
}

/// The exhaustive top-`k` of one query fingerprint over a flat word array
/// (`words_per_user` words per user), best first, ties broken on the
/// lower user id.
pub fn exhaustive_top(
    words: &[u64],
    words_per_user: usize,
    query: &[u64],
    k: usize,
) -> Vec<(u32, f64)> {
    let mut all: Vec<(u32, f64)> = words
        .chunks_exact(words_per_user)
        .enumerate()
        .map(|(u, fp)| (u as u32, fingerprint_estimate(fp, query)))
        .collect();
    let by_rank = |a: &(u32, f64), b: &(u32, f64)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
    if all.len() > k {
        all.select_nth_unstable_by(k - 1, by_rank);
        all.truncate(k);
    }
    all.sort_unstable_by(by_rank);
    all
}

/// Recall of an answer against an exhaustive top-k, tolerant of ties: an
/// answered user counts as a hit when its recomputed estimate reaches the
/// k-th best exact estimate, so a tie broken differently is not a miss.
pub fn recall(answer_sims: &[f64], truth: &[(u32, f64)]) -> f64 {
    let Some(&(_, threshold)) = truth.last() else {
        return 1.0;
    };
    let hits = answer_sims.iter().filter(|&&s| s >= threshold).count().min(truth.len());
    hits as f64 / truth.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> Dataset {
        Dataset::from_profiles(
            vec![
                vec![0, 1, 2, 3], // u0
                vec![0, 1, 2, 4], // u1: J(0,1) = 3/5
                vec![0, 5],       // u2: J(0,2) = 1/5, J(1,2) = 1/5
                vec![6, 7],       // u3: shares nothing
            ],
            0,
        )
    }

    #[test]
    fn jaccard_matches_hand_computed_values() {
        assert_eq!(jaccard(&[0, 1, 2, 3], &[0, 1, 2, 4]), 0.6);
        assert_eq!(jaccard(&[0, 1, 2, 3], &[0, 5]), 0.2);
        assert_eq!(jaccard(&[1, 2], &[1, 2]), 1.0);
        assert_eq!(jaccard(&[1], &[2]), 0.0);
        assert_eq!(jaccard(&[], &[]), 0.0);
    }

    #[test]
    fn fingerprint_estimate_is_popcount_ratio() {
        // AND = 0b0100 (1 bit), OR = 0b1111 (4 bits), second word 1 of 2.
        assert_eq!(fingerprint_estimate(&[0b0110, 0b01], &[0b1101, 0b11]), 2.0 / 6.0);
        assert_eq!(fingerprint_estimate(&[0, 0], &[0, 0]), 0.0);
        assert_eq!(fingerprint_estimate(&[u64::MAX], &[u64::MAX]), 1.0);
    }

    #[test]
    fn quality_is_one_for_the_exact_graph_and_lower_otherwise() {
        let ds = dataset();
        // Exact top-1: u0 -> u1 (0.6), u1 -> u0 (0.6); sum over {u0, u1} = 1.2.
        let oracle = QualityOracle::new(&ds, vec![0, 1], 1, 2);
        let mut exact = KnnGraph::new(4, 1);
        exact.insert(0, 1, 0.6);
        exact.insert(1, 0, 0.6);
        assert!((oracle.quality(&ds, &exact) - 1.0).abs() < 1e-12);
        // u0 -> u2 (0.2) and u1 -> nothing: (0.2 + 0) / 1.2.
        let mut worse = KnnGraph::new(4, 1);
        worse.insert(0, 2, 0.2);
        assert!((oracle.quality(&ds, &worse) - 0.2 / 1.2).abs() < 1e-12);
    }

    #[test]
    fn exhaustive_top_ranks_by_estimate_then_user() {
        // Three one-word users; the query is 0b0011.
        let words = [0b0011u64, 0b0001, 0b0010, 0b1100];
        let top = exhaustive_top(&words, 1, &[0b0011], 3);
        // u0: 2/2, u1: 1/2, u2: 1/2 (tie, lower id first), u3: 0/4.
        assert_eq!(top, vec![(0, 1.0), (1, 0.5), (2, 0.5)]);
    }

    #[test]
    fn recall_counts_ties_at_the_threshold_as_hits() {
        let truth = [(0, 1.0), (1, 0.5)];
        assert_eq!(recall(&[1.0, 0.5], &truth), 1.0);
        // A different user tied at 0.5 still counts.
        assert_eq!(recall(&[1.0, 0.5], &[(0, 1.0), (7, 0.5)]), 1.0);
        assert_eq!(recall(&[1.0, 0.25], &truth), 0.5);
        assert_eq!(recall(&[], &truth), 0.0);
    }
}
