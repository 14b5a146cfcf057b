//! Operation accounting and the property checks every workload runs.

use crate::oracle::fingerprint_estimate;
use cnc_graph::{KnnGraph, Neighbor};
use cnc_similarity::GoldFinger;

/// The kinds of operation a run attempts.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    Build,
    Query,
    Insert,
    Publish,
    Adopt,
}

const KINDS: [(&str, Op); 5] = [
    ("build", Op::Build),
    ("query", Op::Query),
    ("insert", Op::Insert),
    ("publish", Op::Publish),
    ("adopt", Op::Adopt),
];

/// Attempted and failed operations per kind, plus failed checks.
#[derive(Default)]
pub struct Ledger {
    attempted: [u64; 5],
    failed: [u64; 5],
    failures: Vec<String>,
}

impl Ledger {
    pub fn attempt(&mut self, op: Op, n: u64) {
        self.attempted[op as usize] += n;
    }

    pub fn fail(&mut self, op: Op, n: u64) {
        self.failed[op as usize] += n;
    }

    /// Records a failed check when `ok` is false (the first 20 messages
    /// are kept).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            if self.failures.len() < 20 {
                self.failures.push(what());
            } else if self.failures.len() == 20 {
                self.failures.push("further check failures omitted".into());
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.iter().sum()
    }

    pub fn failed(&self) -> u64 {
        self.failed.iter().sum()
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// One line per kind: `kind attempted/failed`.
    pub fn summary(&self) -> String {
        KINDS
            .iter()
            .map(|(name, op)| {
                format!("{name} {}/{}", self.attempted[*op as usize], self.failed[*op as usize])
            })
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// Every user's neighbours as `(user, sim bits)`, best first, ties on the
/// lower id: a canonical form two graphs can be compared in.
pub fn sorted_lists(graph: &KnnGraph) -> Vec<Vec<(u32, u32)>> {
    graph
        .iter()
        .map(|(_, list)| list.sorted().iter().map(|n| (n.user, n.sim.to_bits())).collect())
        .collect()
}

/// Compares two canonical graphs; returns the first differing user.
pub fn first_difference(a: &[Vec<(u32, u32)>], b: &[Vec<(u32, u32)>]) -> Option<usize> {
    if a.len() != b.len() {
        return Some(a.len().min(b.len()));
    }
    a.iter().zip(b).position(|(x, y)| x != y)
}

/// Users whose list is not `k` distinct, non-self neighbours whose stored
/// similarity equals the estimate recomputed from the fingerprints.
/// Returns `(short lists, bad lists)`: a short list holds fewer than `k`
/// neighbours but is otherwise sound.
pub fn graph_violations(graph: &KnnGraph, gf: &GoldFinger) -> (usize, Vec<String>) {
    let k = graph.k();
    let mut short = 0;
    let mut bad = Vec::new();
    for (u, list) in graph.iter() {
        let mut users: Vec<u32> = list.iter().map(|n| n.user).collect();
        users.sort_unstable();
        users.dedup();
        if users.len() != list.len() || users.binary_search(&u).is_ok() || list.len() > k {
            bad.push(format!("user {u}: duplicate, self or overfull neighbour list"));
            continue;
        }
        if list.len() < k {
            short += 1;
        }
        for n in list.iter() {
            let expect = fingerprint_estimate(gf.fingerprint(u), gf.fingerprint(n.user)) as f32;
            if n.sim != expect {
                bad.push(format!(
                    "user {u}: stored sim {} to {} != estimate {expect}",
                    n.sim, n.user
                ));
                break;
            }
        }
    }
    (short, bad)
}

/// Checks one top-`k` answer: `k` distinct users in descending order of
/// similarity. With `check_sims` (the fingerprints and the query's) given, each
/// reported similarity must also equal the recomputed estimate.
pub fn answer_violation(
    answer: &[Neighbor],
    k: usize,
    check_sims: Option<(&GoldFinger, &[u64])>,
) -> Option<String> {
    if answer.len() != k {
        return Some(format!("{} users instead of {k}", answer.len()));
    }
    let mut users: Vec<u32> = answer.iter().map(|n| n.user).collect();
    users.sort_unstable();
    users.dedup();
    if users.len() != k {
        return Some("duplicate users in answer".into());
    }
    if answer.windows(2).any(|w| w[0].sim < w[1].sim) {
        return Some("answer not in descending order of similarity".into());
    }
    if let Some((gf, query)) = check_sims {
        for n in answer {
            let expect = fingerprint_estimate(gf.fingerprint(n.user), query) as f32;
            if n.sim != expect {
                return Some(format!("answer sim {} to {} != estimate {expect}", n.sim, n.user));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answers_must_be_full_distinct_and_descending() {
        let nb = |user, sim| Neighbor { user, sim };
        assert!(answer_violation(&[nb(1, 0.5), nb(2, 0.4)], 2, None).is_none());
        assert!(answer_violation(&[nb(1, 0.5)], 2, None).is_some());
        assert!(answer_violation(&[nb(1, 0.5), nb(1, 0.5)], 2, None).is_some());
        assert!(answer_violation(&[nb(1, 0.4), nb(2, 0.5)], 2, None).is_some());
    }

    #[test]
    fn canonical_lists_ignore_heap_order() {
        let mut a = KnnGraph::new(3, 2);
        a.insert(0, 1, 0.5);
        a.insert(0, 2, 0.7);
        let mut b = KnnGraph::new(3, 2);
        b.insert(0, 2, 0.7);
        b.insert(0, 1, 0.5);
        assert_eq!(first_difference(&sorted_lists(&a), &sorted_lists(&b)), None);
        b.insert(1, 0, 0.1);
        assert_eq!(first_difference(&sorted_lists(&a), &sorted_lists(&b)), Some(1));
    }
}
