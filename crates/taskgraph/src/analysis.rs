//! Structural analysis of task graphs: per-task longest paths, one
//! critical path, and the average-parallelism metric of §5.2. The
//! critical path length and total work themselves are computed once at
//! build time ([`TaskGraph::critical_path_cycles`],
//! [`TaskGraph::total_work_cycles`]).

use crate::graph::{TaskGraph, TaskId};

impl TaskGraph {
    /// *Top levels*: for each task, the length in cycles of the longest
    /// path from any source up to and **including** the task. A task can
    /// finish no earlier than its top level on an unbounded machine.
    /// Their maximum is [`Self::critical_path_cycles`].
    pub fn top_levels(&self) -> Vec<u64> {
        self.top_levels_and_critical_path(
            Vec::with_capacity(self.len()),
            Vec::with_capacity(self.len()),
        )
        .expect("built graphs are acyclic")
        .0
    }

    /// *Bottom levels*: for each task, the length in cycles of the
    /// longest path from the task (inclusive) to any sink. This is the
    /// classic HLFET list-scheduling priority.
    pub fn bottom_levels(&self) -> Vec<u64> {
        let mut bl = vec![0u64; self.len()];
        for t in self.topo_order().into_iter().rev() {
            let tail = self
                .successors(t)
                .iter()
                .map(|&s| bl[s.index()])
                .max()
                .unwrap_or(0);
            bl[t.index()] = tail + self.weight(t);
        }
        bl
    }

    /// One critical path, as a sequence of task ids from a source to a
    /// sink. Useful for reporting and debugging.
    pub fn critical_path(&self) -> Vec<TaskId> {
        let tl = self.top_levels();
        let bl = self.bottom_levels();
        let cpl = self.critical_path_cycles();
        // A task is on a critical path iff tl + bl - w == cpl. Walk from
        // the critical source forward, always choosing a critical child.
        let mut path = Vec::new();
        let mut current = self
            .tasks()
            .find(|&t| self.in_degree(t) == 0 && bl[t.index()] == cpl);
        while let Some(t) = current {
            path.push(t);
            current = self
                .successors(t)
                .iter()
                .copied()
                .find(|&s| tl[t.index()] + bl[s.index()] == cpl);
        }
        path
    }

    /// Average amount of parallelism (§5.2): total work divided by the
    /// critical path length. A linked list has parallelism 1.
    pub fn parallelism(&self) -> f64 {
        let cpl = self.critical_path_cycles();
        if cpl == 0 {
            return 0.0;
        }
        self.total_work_cycles() as f64 / cpl as f64
    }

    /// Lower bound on the number of processors needed to finish within
    /// `deadline_cycles` at the scheduling (maximum) frequency:
    /// `⌈Σ w(v) / D⌉` (§4.2). Returns `None` if the deadline is zero.
    pub fn min_processors_lower_bound(&self, deadline_cycles: u64) -> Option<usize> {
        if deadline_cycles == 0 {
            return None;
        }
        let work = self.total_work_cycles();
        Some(work.div_ceil(deadline_cycles).max(1) as usize)
    }

    /// Summary statistics (the columns of Table 2).
    pub fn stats(&self) -> GraphStats {
        GraphStats {
            tasks: self.len(),
            edges: self.edge_count(),
            critical_path_cycles: self.critical_path_cycles(),
            total_work_cycles: self.total_work_cycles(),
        }
    }
}

/// The per-benchmark characteristics the paper reports in Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphStats {
    /// Number of tasks (nodes).
    pub tasks: usize,
    /// Number of dependence edges.
    pub edges: usize,
    /// Critical path length in cycles.
    pub critical_path_cycles: u64,
    /// Total work in cycles.
    pub total_work_cycles: u64,
}

impl GraphStats {
    /// Average parallelism = work / CPL.
    pub fn parallelism(&self) -> f64 {
        if self.critical_path_cycles == 0 {
            0.0
        } else {
            self.total_work_cycles as f64 / self.critical_path_cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    /// The Fig. 4a example: T1(2) → {T2(6), T3(4), T4(4)}, {T2,T3} → T5(2).
    fn fig4a() -> TaskGraph {
        let mut b = GraphBuilder::new();
        let t1 = b.add_task(2);
        let t2 = b.add_task(6);
        let t3 = b.add_task(4);
        let t4 = b.add_task(4);
        let t5 = b.add_task(2);
        b.add_edge(t1, t2).unwrap();
        b.add_edge(t1, t3).unwrap();
        b.add_edge(t1, t4).unwrap();
        b.add_edge(t2, t5).unwrap();
        b.add_edge(t3, t5).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn fig4a_critical_path_is_10() {
        let g = fig4a();
        assert_eq!(g.critical_path_cycles(), 10); // T1 → T2 → T5
        assert_eq!(g.total_work_cycles(), 18);
    }

    #[test]
    fn fig4a_critical_path_tasks() {
        let g = fig4a();
        let p = g.critical_path();
        assert_eq!(p, vec![TaskId(0), TaskId(1), TaskId(4)]);
        // Path weights sum to the CPL.
        let sum: u64 = p.iter().map(|&t| g.weight(t)).sum();
        assert_eq!(sum, g.critical_path_cycles());
    }

    #[test]
    fn top_levels_are_earliest_finishes() {
        let g = fig4a();
        let tl = g.top_levels();
        assert_eq!(tl, vec![2, 8, 6, 6, 10]);
    }

    #[test]
    fn bottom_levels_are_hlfet_priorities() {
        let g = fig4a();
        let bl = g.bottom_levels();
        assert_eq!(bl, vec![10, 8, 6, 4, 2]);
    }

    #[test]
    fn parallelism_of_chain_is_one() {
        let mut b = GraphBuilder::new();
        let mut prev = b.add_task(5);
        for _ in 0..9 {
            let t = b.add_task(5);
            b.add_edge(prev, t).unwrap();
            prev = t;
        }
        let g = b.build().unwrap();
        assert!((g.parallelism() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn parallelism_of_independent_tasks_is_count() {
        let mut b = GraphBuilder::new();
        for _ in 0..8 {
            b.add_task(3);
        }
        let g = b.build().unwrap();
        assert!((g.parallelism() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn min_processors_lower_bound_matches_formula() {
        let g = fig4a(); // work = 18
        assert_eq!(g.min_processors_lower_bound(18), Some(1));
        assert_eq!(g.min_processors_lower_bound(10), Some(2));
        assert_eq!(g.min_processors_lower_bound(9), Some(2));
        assert_eq!(g.min_processors_lower_bound(6), Some(3));
        assert_eq!(g.min_processors_lower_bound(0), None);
        // Even a huge deadline needs one processor.
        assert_eq!(g.min_processors_lower_bound(u64::MAX), Some(1));
    }

    #[test]
    fn stats_snapshot() {
        let s = fig4a().stats();
        assert_eq!(s.tasks, 5);
        assert_eq!(s.edges, 5);
        assert_eq!(s.critical_path_cycles, 10);
        assert_eq!(s.total_work_cycles, 18);
        assert!((s.parallelism() - 1.8).abs() < 1e-12);
    }
}
