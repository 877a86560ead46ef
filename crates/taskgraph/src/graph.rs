//! Core weighted-DAG representation.
//!
//! A [`TaskGraph`]'s structure is immutable once built; construction
//! goes through [`GraphBuilder`], which validates that the edge relation
//! is acyclic, that all endpoints exist and that the total work fits in a
//! `u64`. The one change a built graph allows is
//! [`TaskGraph::scale_weights`], which consumes the graph and scales its
//! weights (and the two stored totals) in place.
//!
//! Adjacency is stored in compressed sparse row form in both directions
//! so that schedulers can walk successors and predecessors without
//! allocation.
//!
//! Every array is an exact-length boxed slice, and the per-task name
//! table stays empty unless some task is named, so an unnamed graph of
//! `N` tasks and `E` edges owns exactly `8·N + 8·(N+1) + 8·E` heap bytes.
//! The total work (a checked sum) and the critical path are computed
//! once, at build time, and kept as two inline `u64`s. The critical path
//! comes from the pass that proves acyclicity: an order-free walk over a
//! stack of ready tasks, with one buffer that holds each task's count of
//! untaken predecessors and then its top level. Building allocates only
//! the graph's own arrays, that buffer and the stack; no scratch copy of
//! the offsets and no topological order.

/// Identifier of a task: a dense index into the graph's node arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u32);

impl TaskId {
    /// The index as a `usize`, for direct array access.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Errors raised while building or validating a task graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge references a task id that was never added.
    UnknownTask(u32),
    /// An edge connects a task to itself.
    SelfLoop(TaskId),
    /// The edge relation contains a cycle; the payload is one task on it.
    Cycle(TaskId),
    /// The graph has no tasks.
    Empty,
    /// More than `u32::MAX` tasks were added.
    TooManyTasks,
    /// The weights sum to more than `u64::MAX` cycles. Checked before
    /// acyclicity, so it wins over [`GraphError::Cycle`].
    WorkOverflow,
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::UnknownTask(id) => write!(f, "edge references unknown task {id}"),
            GraphError::SelfLoop(t) => write!(f, "self-loop on task {t}"),
            GraphError::Cycle(t) => write!(f, "dependence cycle through task {t}"),
            GraphError::Empty => write!(f, "task graph has no tasks"),
            GraphError::TooManyTasks => write!(f, "more than u32::MAX tasks"),
            GraphError::WorkOverflow => write!(f, "total work overflows u64 cycles"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Incremental builder for [`TaskGraph`].
///
/// # Example
///
/// ```
/// use lamps_taskgraph::GraphBuilder;
///
/// // The 5-task example of Fig. 4a (weights ×1 cycle).
/// let mut b = GraphBuilder::new();
/// let t1 = b.add_task(2);
/// let t2 = b.add_task(6);
/// let t3 = b.add_task(4);
/// let t4 = b.add_task(4);
/// let t5 = b.add_task(2);
/// b.add_edge(t1, t2).unwrap();
/// b.add_edge(t1, t3).unwrap();
/// b.add_edge(t1, t4).unwrap();
/// b.add_edge(t2, t5).unwrap();
/// b.add_edge(t3, t5).unwrap();
/// let g = b.build().unwrap();
/// assert_eq!(g.len(), 5);
/// assert_eq!(g.critical_path_cycles(), 2 + 6 + 2);
/// assert_eq!(g.total_work_cycles(), 18);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    weights: Vec<u64>,
    /// Empty until the first named task; from then on one slot per task.
    names: Vec<Option<String>>,
    edges: Vec<(TaskId, TaskId)>,
}

impl GraphBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder with preallocated capacity.
    pub fn with_capacity(tasks: usize, edges: usize) -> Self {
        GraphBuilder {
            weights: Vec::with_capacity(tasks),
            names: Vec::new(),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Add a task with an execution weight in cycles; returns its id.
    /// Zero-weight tasks are allowed (the STG set uses zero-weight dummy
    /// entry/exit nodes).
    pub fn add_task(&mut self, weight_cycles: u64) -> TaskId {
        self.push_task(weight_cycles, None)
    }

    /// Add a named task (names survive into Gantt/DOT output).
    pub fn add_named_task(&mut self, name: impl Into<String>, weight_cycles: u64) -> TaskId {
        self.push_task(weight_cycles, Some(name.into()))
    }

    fn push_task(&mut self, weight: u64, name: Option<String>) -> TaskId {
        let id = TaskId(u32::try_from(self.weights.len()).expect("too many tasks"));
        if name.is_some() || !self.names.is_empty() {
            // Pad the earlier, unnamed tasks on the first name.
            self.names.resize(self.weights.len(), None);
            self.names.push(name);
        }
        self.weights.push(weight);
        id
    }

    /// Number of tasks added so far.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether no tasks were added yet.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Add a dependence edge `from → to` (`to` cannot start before `from`
    /// finishes). Duplicate edges are tolerated and deduplicated at
    /// [`Self::build`] time.
    pub fn add_edge(&mut self, from: TaskId, to: TaskId) -> Result<(), GraphError> {
        let n = self.weights.len() as u32;
        if from.0 >= n {
            return Err(GraphError::UnknownTask(from.0));
        }
        if to.0 >= n {
            return Err(GraphError::UnknownTask(to.0));
        }
        if from == to {
            return Err(GraphError::SelfLoop(from));
        }
        self.edges.push((from, to));
        Ok(())
    }

    /// Finalize: deduplicate edges, build CSR adjacency, verify acyclicity
    /// and compute the critical path and total work.
    ///
    /// O(V+E) apart from sorting each task's own successor list: edges
    /// are bucketed by source, each bucket is sorted and deduplicated in
    /// place, and predecessors are filled by walking sources in
    /// ascending order, so both adjacency lists come out ascending. The
    /// offset slots serve as their own scatter cursors, so no scratch
    /// copy of them is made. One order-free pass over a LIFO of ready
    /// tasks then proves the graph acyclic and keeps the largest top
    /// level, the critical path (see [`TaskGraph::top_levels`]).
    ///
    /// Errors with [`GraphError::WorkOverflow`] when the weights sum past
    /// `u64::MAX`; since every path is a subset of the tasks, every path
    /// sum of a built graph then fits too. Errors with
    /// [`GraphError::Cycle`] naming the lowest-id task that no
    /// topological order can reach.
    pub fn build(self) -> Result<TaskGraph, GraphError> {
        let n = self.weights.len();
        if n == 0 {
            return Err(GraphError::Empty);
        }
        let total_work_cycles = self
            .weights
            .iter()
            .try_fold(0u64, |sum, &w| sum.checked_add(w))
            .ok_or(GraphError::WorkOverflow)?;

        // Both offset arrays share one allocation: successor offsets,
        // then predecessor offsets.
        let mut offsets = vec![0u32; 2 * (n + 1)];
        let (succ_off, pred_off) = offsets.split_at_mut(n + 1);

        // Successors: bucket by source (counting sort), then sort and
        // deduplicate each bucket while compacting the array in place.
        for &(from, _) in &self.edges {
            succ_off[from.index() + 1] += 1;
        }
        for i in 0..n {
            succ_off[i + 1] += succ_off[i];
        }
        let mut succ = vec![TaskId(0); self.edges.len()];
        for &(from, to) in &self.edges {
            let slot = &mut succ_off[from.index()];
            succ[*slot as usize] = to;
            *slot += 1;
        }
        unshift(succ_off);
        drop(self.edges);
        let mut write = 0usize;
        for i in 0..n {
            let (lo, hi) = (succ_off[i] as usize, succ_off[i + 1] as usize);
            if hi - lo > 1 {
                succ[lo..hi].sort_unstable();
            }
            let start = write;
            succ_off[i] = start as u32;
            for r in lo..hi {
                let to = succ[r];
                if write == start || succ[write - 1] != to {
                    succ[write] = to;
                    write += 1;
                }
            }
        }
        succ_off[n] = write as u32;
        succ.truncate(write);

        // Predecessors: walking sources in ascending order fills every
        // bucket in ascending order.
        for &to in &succ {
            pred_off[to.index() + 1] += 1;
        }
        for i in 0..n {
            pred_off[i + 1] += pred_off[i];
        }
        let mut pred = vec![TaskId(0); succ.len()];
        for from in 0..n {
            for &to in &succ[succ_off[from] as usize..succ_off[from + 1] as usize] {
                let slot = &mut pred_off[to.index()];
                pred[*slot as usize] = TaskId(from as u32);
                *slot += 1;
            }
        }
        unshift(pred_off);

        let mut graph = TaskGraph {
            weights: self.weights.into_boxed_slice(),
            names: self.names.into_boxed_slice(),
            offsets: offsets.into_boxed_slice(),
            succ: succ.into_boxed_slice(),
            pred: pred.into_boxed_slice(),
            critical_path_cycles: 0,
            total_work_cycles,
        };
        graph.critical_path_cycles = graph.top_levels_and_critical_path()?.1;
        Ok(graph)
    }
}

/// After a scatter that advanced each bucket's start offset `off[i]` to
/// its end, which is the next bucket's start, shift the offsets back one
/// place so `off[i]` is bucket `i`'s start again.
fn unshift(off: &mut [u32]) {
    let n = off.len() - 1;
    off.copy_within(0..n, 1);
    off[0] = 0;
}

/// An immutable weighted task DAG.
///
/// Node weights are execution times in cycles. Both forward and backward
/// adjacency are stored, each list in ascending id order. Acyclicity is
/// verified at build time; no order is stored, and [`Self::topo_order`]
/// recomputes one on each call. The critical path and total work are
/// computed at build time and stored, so their accessors are O(1); the
/// structure is immutable and [`Self::scale_weights`] scales them with
/// the weights, so they cannot go stale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskGraph {
    weights: Box<[u64]>,
    /// Empty when no task is named, else one slot per task.
    names: Box<[Option<String>]>,
    /// Successor offsets (`N + 1`) then predecessor offsets (`N + 1`).
    /// One allocation, not two, keeps the struct at 96 bytes with the
    /// two totals below.
    offsets: Box<[u32]>,
    succ: Box<[TaskId]>,
    pred: Box<[TaskId]>,
    /// Longest weighted path, from the top-level pass in `build`.
    critical_path_cycles: u64,
    /// Sum of `weights`, checked in `build`.
    total_work_cycles: u64,
}

impl TaskGraph {
    /// Number of tasks.
    #[inline]
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the graph has no tasks (never true for a built graph).
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Number of (deduplicated) dependence edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.succ.len()
    }

    /// Execution weight of `t` in cycles.
    #[inline]
    pub fn weight(&self, t: TaskId) -> u64 {
        self.weights[t.index()]
    }

    /// All task weights, indexed by task id.
    #[inline]
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }

    /// Optional human-readable name of `t`. Panics if `t` is not a task
    /// of this graph.
    pub fn name(&self, t: TaskId) -> Option<&str> {
        let i = t.index();
        assert!(
            i < self.len(),
            "task {t} is not in a graph of {} tasks",
            self.len()
        );
        self.names.get(i).and_then(Option::as_deref)
    }

    /// Display label: the name if set, else `T<id>`.
    pub fn label(&self, t: TaskId) -> String {
        match self.name(t) {
            Some(n) => n.to_string(),
            None => format!("{t}"),
        }
    }

    /// Direct successors of `t`.
    #[inline]
    pub fn successors(&self, t: TaskId) -> &[TaskId] {
        let lo = self.offsets[t.index()] as usize;
        let hi = self.offsets[t.index() + 1] as usize;
        &self.succ[lo..hi]
    }

    /// Direct predecessors of `t`.
    #[inline]
    pub fn predecessors(&self, t: TaskId) -> &[TaskId] {
        let pred_off = &self.offsets[self.len() + 1..];
        let lo = pred_off[t.index()] as usize;
        let hi = pred_off[t.index() + 1] as usize;
        &self.pred[lo..hi]
    }

    /// In-degree of `t`.
    #[inline]
    pub fn in_degree(&self, t: TaskId) -> usize {
        self.predecessors(t).len()
    }

    /// Out-degree of `t`.
    #[inline]
    pub fn out_degree(&self, t: TaskId) -> usize {
        self.successors(t).len()
    }

    /// Iterator over all task ids in index order.
    pub fn tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.weights.len() as u32).map(TaskId)
    }

    /// Tasks with no predecessors.
    pub fn sources(&self) -> Vec<TaskId> {
        self.tasks().filter(|&t| self.in_degree(t) == 0).collect()
    }

    /// Tasks with no successors.
    pub fn sinks(&self) -> Vec<TaskId> {
        self.tasks().filter(|&t| self.out_degree(t) == 0).collect()
    }

    /// Iterator over all edges `(from, to)`.
    pub fn edges(&self) -> impl Iterator<Item = (TaskId, TaskId)> + '_ {
        self.tasks()
            .flat_map(move |t| self.successors(t).iter().map(move |&s| (t, s)))
    }

    /// Kahn's algorithm, using the output `Vec` as its own FIFO queue
    /// and taking in-degrees from the predecessor offsets; it yields the
    /// order documented on [`Self::topo_order`]. Errors with
    /// [`GraphError::Cycle`] naming the lowest-id task left unordered if
    /// the edge relation is cyclic.
    fn kahn(&self) -> Result<Vec<TaskId>, GraphError> {
        let n = self.len();
        let pred_off = &self.offsets[n + 1..];
        let mut indeg: Vec<u32> = pred_off.windows(2).map(|w| w[1] - w[0]).collect();
        let mut order: Vec<TaskId> = Vec::with_capacity(n);
        order.extend((0..n as u32).map(TaskId).filter(|t| indeg[t.index()] == 0));
        let mut head = 0;
        while let Some(&t) = order.get(head) {
            head += 1;
            for &s in self.successors(t) {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    order.push(s);
                }
            }
        }
        if order.len() != n {
            let on_cycle = (0..n as u32)
                .map(TaskId)
                .find(|&t| indeg[t.index()] > 0)
                .expect("some task must remain");
            return Err(GraphError::Cycle(on_cycle));
        }
        Ok(order)
    }

    /// Every task's top level (see [`Self::top_levels`]) and their
    /// maximum, the critical path, from one pass in no particular order.
    ///
    /// Ready tasks wait on a LIFO stack. One buffer serves twice: a
    /// task's slot holds its count of predecessors not yet taken until
    /// the task itself is taken, and its top level from then on. A task
    /// is taken only after all its predecessors, so it reads their
    /// finished top levels. Any topological order gives the same levels,
    /// so the stack's order is free. On a cycle some task is never
    /// taken; only then does [`Self::kahn`] run, for the
    /// [`GraphError::Cycle`] payload.
    pub(crate) fn top_levels_and_critical_path(&self) -> Result<(Vec<u64>, u64), GraphError> {
        let n = self.len();
        let pred_off = &self.offsets[n + 1..];
        let mut level: Vec<u64> = pred_off
            .windows(2)
            .map(|w| u64::from(w[1] - w[0]))
            .collect();
        let mut ready: Vec<TaskId> = Vec::with_capacity(n);
        ready.extend((0..n as u32).map(TaskId).filter(|t| level[t.index()] == 0));
        let (mut taken, mut critical_path) = (0usize, 0u64);
        while let Some(t) = ready.pop() {
            taken += 1;
            let start = self
                .predecessors(t)
                .iter()
                .map(|&p| level[p.index()])
                .max()
                .unwrap_or(0);
            let finish = start + self.weight(t);
            level[t.index()] = finish;
            critical_path = critical_path.max(finish);
            for &s in self.successors(t) {
                let missing = &mut level[s.index()];
                *missing -= 1;
                if *missing == 0 {
                    ready.push(s);
                }
            }
        }
        if taken != n {
            return Err(self.kahn().expect_err("a task was never taken"));
        }
        Ok((level, critical_path))
    }

    /// The original Kahn pass (a `VecDeque` queue plus a separate output
    /// `Vec`), kept only as the oracle that [`Self::topo_order`] and the
    /// `Cycle` payload of [`GraphBuilder::build`] are tested against.
    #[doc(hidden)]
    pub fn topo_order_reference(&self) -> Result<Vec<TaskId>, GraphError> {
        let n = self.len();
        let mut indeg: Vec<u32> = (0..n)
            .map(|i| self.in_degree(TaskId(i as u32)) as u32)
            .collect();
        let mut queue: std::collections::VecDeque<TaskId> = (0..n as u32)
            .map(TaskId)
            .filter(|&t| indeg[t.index()] == 0)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(t) = queue.pop_front() {
            order.push(t);
            for &s in self.successors(t) {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    queue.push_back(s);
                }
            }
        }
        if order.len() != n {
            let on_cycle = (0..n as u32)
                .map(TaskId)
                .find(|&t| indeg[t.index()] > 0)
                .expect("some task must remain");
            return Err(GraphError::Cycle(on_cycle));
        }
        Ok(order)
    }

    /// A deterministic topological order, recomputed on each call. It is
    /// Kahn's discovery order: every source in ascending id order, then,
    /// walking that list front to back, each task's successors in
    /// ascending id order as their last predecessor is taken. Among
    /// tasks ready at the same time, lower ids need not come first:
    /// sources 0 and 1 with edges `0 → 5` and `1 → 3` give `0, 1, 5, 3`.
    pub fn topo_order(&self) -> Vec<TaskId> {
        self.kahn().expect("built graphs are acyclic")
    }

    /// Critical path length in cycles (Table 2's *critical path*): the
    /// longest weighted path through the DAG, i.e. the minimum possible
    /// makespan on unboundedly many processors. Computed at build time.
    #[inline]
    pub fn critical_path_cycles(&self) -> u64 {
        self.critical_path_cycles
    }

    /// Sum of all task weights in cycles — the paper's *total work*
    /// (Table 2). Computed at build time.
    #[inline]
    pub fn total_work_cycles(&self) -> u64 {
        self.total_work_cycles
    }

    /// Scale every weight by an integer factor (e.g. STG weight units →
    /// cycles at a chosen granularity). Every path scales by the same
    /// factor, so the critical path and total work are scaled exactly
    /// rather than recomputed. Panics if a scaled weight or the scaled
    /// total work overflows `u64`, in every build profile.
    ///
    /// Takes the graph by value and scales its weights in place, so it
    /// allocates nothing; a caller that still needs the unscaled graph
    /// scales a `.clone()`.
    pub fn scale_weights(mut self, cycles_per_unit: u64) -> TaskGraph {
        for w in self.weights.iter_mut() {
            *w = w
                .checked_mul(cycles_per_unit)
                .expect("weight scaling overflowed u64");
        }
        self.total_work_cycles = self
            .total_work_cycles
            .checked_mul(cycles_per_unit)
            .expect("scaled total work overflowed u64");
        self.critical_path_cycles = self
            .critical_path_cycles
            .checked_mul(cycles_per_unit)
            .expect("the critical path is at most the total work");
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// The original construction, kept as the oracle for `build`: one
    /// global sort and dedup of the edge list, then both CSR halves are
    /// filled from the sorted list; the original Kahn pass checks
    /// acyclicity, and the cached critical path and total work are
    /// recomputed from its order and a plain sum.
    fn reference_build(mut b: GraphBuilder) -> Result<TaskGraph, GraphError> {
        let n = b.weights.len();
        if n == 0 {
            return Err(GraphError::Empty);
        }
        b.edges.sort_unstable();
        b.edges.dedup();
        let csr = |key: fn(&(TaskId, TaskId)) -> (TaskId, TaskId)| {
            let mut off = vec![0u32; n + 1];
            for e in &b.edges {
                off[key(e).0.index() + 1] += 1;
            }
            for i in 0..n {
                off[i + 1] += off[i];
            }
            let mut adj = vec![TaskId(0); b.edges.len()];
            let mut cursor = off.clone();
            for e in &b.edges {
                let (at, other) = key(e);
                adj[cursor[at.index()] as usize] = other;
                cursor[at.index()] += 1;
            }
            (off, adj.into_boxed_slice())
        };
        let (succ_off, succ) = csr(|&(from, to)| (from, to));
        let (pred_off, pred) = csr(|&(from, to)| (to, from));
        let offsets = [succ_off, pred_off].concat().into_boxed_slice();
        let mut graph = TaskGraph {
            weights: b.weights.into_boxed_slice(),
            names: b.names.into_boxed_slice(),
            offsets,
            succ,
            pred,
            critical_path_cycles: 0,
            total_work_cycles: 0,
        };
        let mut tl = vec![0u64; n];
        for t in graph.topo_order_reference()? {
            let ready = graph
                .predecessors(t)
                .iter()
                .map(|&p| tl[p.index()])
                .max()
                .unwrap_or(0);
            tl[t.index()] = ready + graph.weight(t);
        }
        graph.critical_path_cycles = tl.into_iter().max().unwrap_or(0);
        graph.total_work_cycles = graph.weights.iter().sum();
        Ok(graph)
    }

    /// A random builder of up to 24 tasks (sometimes none, sometimes some
    /// named) fed a random edge list that mixes forward edges, repeats of
    /// earlier edges, backward edges (cycles), self-loops and ids past
    /// the last task. Returns the first `add_edge` error, if any.
    fn random_builder(rng: &mut Rng) -> Result<GraphBuilder, GraphError> {
        let n = rng.gen_range(0..25u32);
        let mut b = GraphBuilder::new();
        for i in 0..n {
            let w = rng.gen_range(0..400u64);
            if rng.gen_bool(0.05) {
                b.add_named_task(format!("n{i}"), w);
            } else {
                b.add_task(w);
            }
        }
        let back_edges = rng.gen_bool(0.3);
        let bad_ids = rng.gen_bool(0.1);
        let mut added: Vec<(TaskId, TaskId)> = Vec::new();
        for _ in 0..rng.gen_range(0..=3 * n as usize) {
            let edge = if !added.is_empty() && rng.gen_bool(0.2) {
                added[rng.gen_range(0..added.len())]
            } else if bad_ids && rng.gen_bool(0.1) {
                (
                    TaskId(rng.gen_range(0..n + 3)),
                    TaskId(n + rng.gen_range(0..3u32)),
                )
            } else {
                let (a, c) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if a == c && !rng.gen_bool(0.01) {
                    continue;
                }
                if back_edges && rng.gen_bool(0.1) {
                    (TaskId(a.max(c)), TaskId(a.min(c)))
                } else {
                    (TaskId(a.min(c)), TaskId(a.max(c)))
                }
            };
            b.add_edge(edge.0, edge.1)?;
            added.push(edge);
        }
        Ok(b)
    }

    #[test]
    fn build_matches_sorting_reference() {
        let (mut built, mut cyclic, mut rejected) = (0, 0, 0);
        for seed in 0..3000 {
            let mut rng = Rng::seed_from_u64(seed);
            let b = match random_builder(&mut rng) {
                Ok(b) => b,
                Err(_) => {
                    rejected += 1;
                    continue;
                }
            };
            let want = reference_build(b.clone());
            let got = b.build();
            assert_eq!(got, want, "seed {seed}");
            match got {
                Ok(_) => built += 1,
                Err(GraphError::Cycle(_)) => cyclic += 1,
                Err(_) => {}
            }
        }
        // Every outcome the oracle can give was exercised.
        assert!(
            built > 1000 && cyclic > 100 && rejected > 50,
            "{built} {cyclic} {rejected}"
        );
    }

    /// A random builder of 200–2000 tasks whose edges mostly span a few
    /// ids, so paths run deep and many tasks wait on the ready stack at
    /// once. About a third of the edges repeat earlier ones; every
    /// self-loop the draw produces must be rejected. Some builders get a
    /// few back edges, which close a cycle when a forward path spans
    /// them. Returns the builder and the number of rejected self-loops.
    fn large_random_builder(rng: &mut Rng) -> (GraphBuilder, usize) {
        let n = rng.gen_range(200..=2000u32);
        let mut b = GraphBuilder::new();
        for _ in 0..n {
            b.add_task(rng.gen_range(0..400u64));
        }
        let mut added: Vec<(TaskId, TaskId)> = Vec::new();
        let mut self_loops = 0;
        for _ in 0..rng.gen_range(n..=4 * n) {
            let (from, to) = if !added.is_empty() && rng.gen_bool(0.3) {
                added[rng.gen_range(0..added.len())]
            } else {
                let a = rng.gen_range(0..n);
                let reach = if rng.gen_bool(0.05) { n } else { 40 };
                (TaskId(a), TaskId((a + rng.gen_range(0..=reach)).min(n - 1)))
            };
            if from == to {
                assert_eq!(b.add_edge(from, to), Err(GraphError::SelfLoop(from)));
                self_loops += 1;
                continue;
            }
            b.add_edge(from, to).unwrap();
            added.push((from, to));
        }
        if rng.gen_bool(0.4) {
            for _ in 0..rng.gen_range(1..=3u32) {
                let a = rng.gen_range(0..n - 1);
                let c = (a + rng.gen_range(1..=60u32)).min(n - 1);
                b.add_edge(TaskId(c), TaskId(a)).unwrap();
            }
        }
        (b, self_loops)
    }

    #[test]
    fn build_matches_sorting_reference_on_large_graphs() {
        let (mut built, mut cyclic, mut self_loops) = (0, 0, 0);
        for seed in 0..40 {
            let mut rng = Rng::seed_from_u64(0x1A26E ^ seed);
            let (b, rejected) = large_random_builder(&mut rng);
            self_loops += rejected;
            let want = reference_build(b.clone());
            let got = b.build();
            assert_eq!(got, want, "seed {seed}");
            match got {
                Ok(_) => built += 1,
                Err(GraphError::Cycle(_)) => cyclic += 1,
                Err(e) => panic!("seed {seed}: unexpected {e}"),
            }
        }
        assert!(
            built >= 15 && cyclic >= 5 && self_loops > 0,
            "{built} {cyclic} {self_loops}"
        );
    }

    fn diamond() -> TaskGraph {
        let mut b = GraphBuilder::new();
        let a = b.add_task(1);
        let c = b.add_task(2);
        let d = b.add_task(3);
        let e = b.add_task(4);
        b.add_edge(a, c).unwrap();
        b.add_edge(a, d).unwrap();
        b.add_edge(c, e).unwrap();
        b.add_edge(d, e).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builds_and_exposes_adjacency() {
        let g = diamond();
        assert_eq!(g.len(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.successors(TaskId(0)), &[TaskId(1), TaskId(2)]);
        assert_eq!(g.predecessors(TaskId(3)), &[TaskId(1), TaskId(2)]);
        assert_eq!(g.sources(), vec![TaskId(0)]);
        assert_eq!(g.sinks(), vec![TaskId(3)]);
        assert_eq!(g.in_degree(TaskId(0)), 0);
        assert_eq!(g.out_degree(TaskId(3)), 0);
    }

    #[test]
    fn rejects_cycle() {
        let mut b = GraphBuilder::new();
        let a = b.add_task(1);
        let c = b.add_task(1);
        b.add_edge(a, c).unwrap();
        b.add_edge(c, a).unwrap();
        match b.build() {
            Err(GraphError::Cycle(_)) => {}
            other => panic!("expected cycle error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_self_loop_and_unknown() {
        let mut b = GraphBuilder::new();
        let a = b.add_task(1);
        assert_eq!(b.add_edge(a, a), Err(GraphError::SelfLoop(a)));
        assert_eq!(b.add_edge(a, TaskId(7)), Err(GraphError::UnknownTask(7)));
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(GraphBuilder::new().build().unwrap_err(), GraphError::Empty);
    }

    #[test]
    fn dedups_duplicate_edges() {
        let mut b = GraphBuilder::new();
        let a = b.add_task(1);
        let c = b.add_task(1);
        b.add_edge(a, c).unwrap();
        b.add_edge(a, c).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn topo_order_respects_edges() {
        let g = diamond();
        let order = g.topo_order();
        let pos: Vec<usize> = {
            let mut p = vec![0; g.len()];
            for (i, t) in order.iter().enumerate() {
                p[t.index()] = i;
            }
            p
        };
        for (from, to) in g.edges() {
            assert!(pos[from.index()] < pos[to.index()]);
        }
    }

    #[test]
    fn names_and_labels() {
        let mut b = GraphBuilder::new();
        let a = b.add_named_task("I0", 10);
        let c = b.add_task(20);
        b.add_edge(a, c).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.name(a), Some("I0"));
        assert_eq!(g.label(a), "I0");
        assert_eq!(g.name(c), None);
        assert_eq!(g.label(c), "T1");
    }

    #[test]
    fn scale_weights_multiplies() {
        let g = diamond().scale_weights(10);
        assert_eq!(g.weight(TaskId(0)), 10);
        assert_eq!(g.weight(TaskId(3)), 40);
        assert_eq!(g.total_work_cycles(), 100);
        // The stored totals scale exactly: they equal a recomputation.
        for f in [0, 1, 7, 3_100_000] {
            let s = diamond().scale_weights(f);
            assert_eq!(s.critical_path_cycles(), 8 * f);
            assert_eq!(
                s.critical_path_cycles(),
                s.top_levels().into_iter().max().unwrap()
            );
            assert_eq!(s.total_work_cycles(), s.weights().iter().sum::<u64>());
        }
    }

    #[test]
    fn edges_iterator_matches_adjacency() {
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        assert!(edges.contains(&(TaskId(0), TaskId(1))));
        assert!(edges.contains(&(TaskId(2), TaskId(3))));
    }

    #[test]
    fn zero_weight_tasks_allowed() {
        let mut b = GraphBuilder::new();
        let a = b.add_task(0);
        let c = b.add_task(5);
        b.add_edge(a, c).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.weight(a), 0);
        assert_eq!(g.critical_path_cycles(), 5);
    }

    #[test]
    fn topo_order_is_discovery_order_not_lowest_id_first() {
        // Sources 0 and 1 are taken first; 5 is discovered (from 0)
        // before 3 (from 1), so it comes first despite its higher id.
        let mut b = GraphBuilder::new();
        let t: Vec<TaskId> = (0..6).map(|_| b.add_task(1)).collect();
        b.add_edge(t[0], t[5]).unwrap();
        b.add_edge(t[1], t[3]).unwrap();
        b.add_edge(t[2], t[4]).unwrap();
        b.add_edge(t[3], t[2]).unwrap();
        let g = b.build().unwrap();
        let ids: Vec<u32> = g.topo_order().iter().map(|t| t.0).collect();
        assert_eq!(ids, [0, 1, 5, 3, 2, 4]);
        assert_eq!(g.topo_order(), g.topo_order_reference().unwrap());
    }

    #[test]
    fn work_overflow_is_a_build_error() {
        // Every weight fits, but the sum does not.
        let mut b = GraphBuilder::new();
        let a = b.add_task(u64::MAX / 2 + 1);
        let c = b.add_task(u64::MAX / 2 + 1);
        b.add_edge(a, c).unwrap();
        assert_eq!(b.build(), Err(GraphError::WorkOverflow));
        // The overflow check runs before the cycle check.
        let mut b = GraphBuilder::new();
        let a = b.add_task(u64::MAX);
        let c = b.add_task(1);
        b.add_edge(a, c).unwrap();
        b.add_edge(c, a).unwrap();
        assert_eq!(b.build(), Err(GraphError::WorkOverflow));
        // Exactly u64::MAX of work still builds, and its critical path
        // (the whole chain) is exact.
        let mut b = GraphBuilder::new();
        let a = b.add_task(u64::MAX - 1);
        let c = b.add_task(1);
        b.add_edge(a, c).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.total_work_cycles(), u64::MAX);
        assert_eq!(g.critical_path_cycles(), u64::MAX);
        assert_eq!(
            GraphError::WorkOverflow.to_string(),
            "total work overflows u64 cycles"
        );
    }

    #[test]
    #[should_panic(expected = "scaled total work overflowed u64")]
    fn scale_weights_panics_when_the_scaled_work_overflows() {
        // Each scaled weight fits in u64; their sum does not.
        let mut b = GraphBuilder::new();
        b.add_task(1 << 62);
        b.add_task(1 << 62);
        b.build().unwrap().scale_weights(2);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn the_graph_struct_stays_twelve_words() {
        // Five boxed slices and the two cached totals. A corpus of many
        // small graphs pays this per graph, so growing it shows up in
        // peak memory even though no heap bytes change.
        assert_eq!(std::mem::size_of::<TaskGraph>(), 96);
    }
}
