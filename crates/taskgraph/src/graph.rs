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
//! A graph lives in two heap blocks: its weights, and one arena holding
//! both directions' offsets and lists. The per-task name table exists
//! only when some task is named, so an unnamed graph of `N` tasks and
//! `E` edges owns exactly `8·N + 8·(N+1) + 8·E` heap bytes in those two
//! blocks, behind a 56-byte struct. The total work (a checked sum) and
//! the critical path are computed once, at build time, and kept as two
//! inline `u64`s. The critical path comes from the pass that proves
//! acyclicity: an order-free walk over a stack of ready tasks, with one
//! buffer that holds each task's count of untaken predecessors and then
//! its top level. Building allocates three blocks: the arena, at its
//! final size, and two scratch buffers that bucket the edges by source
//! and then serve that pass as its level buffer and its stack.

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

    /// Finalize: deduplicate edges, lay out the adjacency arena, verify
    /// acyclicity and compute the critical path and total work.
    ///
    /// O(V+E) apart from sorting each task's own successor list. Edge
    /// targets are bucketed by source into a scratch list (a counting
    /// sort), and each bucket is sorted and deduplicated while the list
    /// is compacted in place, which fixes the edge count before the
    /// arena exists. The arena is then allocated once at its final size
    /// and written in place: successor offsets and lists from the
    /// compacted buckets, then predecessor lists by one scatter that
    /// walks sources in ascending order, so both directions come out
    /// ascending; the predecessor offset slots serve as their own
    /// scatter cursors. One order-free pass over a LIFO of ready tasks
    /// then proves the graph acyclic and keeps the largest top level,
    /// the critical path (see [`TaskGraph::top_levels`]). That pass
    /// reuses the bucket ends as its level buffer and the scratch list
    /// as its stack, so building allocates three blocks, the arena among
    /// them, and the weights move from the builder without a copy.
    ///
    /// Errors with [`GraphError::WorkOverflow`] when the weights sum past
    /// `u64::MAX`; since every path is a subset of the tasks, every path
    /// sum of a built graph then fits too. Errors with
    /// [`GraphError::Cycle`] naming the lowest-id task that no
    /// topological order can reach.
    ///
    /// # Panics
    ///
    /// If the arena, `2·(N+1) + 2·E` entries, has more than `u32::MAX`
    /// of them: its offsets are `u32`.
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

        // Bucket the targets by source: `ends[i]` ends up at bucket `i`'s
        // end, which is bucket `i + 1`'s start. The scratch list is also
        // long enough to serve as the top-level pass's ready stack.
        let mut ends = vec![0u64; n + 1];
        for &(from, _) in &self.edges {
            ends[from.index() + 1] += 1;
        }
        for i in 0..n {
            ends[i + 1] += ends[i];
        }
        let mut scratch = Vec::with_capacity(self.edges.len().max(n));
        scratch.resize(self.edges.len(), TaskId(0));
        for &(from, to) in &self.edges {
            let cursor = &mut ends[from.index()];
            scratch[*cursor as usize] = to;
            *cursor += 1;
        }
        drop(self.edges);
        // Sort each bucket and drop its repeats, compacting the list in
        // place; `ends[i]` becomes bucket `i`'s compacted end.
        let (mut lo, mut e) = (0, 0);
        for end in &mut ends[..n] {
            let hi = *end as usize;
            if hi - lo > 1 {
                scratch[lo..hi].sort_unstable();
            }
            let start = e;
            for r in lo..hi {
                let to = scratch[r];
                if e == start || scratch[e - 1] != to {
                    scratch[e] = to;
                    e += 1;
                }
            }
            *end = e as u64;
            lo = hi;
        }

        let (base, len) = (2 * (n + 1), 2 * (n + 1) + 2 * e);
        u32::try_from(len).expect("the adjacency arena overflows its u32 offsets");
        let mut adjacency = vec![TaskId(0); len];
        let (offsets, lists) = adjacency.split_at_mut(base);
        let (succ_off, pred_off) = offsets.split_at_mut(n + 1);
        let (succ, pred) = lists.split_at_mut(e);

        // Successors: the compacted buckets. Offsets are absolute: the
        // successor lists begin right after the offsets, the predecessor
        // lists right after the successor lists.
        succ.copy_from_slice(&scratch[..e]);
        succ_off[0] = TaskId(base as u32);
        for (off, &end) in succ_off[1..].iter_mut().zip(&ends) {
            *off = TaskId((base as u64 + end) as u32);
        }
        for &to in succ.iter() {
            pred_off[to.index() + 1].0 += 1;
        }

        // Predecessors: walking sources in ascending order fills every
        // list in ascending order.
        pred_off[0] = TaskId((base + e) as u32);
        for i in 0..n {
            pred_off[i + 1].0 += pred_off[i].0;
        }
        for from in 0..n {
            let list = succ_off[from].index() - base..succ_off[from + 1].index() - base;
            for &to in &succ[list] {
                let cursor = &mut pred_off[to.index()];
                pred[cursor.index() - base - e] = TaskId(from as u32);
                cursor.0 += 1;
            }
        }
        unshift(pred_off, TaskId((base + e) as u32));

        let mut graph = TaskGraph {
            weights: self.weights.into_boxed_slice(),
            adjacency: adjacency.into_boxed_slice(),
            names: (!self.names.is_empty()).then(|| Box::new(self.names.into_boxed_slice())),
            critical_path_cycles: 0,
            total_work_cycles,
        };
        graph.critical_path_cycles = graph.top_levels_and_critical_path(ends, scratch)?.1;
        Ok(graph)
    }
}

/// After a scatter that advanced each list's start offset `off[i]` to
/// its end, which is the next list's start, shift the offsets back one
/// place and put the first list's start, `first`, in front again.
fn unshift(off: &mut [TaskId], first: TaskId) {
    let n = off.len() - 1;
    off.copy_within(0..n, 1);
    off[0] = first;
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
    /// One arena for both adjacency directions:
    /// `[succ_off (N+1) | pred_off (N+1) | succ (E) | pred (E)]`. The
    /// offsets are absolute indices into the arena, stored as `u32`s in
    /// `TaskId`s, so task `t`'s successors are
    /// `adjacency[adjacency[t]..adjacency[t + 1]]`.
    adjacency: Box<[TaskId]>,
    /// `None` when no task is named, else one slot per task. Boxed twice
    /// so the field is one word: few graphs are named.
    names: Option<Box<NameTable>>,
    /// Longest weighted path, from the top-level pass in `build`.
    critical_path_cycles: u64,
    /// Sum of `weights`, checked in `build`.
    total_work_cycles: u64,
}

/// The per-task names of a graph with at least one named task.
type NameTable = Box<[Option<String>]>;

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
        (self.adjacency.len() - 2 * (self.len() + 1)) / 2
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
        self.names.as_ref().and_then(|names| names[i].as_deref())
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
        self.list(&self.adjacency[..self.len() + 1], t)
    }

    /// Direct predecessors of `t`.
    #[inline]
    pub fn predecessors(&self, t: TaskId) -> &[TaskId] {
        self.list(self.pred_offsets(), t)
    }

    /// Task `t`'s list in the arena, given the `N + 1` offsets of one
    /// direction. Panics if `t` is not a task of this graph.
    #[inline]
    fn list(&self, offsets: &[TaskId], t: TaskId) -> &[TaskId] {
        &self.adjacency[offsets[t.index()].index()..offsets[t.index() + 1].index()]
    }

    /// The `N + 1` predecessor offsets.
    #[inline]
    fn pred_offsets(&self) -> &[TaskId] {
        let n = self.len();
        &self.adjacency[n + 1..2 * (n + 1)]
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
        let mut indeg: Vec<u32> = self
            .pred_offsets()
            .windows(2)
            .map(|w| w[1].0 - w[0].0)
            .collect();
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
    /// [`GraphError::Cycle`] payload. The buffer is `level` and the
    /// stack `ready`, both cleared first, so a caller that hands in room
    /// for `N` entries each allocates nothing here.
    pub(crate) fn top_levels_and_critical_path(
        &self,
        mut level: Vec<u64>,
        mut ready: Vec<TaskId>,
    ) -> Result<(Vec<u64>, u64), GraphError> {
        let n = self.len();
        level.clear();
        level.extend(
            self.pred_offsets()
                .windows(2)
                .map(|w| u64::from(w[1].0 - w[0].0)),
        );
        ready.clear();
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
        let mut graph = TaskGraph {
            weights: b.weights.into_boxed_slice(),
            adjacency: arena(&succ_off, &succ, &pred_off, &pred),
            names: (!b.names.is_empty()).then(|| Box::new(b.names.into_boxed_slice())),
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

    /// Pack two CSR halves, each with offsets relative to its own list,
    /// into the graph's arena layout with absolute offsets.
    fn arena(
        succ_off: &[u32],
        succ: &[TaskId],
        pred_off: &[u32],
        pred: &[TaskId],
    ) -> Box<[TaskId]> {
        let succ_base = (succ_off.len() + pred_off.len()) as u32;
        let pred_base = succ_base + succ.len() as u32;
        let succ_abs = succ_off.iter().map(|&o| TaskId(succ_base + o));
        let pred_abs = pred_off.iter().map(|&o| TaskId(pred_base + o));
        succ_abs
            .chain(pred_abs)
            .chain(succ.iter().copied())
            .chain(pred.iter().copied())
            .collect()
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
    fn the_graph_struct_stays_seven_words() {
        // The weights and the arena (two boxed slices), the one-word name
        // table and the two cached totals. A corpus of many small graphs
        // pays this per graph, so growing it shows up in peak memory even
        // though no heap bytes change.
        assert_eq!(std::mem::size_of::<TaskGraph>(), 56);
    }
}
