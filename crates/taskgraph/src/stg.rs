//! Reader and writer for the Standard Task Graph Set format (Kasahara et
//! al., Waseda University), the benchmark format of §5.1.
//!
//! The format is line-oriented:
//!
//! ```text
//! <number-of-task-lines>
//! <task-id> <processing-time> <num-predecessors> [<pred-id> ...]
//! ...
//! # optional trailing comments
//! ```
//!
//! Task ids are consecutive integers starting at 0; by convention the set
//! includes a zero-cost dummy entry node (id 0) and a zero-cost dummy exit
//! node (the last id). Comments start with `#` and blank lines are
//! ignored. Predecessor lists may wrap onto continuation lines in some
//! distributions; this reader keeps consuming tokens until the declared
//! predecessor count is satisfied.

use crate::graph::{GraphBuilder, GraphError, TaskGraph, TaskId};

/// Errors raised while parsing STG input.
#[derive(Debug, Clone, PartialEq)]
pub enum StgError {
    /// Input ended before the declared number of tasks was read.
    UnexpectedEof,
    /// A token could not be parsed as an unsigned integer.
    BadToken(String),
    /// The declared task count header is missing or zero.
    BadHeader,
    /// Task lines are not numbered consecutively from 0.
    NonContiguousIds { expected: u64, found: u64 },
    /// The resulting edge relation was not a DAG or referenced unknown
    /// tasks.
    Graph(GraphError),
}

impl std::fmt::Display for StgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StgError::UnexpectedEof => write!(f, "unexpected end of STG input"),
            StgError::BadToken(t) => write!(f, "cannot parse token {t:?} as integer"),
            StgError::BadHeader => write!(f, "missing or zero task-count header"),
            StgError::NonContiguousIds { expected, found } => {
                write!(f, "expected task id {expected}, found {found}")
            }
            StgError::Graph(e) => write!(f, "invalid STG graph: {e}"),
        }
    }
}

impl std::error::Error for StgError {}

impl From<GraphError> for StgError {
    fn from(e: GraphError) -> Self {
        StgError::Graph(e)
    }
}

/// Parse a task graph from STG-format text.
///
/// Weights are returned in STG units (typically 1–300); scale with
/// [`TaskGraph::scale_weights`] to pick a granularity (§5.1 uses
/// 3.1·10⁶ cycles/unit for coarse grain and 3.1·10⁴ for fine grain).
///
/// # Example
///
/// ```
/// let text = "\
/// 5
/// 0 0 0
/// 1 7 1 0
/// 2 9 1 0
/// 3 4 2 1 2
/// 4 0 1 3
/// ";
/// let g = lamps_taskgraph::stg::parse(text).unwrap();
/// assert_eq!(g.len(), 5);
/// assert_eq!(g.critical_path_cycles(), 9 + 4);
/// ```
pub fn parse(text: &str) -> Result<TaskGraph, StgError> {
    let mut tokens = text
        .lines()
        .map(|l| match l.find('#') {
            Some(i) => &l[..i],
            None => l,
        })
        .flat_map(|l| l.split_whitespace())
        .map(|t| {
            t.parse::<u64>()
                .map_err(|_| StgError::BadToken(t.to_string()))
        });

    let mut next = || tokens.next().unwrap_or(Err(StgError::UnexpectedEof));
    let n = next()?;
    if n == 0 {
        return Err(StgError::BadHeader);
    }

    // Reserve no more than the input can hold: every task line takes at
    // least three tokens and every predecessor one, so a huge declared
    // count in a short input cannot request a huge allocation.
    let max_tokens = text.split_whitespace().count();
    let n_cap = usize::try_from(n).unwrap_or(usize::MAX).min(max_tokens / 3);
    let mut builder = GraphBuilder::with_capacity(n_cap, n_cap.saturating_mul(2).min(max_tokens));
    let mut preds: Vec<Vec<u64>> = Vec::with_capacity(n_cap);
    for expected in 0..n {
        let id = next()?;
        if id != expected {
            return Err(StgError::NonContiguousIds {
                expected,
                found: id,
            });
        }
        let weight = next()?;
        let npred = next()?;
        let mut plist =
            Vec::with_capacity(usize::try_from(npred).unwrap_or(usize::MAX).min(max_tokens));
        for _ in 0..npred {
            plist.push(next()?);
        }
        builder.add_task(weight);
        preds.push(plist);
    }

    for (to, plist) in preds.iter().enumerate() {
        for &from in plist {
            let from = u32::try_from(from).map_err(|_| StgError::BadToken(from.to_string()))?;
            builder
                .add_edge(TaskId(from), TaskId(to as u32))
                .map_err(StgError::from)?;
        }
    }

    builder.build().map_err(StgError::from)
}

/// Serialize a task graph to STG-format text (weights written verbatim).
pub fn write(graph: &TaskGraph) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    writeln!(out, "{}", graph.len()).unwrap();
    for t in graph.tasks() {
        let preds = graph.predecessors(t);
        write!(out, "{} {} {}", t.0, graph.weight(t), preds.len()).unwrap();
        for p in preds {
            write!(out, " {}", p.0).unwrap();
        }
        out.push('\n');
    }
    out
}

/// Read and parse an STG file from disk.
pub fn read_file(path: &std::path::Path) -> Result<TaskGraph, Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path)?;
    Ok(parse(&text)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# a tiny STG file
5
0 0 0
1 7 1 0
2 9 1 0
3 4 2 1 2
4 0 1 3    # dummy exit
";

    #[test]
    fn parses_sample() {
        let g = parse(SAMPLE).unwrap();
        assert_eq!(g.len(), 5);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.weight(TaskId(1)), 7);
        assert_eq!(g.predecessors(TaskId(3)), &[TaskId(1), TaskId(2)]);
        assert_eq!(g.critical_path_cycles(), 13);
        assert_eq!(g.total_work_cycles(), 20);
    }

    #[test]
    fn roundtrip_preserves_graph() {
        let g = parse(SAMPLE).unwrap();
        let text = write(&g);
        let g2 = parse(&text).unwrap();
        assert_eq!(g.len(), g2.len());
        assert_eq!(g.edge_count(), g2.edge_count());
        for t in g.tasks() {
            assert_eq!(g.weight(t), g2.weight(t));
            assert_eq!(g.predecessors(t), g2.predecessors(t));
        }
    }

    #[test]
    fn predecessor_list_may_wrap_lines() {
        let text = "4\n0 1 0\n1 1 0\n2 1 0\n3 1 3 0 1\n2\n";
        let g = parse(text).unwrap();
        assert_eq!(g.predecessors(TaskId(3)).len(), 3);
    }

    #[test]
    fn huge_declared_counts_in_tiny_inputs_are_truncated_not_reserved() {
        for text in ["100000000000000\n0 0 0\n", "2\n0 0 100000000000000\n"] {
            assert_eq!(
                parse(text).unwrap_err(),
                StgError::UnexpectedEof,
                "{text:?}"
            );
        }
    }

    #[test]
    fn rejects_truncated_input() {
        assert_eq!(parse("3\n0 1 0\n1 1 1 0\n"), Err(StgError::UnexpectedEof));
    }

    #[test]
    fn rejects_garbage_tokens() {
        match parse("2\n0 x 0\n1 1 0\n") {
            Err(StgError::BadToken(t)) => assert_eq!(t, "x"),
            other => panic!("expected BadToken, got {other:?}"),
        }
    }

    #[test]
    fn rejects_non_contiguous_ids() {
        assert_eq!(
            parse("2\n0 1 0\n5 1 0\n"),
            Err(StgError::NonContiguousIds {
                expected: 1,
                found: 5
            })
        );
    }

    #[test]
    fn rejects_zero_header() {
        assert_eq!(parse("0\n"), Err(StgError::BadHeader));
    }

    #[test]
    fn rejects_forward_cycles() {
        // STG files list predecessors, so an edge to a later-declared task
        // is fine, but a mutual dependence is a cycle.
        let text = "2\n0 1 1 1\n1 1 1 0\n";
        match parse(text) {
            Err(StgError::Graph(GraphError::Cycle(_))) => {}
            other => panic!("expected cycle error, got {other:?}"),
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\n# header\n2\n\n0 3 0\n# mid\n1 4 1 0\n\n";
        let g = parse(text).unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(g.total_work_cycles(), 7);
    }
}
