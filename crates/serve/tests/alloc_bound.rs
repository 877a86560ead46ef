//! Peak heap of `parse_request`, measured with a counting allocator.
//!
//! The streaming decoder keeps no JSON value tree, so the heap it
//! touches is the graph it builds plus growth slack: at most 4× the
//! line's bytes on a 1000-task request and on requests exactly at their
//! [`Limits`]. Past the limits nothing more is stored, so a line many
//! times over the limits costs no more than one at them.
//!
//! This file deliberately contains a single `#[test]`: the counters are
//! process-global, and a sibling test allocating on another thread would
//! show up in the peak. The library crate forbids `unsafe`; the
//! `GlobalAlloc` impl below lives in this integration test only.

use lamps_core::Strategy;
use lamps_serve::encode_solve_request;
use lamps_serve::protocol::{parse_request, DeadlineSpec, Limits, Request};
use lamps_taskgraph::gen::layered::stg_group;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// System allocator that tracks live bytes and their high-water mark.
struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Count the move as both blocks live at once: an upper bound.
        grow(new_size);
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

/// Peak heap bytes above the starting level while `f` runs (its result
/// dropped inside).
fn peak_of<T>(f: impl FnOnce() -> T) -> usize {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    drop(f());
    PEAK.load(Ordering::Relaxed) - base
}

#[test]
fn parse_request_peak_heap_is_bounded_by_the_line_and_the_limits() {
    let graphs = stg_group(1000, 3, 2006);
    for (i, g) in graphs.iter().enumerate() {
        let line = encode_solve_request(
            i as u64,
            Strategy::LampsPs,
            DeadlineSpec::Factor(2.0),
            g,
            None,
        );
        let line = line.trim_end();
        let exact = Limits {
            max_tasks: g.len(),
            max_edges: g.edge_count(),
            ..Limits::default()
        };
        let one_under = Limits {
            max_tasks: g.len() - 1,
            ..exact
        };
        for (what, limits) in [
            ("default limits", Limits::default()),
            ("exactly at the limits", exact),
            ("one task over the limits", one_under),
        ] {
            let peak = peak_of(|| parse_request(line, &limits));
            let tree = peak_of(|| lamps_obs::json::parse(line));
            println!(
                "graph {i} ({} tasks, {} edges, {} B line), {what}: decoder peak {peak} B ({:.2}x), value tree {tree} B ({:.2}x)",
                g.len(),
                g.edge_count(),
                line.len(),
                peak as f64 / line.len() as f64,
                tree as f64 / line.len() as f64,
            );
            assert!(
                peak <= 4 * line.len(),
                "graph {i}, {what}: peak {peak} B exceeds 4x the {} B line",
                line.len()
            );
        }
        assert!(matches!(parse_request(line, &exact), Ok(Request::Solve(_))));
    }

    // Far past the limits: a 200,000-weight line under a 1000-task
    // limit stores no more than a line at the limit would.
    let limits = Limits {
        max_tasks: 1000,
        max_edges: 4000,
        ..Limits::default()
    };
    let weights = vec!["3100000"; 200_000].join(",");
    let edges = vec!["[0,1]"; 200_000].join(",");
    for graph in [
        format!("{{\"weights\":[{weights}]}}"),
        format!("{{\"weights\":[1,2],\"edges\":[{edges}]}}"),
        format!("{{\"edges\":[{edges}],\"weights\":[1,2]}}"),
    ] {
        let line = format!("{{\"id\":1,\"strategy\":\"ss\",\"deadline_s\":1,\"graph\":{graph}}}");
        let peak = peak_of(|| parse_request(&line, &limits));
        let at_limits = 4 * 16 * (limits.max_tasks + limits.max_edges);
        println!(
            "{} B line past the limits: decoder peak {peak} B",
            line.len()
        );
        assert!(
            peak <= at_limits,
            "peak {peak} B for a line past the limits exceeds {at_limits} B"
        );
        assert_eq!(parse_request(&line, &limits).unwrap_err().kind, "bad_graph");
    }
}
