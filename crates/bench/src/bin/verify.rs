//! Verification gauntlet CLI: replay the regression corpus, then run the
//! deterministic differential fuzzer for a fixed budget. Exits non-zero
//! on the first violation; a failing fuzz case is shrunk and written out
//! so CI can upload it and a developer can commit it to the corpus.
//!
//! ```text
//! verify [--iterations N] [--seed S] [--max-tasks N]
//!        [--oracle-max-tasks N] [--oracle-budget N]
//!        [--corpus DIR] [--skip-corpus] [--failure-out DIR]
//!        [--wire-iterations N]
//! ```
//!
//! After the solver fuzzer, the wire fuzzer ([`lamps_verify::run_wire`])
//! checks `--wire-iterations` request lines (default 2000) from the same
//! seed against the `lamps-serve` decoder.

use lamps_bench::cli::Options;
use lamps_core::SchedulerConfig;
use lamps_verify::{corpus_file_name, run, run_corpus, run_wire, FuzzConfig, WireFuzzConfig};
use std::path::Path;

fn main() {
    let opts = Options::parse(&[
        "iterations",
        "seed",
        "max-tasks",
        "oracle-max-tasks",
        "oracle-budget",
        "corpus",
        "skip-corpus",
        "failure-out",
        "wire-iterations",
    ]);
    let fz = FuzzConfig {
        iterations: opts.u64("iterations", 200),
        seed: opts.u64("seed", 2006),
        max_tasks: opts.usize("max-tasks", 24),
        oracle_max_tasks: opts.usize("oracle-max-tasks", 6),
        oracle_order_budget: opts.usize("oracle-budget", 20_000),
    };
    let corpus_dir = opts.string("corpus", "crates/verify/tests/corpus");
    let failure_out = opts.string("failure-out", "target/fuzz-failures");
    let scfg = SchedulerConfig::paper();
    let mut failed = false;

    if !opts.flag("skip-corpus") {
        match run_corpus(Path::new(&corpus_dir), &scfg, &fz) {
            Ok(results) => {
                let dirty: Vec<_> = results
                    .iter()
                    .filter(|r| !r.violations.is_empty())
                    .collect();
                eprintln!(
                    "corpus: {} entries, {} clean, {} dirty",
                    results.len(),
                    results.len() - dirty.len(),
                    dirty.len()
                );
                for r in &dirty {
                    failed = true;
                    eprintln!("corpus REGRESSION in {}:", r.path.display());
                    for v in &r.violations {
                        eprintln!("  - {v}");
                    }
                }
            }
            Err(e) => {
                eprintln!("error: cannot read corpus dir {corpus_dir}: {e}");
                std::process::exit(2);
            }
        }
    }

    eprintln!(
        "fuzz: {} iterations, seed {}, <= {} tasks, oracle on <= {} tasks",
        fz.iterations, fz.seed, fz.max_tasks, fz.oracle_max_tasks
    );
    let outcome = run(&fz, &scfg);
    eprintln!(
        "fuzz: {} iterations run, {} solutions validated, {} instances proven against the oracle",
        outcome.iterations_run, outcome.checked_solutions, outcome.oracle_instances
    );
    if let Some(f) = &outcome.failure {
        failed = true;
        eprintln!(
            "fuzz FAILURE at seed {} ({} tasks, shrunk to {}):",
            f.case.seed,
            f.case.weights.len(),
            f.shrunk.weights.len()
        );
        for v in &f.violations {
            eprintln!("  - {v}");
        }
        let dir = Path::new(&failure_out);
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {failure_out}: {e}");
        } else {
            let path = dir.join(corpus_file_name(&f.shrunk));
            match std::fs::write(&path, f.shrunk.serialize()) {
                Ok(()) => eprintln!(
                    "shrunk counterexample written to {} — commit it to {corpus_dir} once fixed",
                    path.display()
                ),
                Err(e) => eprintln!("error: cannot write {}: {e}", path.display()),
            }
        }
    }

    let wire = WireFuzzConfig {
        iterations: opts.u64("wire-iterations", 2000),
        seed: fz.seed,
    };
    let outcome = run_wire(&wire);
    eprintln!(
        "wire fuzz: {} lines, seed {}: {} decoded and round-tripped, {} malformed_json, {} bad_request, {} bad_graph",
        outcome.iterations_run,
        wire.seed,
        outcome.decoded,
        outcome.malformed,
        outcome.bad_request,
        outcome.bad_graph
    );
    if let Some(f) = &outcome.failure {
        failed = true;
        eprintln!(
            "wire fuzz FAILURE at iteration seed {}: {}\n  line: {:?}\n  limits: {:?}",
            f.seed, f.violation, f.line, f.limits
        );
    }

    if failed {
        std::process::exit(1);
    }
    eprintln!("verification gauntlet clean");
}
