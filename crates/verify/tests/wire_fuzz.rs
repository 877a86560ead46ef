//! The wire fuzzer on a fixed seed set (tier-1 budget; CI's `verify`
//! job runs a larger one).

use lamps_serve::protocol::Limits;
use lamps_verify::{check_line, run_wire, WireFuzzConfig};

#[test]
fn wire_fuzzer_is_clean_on_fixed_seeds() {
    for seed in [1u64, 2006, 0xdead_beef] {
        let out = run_wire(&WireFuzzConfig {
            iterations: 1500,
            seed,
        });
        if let Some(f) = &out.failure {
            panic!(
                "seed {seed}: iteration seed {} broke an invariant: {}\nline: {:?}\nlimits: {:?}",
                f.seed, f.violation, f.line, f.limits
            );
        }
        // Every outcome class is reached.
        assert!(out.decoded > 50, "{out:?}");
        assert!(
            out.malformed > 50 && out.bad_request > 50 && out.bad_graph > 20,
            "{out:?}"
        );
    }
}

#[test]
fn check_line_flags_nothing_on_the_corpus() {
    for e in lamps_verify::wire::corpus::corpus() {
        if let Err(v) = check_line(&e.line, &e.limits) {
            panic!("{v}: {:?}", e.line);
        }
    }
    assert_eq!(
        check_line("{\"id\":1,\"op\":\"ping\"}", &Limits::default()),
        Ok(None)
    );
}
