//! Seeded stress of the bounded job queue under close.
//!
//! `N` producers push numbered items into a small [`Bounded`] queue
//! while `M` consumers pop them. Once a seeded number of pushes has been
//! tried, every thread pauses at its next step; the closer then fills
//! the queue to capacity and closes it, and the run goes on: the
//! producers' remaining pushes meet a closed queue, and the consumers
//! drain what the close left queued. The queue must keep four promises:
//!
//! * every push answered `Ok` is popped exactly once;
//! * every push refused as `Full` or `Closed` hands its own item back;
//! * no push that starts after `close` has returned is accepted;
//! * `pop` returns `None` only once the queue is closed and drained,
//!   and from then on it never blocks and never hands out an item.
//!
//! The seeds pick the thread counts, the capacity, the item counts, the
//! close point and each thread's pacing.

use lamps_serve::queue::{Bounded, PushError};
use lamps_taskgraph::rng::Rng;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

/// What one producer saw.
#[derive(Default)]
struct Pushed {
    accepted: Vec<u64>,
    full: u64,
    closed: u64,
}

/// The close point: once `tried` reaches `at`, threads wait until
/// `closed` is set.
struct Gate {
    tried: AtomicU64,
    at: u64,
    closed: AtomicBool,
    /// Consumers held at the close point.
    held: AtomicUsize,
}

impl Gate {
    fn reached(&self) -> bool {
        self.tried.load(Ordering::SeqCst) >= self.at
    }

    /// Hold the calling thread while the close point is reached but the
    /// queue is not yet closed, counting a held consumer.
    fn wait(&self, consumer: bool) {
        if !self.reached() || self.closed.load(Ordering::SeqCst) {
            return;
        }
        if consumer {
            self.held.fetch_add(1, Ordering::SeqCst);
        }
        while !self.closed.load(Ordering::SeqCst) {
            thread::yield_now();
        }
    }
}

fn stress(seed: u64) {
    let mut rng = Rng::seed_from_u64(seed);
    let producers = rng.gen_range(1..5usize);
    let consumers = rng.gen_range(1..4usize);
    let capacity = rng.gen_range(1..9usize);
    let per_producer = rng.gen_range(200..600u64);
    let total = producers as u64 * per_producer;

    let queue = Arc::new(Bounded::<u64>::new(capacity));
    let gate = Arc::new(Gate {
        tried: AtomicU64::new(0),
        at: rng.gen_range(total / 4..3 * total / 4),
        closed: AtomicBool::new(false),
        held: AtomicUsize::new(0),
    });

    let producer_handles: Vec<_> = (0..producers)
        .map(|p| {
            let (queue, gate) = (queue.clone(), gate.clone());
            let mut pace = Rng::seed_from_u64(seed ^ (p as u64 + 1) << 32);
            thread::spawn(move || {
                let mut out = Pushed::default();
                let mut refused_closed = false;
                for k in 0..per_producer {
                    let item = (p as u64) << 32 | k;
                    let after_close = gate.closed.load(Ordering::SeqCst);
                    let result = queue.try_push(item);
                    gate.tried.fetch_add(1, Ordering::SeqCst);
                    match result {
                        Ok(depth) => {
                            assert!(!after_close, "push {item:#x} accepted after close");
                            assert!(!refused_closed, "push {item:#x} accepted after Closed");
                            assert!((1..=capacity).contains(&depth), "depth {depth}");
                            out.accepted.push(item);
                        }
                        Err(PushError::Full(back)) => {
                            assert_eq!(back, item, "Full hands its own item back");
                            assert!(!after_close, "push after close refused as Full");
                            out.full += 1;
                        }
                        Err(PushError::Closed(back)) => {
                            assert_eq!(back, item, "Closed hands its own item back");
                            refused_closed = true;
                            out.closed += 1;
                        }
                    }
                    gate.wait(false);
                    if pace.gen_bool(0.2) {
                        thread::yield_now();
                    }
                }
                out
            })
        })
        .collect();

    let consumer_handles: Vec<_> = (0..consumers)
        .map(|c| {
            let (queue, gate) = (queue.clone(), gate.clone());
            let mut pace = Rng::seed_from_u64(!seed ^ (c as u64 + 1) << 32);
            thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(item) = queue.pop() {
                    got.push(item);
                    gate.wait(true);
                    if pace.gen_bool(0.2) {
                        thread::yield_now();
                    }
                }
                // `None` means closed and drained: a push is refused as
                // closed, nothing is left, and `pop` stays `None`.
                assert!(matches!(
                    queue.try_push(u64::MAX),
                    Err(PushError::Closed(_))
                ));
                assert!(queue.is_empty());
                assert_eq!(queue.pop(), None);
                got
            })
        })
        .collect();

    // A producer that panicked stops counting: go on once every
    // producer is done, so a failure cannot hang the test.
    while !gate.reached() && !producer_handles.iter().all(|h| h.is_finished()) {
        thread::yield_now();
    }
    // Producers hold after their current push. Fill the queue until it
    // is full and every consumer is held too (one blocked in `pop`
    // takes a filler item first), then close it full.
    let mut filler = Vec::new();
    loop {
        let item = u64::from(u32::MAX) << 32 | filler.len() as u64;
        match queue.try_push(item) {
            Ok(_) => filler.push(item),
            Err(PushError::Full(_))
                if gate.held.load(Ordering::SeqCst) == consumers
                    || consumer_handles.iter().any(|h| h.is_finished()) =>
            {
                break
            }
            Err(PushError::Full(_)) => thread::yield_now(),
            Err(PushError::Closed(_)) => panic!("closed before the close"),
        }
    }
    assert_eq!(
        queue.len(),
        capacity,
        "seed {seed}: the close finds a full queue"
    );
    queue.close();
    gate.closed.store(true, Ordering::SeqCst);

    let pushed: Vec<Pushed> = producer_handles
        .into_iter()
        .map(|h| h.join().expect("producer"))
        .collect();
    let mut popped: Vec<u64> = consumer_handles
        .into_iter()
        .flat_map(|h| h.join().expect("consumer"))
        .collect();

    let refused: u64 = pushed.iter().map(|p| p.full + p.closed).sum();
    let mut accepted: Vec<u64> = pushed.iter().flat_map(|p| p.accepted.clone()).collect();
    assert_eq!(accepted.len() as u64 + refused, total, "seed {seed}");
    assert!(
        pushed.iter().any(|p| p.closed > 0),
        "seed {seed}: pushes go on after the close"
    );
    accepted.extend(filler);
    accepted.sort_unstable();
    popped.sort_unstable();
    assert_eq!(
        popped, accepted,
        "seed {seed}: Ok pushes popped exactly once"
    );
}

#[test]
fn close_mid_run_keeps_every_promise() {
    for seed in [1u64, 2006, 0x5EED_CAFE] {
        stress(seed);
    }
}
