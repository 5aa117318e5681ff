//! The benchmark's own checks on its inputs and its open-loop timer.

use std::collections::HashSet;
use std::time::Duration;

use annoda_perfbench::gen::{self, Vocab, Workload};
use annoda_perfbench::{load, run};

fn vocab(seed: u64) -> Vocab {
    Vocab::of(&gen::corpus(Workload::BrowseMiss.loci(), seed))
}

#[test]
fn generator_is_deterministic_per_seed() {
    let (a, b) = (vocab(5), vocab(5));
    assert_eq!(
        gen::browse_requests(5, &a, 300),
        gen::browse_requests(5, &b, 300)
    );
    assert_eq!(
        gen::search_lorel_requests(5, &a, 300),
        gen::search_lorel_requests(5, &b, 300)
    );
    let due = |i: usize| Duration::from_millis(200 * i as u64);
    let pace = Workload::FeedAbsorb
        .feed_pace()
        .expect("feed_absorb has a feed");
    let recent = |_: Duration| vec!["X".to_string()];
    assert_eq!(
        gen::feed_requests(5, &a, 100, due, recent),
        gen::feed_requests(5, &b, 100, due, recent)
    );
    assert_eq!(
        gen::mutation_schedule(Duration::from_secs(3), pace, 5),
        gen::mutation_schedule(Duration::from_secs(3), pace, 5)
    );

    let c = vocab(6);
    assert_ne!(
        gen::browse_requests(5, &a, 300),
        gen::browse_requests(6, &c, 300),
        "another seed gives other inputs"
    );
}

#[test]
fn browse_miss_never_repeats_a_request() {
    let v = vocab(9);
    // More requests than a 60-second run sends.
    let n = 3_000;
    let reqs = gen::browse_requests(9, &v, n);
    assert_eq!(reqs.len(), n);
    let distinct: HashSet<_> = reqs.iter().map(|r| (&r.target, r.json)).collect();
    assert_eq!(distinct.len(), n, "a repeated request could hit the cache");
}

#[test]
fn open_loop_charges_a_stall_to_the_requests_behind_it() {
    // One worker, a request due every 10 ms, and the first reply stalls
    // for 50 ms: the requests due during the stall are sent late, and
    // each one's latency includes its wait from its due time.
    let stall = Duration::from_millis(50);
    let samples = load::open_loop(&mut [()], 100.0, Duration::from_millis(60), 6, |_, i| {
        if i == 0 {
            std::thread::sleep(stall);
        }
        true
    });
    assert_eq!(samples.len(), 6);
    for s in &samples[1..5] {
        let waited = stall - Duration::from_millis(10 * s.index as u64);
        assert!(
            s.latency >= waited && s.late >= waited,
            "request {} latency {:?} late {:?}, expected at least {waited:?}",
            s.index,
            s.latency,
            s.late
        );
    }
}

#[test]
fn a_disturbed_round_does_not_set_the_figure() {
    // Five rounds of 100 samples; the last round ran on a disturbed
    // machine and is ten times slower throughout.
    let mut ms = vec![10.0; 400];
    ms.extend(vec![100.0; 100]);
    assert_eq!(run::round_quantile(&ms, 0.9), 10.0);
    // Too few samples for rounds: one pooled figure.
    assert_eq!(run::round_quantile(&[1.0, 2.0, 3.0], 0.5), 2.0);
}
