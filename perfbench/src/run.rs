//! One benchmark run: set the node up (several times, for a steady
//! set-up figure), drive it with the workload, check the answers and
//! compute the end-to-end metrics — and, with tracing on, the per-layer
//! metrics from the traced replay.

use std::collections::{BTreeMap, VecDeque};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use annoda::DurableSystem;
use annoda_sources::Corpus;
use annoda_stream::FeedGauges;

use crate::client::{self, Conn};
use crate::feed::{self, FeedSources, History, LOCUSLINK, OMIM};
use crate::gen::{self, FeedPace, Mutation, ReadReq, Route, Vocab, Workload};
use crate::load::{self, latency_ms, quantile, Sample};
use crate::node::{self, Node, Sources, Store};
use crate::oracle;
use crate::replay::{self, FeedPlan};
use crate::report::{Metric, Outcome};
use crate::trace::Tracer;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// Node set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Requests sent before timing starts (lazy set-up, warm caches).
const WARMUP: usize = 20;
/// Every `SAMPLE_EVERY`-th reply is checked against the oracle, at most
/// `MAX_SAMPLES` per run.
const SAMPLE_EVERY: usize = 6;
const MAX_SAMPLES: usize = 80;
/// Closed-loop rounds per run (`read_rps_max` is their median), open-loop
/// rounds of a read workload (each reports the cache hit ratio it saw),
/// and the most rounds a latency figure is cut into.
const ROUNDS: usize = 5;
/// The fewest samples a round of a latency figure holds.
const MIN_ROUND_SAMPLES: usize = 100;
/// Share of the read window the open loop runs; the closed loop runs
/// the rest.
const OPEN_SHARE: f64 = 0.75;
/// Share of a `browse_miss` window left for its feed phase, which runs
/// after the reads so that every read answer is checked against one
/// fixed store.
const BROWSE_FEED_SHARE: f64 = 0.25;
/// Generator connections (and threads) — the core count of the bench box.
const CONNECTIONS: usize = 2;
/// How long the feed may take to absorb the last mutation.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);
/// Period of the `/metrics` scrapes that sample feed lag.
const SCRAPE_EVERY: Duration = Duration::from_millis(100);
/// Mutated genes whose final description a fed run reads back.
const FINAL_READS: usize = 30;

/// Where a run keeps its data dirs and results, under the checkout root.
pub struct Dirs {
    pub root: PathBuf,
    pub work: PathBuf,
    pub results: PathBuf,
}

impl Dirs {
    pub fn new(root: &Path) -> Dirs {
        let bench = root.join("perfbench");
        Dirs {
            root: root.to_path_buf(),
            work: bench
                .join(".work")
                .join(format!("run-{}", std::process::id())),
            results: bench.join("results"),
        }
    }
}

pub fn run(args: &Args, dirs: &Dirs) -> Result<Outcome, String> {
    std::fs::create_dir_all(&dirs.work).map_err(|e| format!("create work dir: {e}"))?;
    let result = match args.workload {
        Workload::FeedAbsorb => run_feed(args, dirs),
        Workload::BrowseMiss | Workload::SearchLorel => run_reads(args, dirs),
    };
    let _ = std::fs::remove_dir_all(&dirs.work);
    if let Some(parent) = dirs.work.parent() {
        let _ = std::fs::remove_dir(parent); // only when no other run uses it
    }
    result
}

/// Peak resident memory of this process (node and generator), MB.
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The set-up probe: a ranked search needs the materialised model and
/// the search index, so its answer marks a fully built node.
fn first_read(vocab: &Vocab) -> ReadReq {
    ReadReq {
        route: Route::Search,
        target: format!(
            "/search?q={}&k=10&fusion=weighted",
            gen::encode(&vocab.search_words[0])
        ),
        body: String::new(),
        json: false,
        lorel: None,
    }
}

/// Builds a node and times it from handing over the sources to the
/// first correct read. A node given `feeds` is durable and sharded and
/// tails them. `round` names its data dir.
fn setup(
    corpus: &Corpus,
    vocab: &Vocab,
    dirs: &Dirs,
    feeds: Option<&FeedSources>,
    round: usize,
    out: &mut Outcome,
) -> Result<(Node, f64), String> {
    let probe = first_read(vocab);
    let sources = Sources::of(corpus);
    let dir = dirs.work.join(format!("node-{round}"));
    let _ = std::fs::remove_dir_all(&dir);
    let subscribe: Vec<(&str, SocketAddr)> = feeds.map_or(Vec::new(), |f| {
        vec![
            (LOCUSLINK, f.locuslink.server.addr()),
            (OMIM, f.omim.server.addr()),
        ]
    });
    let start = Instant::now();
    let store = if feeds.is_some() {
        Store::ShardedDir(&dir)
    } else {
        Store::Memory
    };
    let node = Node::start(sources, store, &subscribe)?;
    let reply = Conn::new(node.addr())
        .send(&probe.wire())
        .map_err(|e| format!("first read: {e}"))?;
    let took = start.elapsed().as_secs_f64();
    out.attempted += 1;
    let expected = oracle::answer(&node.server.app().system(), &probe, &mut Tracer::off())?;
    if reply.status != 200 || reply.body != expected {
        out.fail(format!(
            "set-up {round}: first read differs from the oracle"
        ));
    }
    Ok((node, took))
}

/// The remaining `SETUPS - 1` set-ups, each on a fresh node that is shut
/// down again. They run after the timed run has read its memory peak,
/// so `rss_peak_mb` holds one node's set-up and serving. A fed node
/// subscribes to fresh, empty feeds, as the first did.
fn more_setups(
    corpus: &Corpus,
    vocab: &Vocab,
    dirs: &Dirs,
    fed: Option<u64>,
    out: &mut Outcome,
) -> Result<Vec<f64>, String> {
    let mut times = Vec::new();
    for round in 1..SETUPS {
        let feeds = fed
            .map(|seed| FeedSources::spawn(corpus, seed))
            .transpose()?;
        let (node, took) = setup(corpus, vocab, dirs, feeds.as_ref(), round, out)?;
        times.push(took);
        node.shutdown();
        if let Some(mut f) = feeds {
            f.shutdown();
        }
    }
    Ok(times)
}

fn conns(addr: SocketAddr, n: usize) -> Vec<Conn> {
    (0..n).map(|_| Conn::new(addr)).collect()
}

/// Whether reply `i` is kept for the oracle check.
fn sampled(seed: u64, i: usize) -> bool {
    i % SAMPLE_EVERY == (seed as usize) % SAMPLE_EVERY && i / SAMPLE_EVERY < MAX_SAMPLES
}

/// Counters scraped from `/metrics`, as differences between two scrapes.
#[derive(Debug, Default, Clone)]
struct Scraped {
    cache_hit_ratio: f64,
    shed: f64,
    records: f64,
    batches: f64,
    absorb_us: f64,
}

impl Scraped {
    fn between(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>) -> Scraped {
        let d = |name: &str| node::series_sum(after, name) - node::series_sum(before, name);
        let hits = d("annoda_http_cache_hits_total");
        let misses = d("annoda_http_cache_misses_total");
        Scraped {
            cache_hit_ratio: if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
            shed: d("annoda_shed_total"),
            records: d("annoda_feed_records_total"),
            batches: d("annoda_feed_batches_total"),
            absorb_us: d("annoda_feed_absorb_us_total"),
        }
    }

    fn serve_metrics(&self) -> Vec<Metric> {
        vec![
            Metric::new("serve.cache_hit_ratio", self.cache_hit_ratio, "ratio"),
            Metric::new("serve.shed", self.shed, "count"),
        ]
    }
}

/// Checks the sampled replies against the oracle. A mismatch marks the
/// request failed (it then counts as missing every latency limit);
/// returns how many replies were checked and why each mismatch failed.
fn check_samples(
    sys: &DurableSystem,
    reqs: &[ReadReq],
    replies: Vec<(usize, Vec<u8>)>,
    samples: &mut [&mut Sample],
) -> Result<(usize, BTreeMap<usize, String>), String> {
    let mut checked = 0;
    let mut why = BTreeMap::new();
    for (i, body) in replies {
        let req = &reqs[i];
        let expected = oracle::answer(sys, req, &mut Tracer::off())?;
        checked += 1;
        if oracle::normalise(req.route, req.json, &body)
            != oracle::normalise(req.route, req.json, &expected)
        {
            let method = if req.route == Route::Lorel {
                "POST"
            } else {
                "GET"
            };
            why.insert(
                i,
                format!(
                    "{method} {} (json {}): served body differs from the oracle",
                    req.target, req.json
                ),
            );
            if let Some(s) = samples.iter_mut().find(|s| s.index == i) {
                s.ok = false;
            }
        }
    }
    Ok((checked, why))
}

/// Counts each request once: attempted, and failed when its reply was
/// refused, missing or wrong (`why` holds the reason for wrong ones).
fn tally(samples: &[Sample], why: &BTreeMap<usize, String>, out: &mut Outcome) {
    out.attempted += samples.len() as u64;
    for s in samples.iter().filter(|s| !s.ok) {
        out.failed += 1;
        out.errors.push(
            why.get(&s.index)
                .cloned()
                .unwrap_or_else(|| format!("request {} failed or was refused", s.index)),
        );
    }
}

fn latencies(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(latency_ms).collect()
}

fn lateness_ms(samples: &[Sample]) -> f64 {
    let late: Vec<f64> = samples.iter().map(|s| s.late.as_secs_f64() * 1e3).collect();
    quantile(&late, 0.99)
}

/// Sends the warm-up requests one at a time, alternating connections,
/// so every run starts timing from the same cache state.
fn warm_up<W>(pool: &mut [W], send: impl Fn(&mut W, usize) -> bool) -> Vec<Sample> {
    (0..WARMUP)
        .map(|i| {
            let sent = Instant::now();
            let ok = send(&mut pool[i % pool.len()], i);
            Sample {
                index: i,
                latency: sent.elapsed(),
                late: Duration::ZERO,
                ok,
            }
        })
        .collect()
}

/// Shifts sample indices from a slice offset to request-list indices.
fn rebase(mut samples: Vec<Sample>, base: usize) -> Vec<Sample> {
    for s in &mut samples {
        s.index += base;
    }
    samples
}

/// `ROUNDS` closed-loop rounds of `round` each, round `r` on the
/// requests from `base + r * per_round`. Returns the samples and each
/// round's correct replies per second; the median over rounds keeps one
/// disturbed stretch of a shared machine from deciding the capacity.
fn closed_rounds<W: Send, S: Fn(&mut W, usize) -> bool + Sync>(
    pool: &mut [W],
    round: Duration,
    per_round: usize,
    base: usize,
    send: impl Fn(usize) -> S,
) -> (Vec<Sample>, Vec<f64>) {
    let mut samples = Vec::new();
    let mut rps = Vec::with_capacity(ROUNDS);
    for r in 0..ROUNDS {
        let at = base + r * per_round;
        let (closed, elapsed) = load::closed_loop(pool, round, per_round, send(at));
        rps.push(closed.iter().filter(|s| s.ok).count() as f64 / elapsed.as_secs_f64());
        samples.extend(rebase(closed, at));
    }
    (samples, rps)
}

/// Open-loop p50 and p99 per route, reported beside the metrics.
fn route_notes(reqs: &[ReadReq], samples: &[Sample], out: &mut Outcome) {
    for route in Route::ALL {
        let ms: Vec<f64> = samples
            .iter()
            .filter(|s| reqs[s.index].route == route)
            .map(latency_ms)
            .collect();
        if !ms.is_empty() {
            out.notes.push((
                format!("{}_share", route.name()),
                ms.len() as f64 / samples.len() as f64,
            ));
            out.notes
                .push((format!("{}_p50_ms", route.name()), quantile(&ms, 0.5)));
            out.notes
                .push((format!("{}_p99_ms", route.name()), quantile(&ms, 0.99)));
        }
    }
}

/// The median over rounds of each round's `q`-quantile. `values` are in
/// time order and split into an odd number of consecutive rounds, at
/// most `ROUNDS`, each of at least `MIN_ROUND_SAMPLES` (so a round's p90
/// has ten samples beyond it); a disturbed stretch of a shared machine
/// then moves a minority of rounds, not the figure. Fewer samples than
/// that form one round.
pub fn round_quantile(values: &[f64], q: f64) -> f64 {
    let mut rounds = (values.len() / MIN_ROUND_SAMPLES).clamp(1, ROUNDS);
    if rounds.is_multiple_of(2) {
        rounds -= 1;
    }
    let per: Vec<f64> = (0..rounds)
        .map(|r| {
            let (from, to) = (r * values.len() / rounds, (r + 1) * values.len() / rounds);
            quantile(&values[from..to], q)
        })
        .collect();
    load::median(&per)
}

/// The read figures every workload reports: the open loop's p50 and p90
/// (medians over rounds) and the closed loop's median capacity.
fn read_metrics(open: &[Sample], rps: &[f64], out: &mut Outcome) -> Vec<Metric> {
    let ms = latencies(open);
    out.notes.extend([
        ("open_requests".to_string(), open.len() as f64),
        ("read_p90_pooled_ms".to_string(), quantile(&ms, 0.9)),
        ("generator_late_p99_ms".to_string(), lateness_ms(open)),
    ]);
    for (i, r) in rps.iter().enumerate() {
        out.notes.push((format!("round_{i}_rps"), *r));
    }
    vec![
        Metric::new("read_p50_ms", round_quantile(&ms, 0.5), "ms"),
        Metric::new("read_p90_ms", round_quantile(&ms, 0.9), "ms"),
        Metric::new("read_rps_max", load::median(rps), "1/s"),
    ]
}

/// A fed node's sources and the mutations the benchmark applies to them.
struct Feeds {
    sources: FeedSources,
    schedule: Vec<Mutation>,
    history: History,
}

impl Feeds {
    fn spawn(
        corpus: &Corpus,
        seed: u64,
        window: Duration,
        pace: FeedPace,
    ) -> Result<Feeds, String> {
        let schedule = gen::mutation_schedule(window, pace, seed);
        let ll_steps = schedule.iter().filter(|m| m.locuslink).count() as u64;
        Ok(Feeds {
            sources: FeedSources::spawn(corpus, seed)?,
            history: History::compute(corpus, seed, ll_steps),
            schedule,
        })
    }

    fn ll_steps(&self) -> u64 {
        self.history.symbol_of_step.len() as u64
    }
}

/// What the mutator saw.
#[derive(Default)]
struct FeedRun {
    /// Per absorbed mutation: how long from its append until the node's
    /// feed position covered it, ms.
    fresh: Vec<f64>,
    /// At each scrape, the sources' journal heads minus the applied
    /// positions `/metrics` reports, summed over feeds.
    lag_samples: Vec<f64>,
    /// At each scrape, the node's own `annoda_feed_lag_records` gauge,
    /// summed over feeds.
    gauge_lag_samples: Vec<f64>,
    unabsorbed: u64,
    /// Mutations the sources refused.
    refused: Vec<String>,
    /// Scrapes that failed; they fail the run but are not operations.
    scrape_errors: Vec<String>,
    steps: [u64; 2],
}

/// Applies the mutation schedule on time, records when the node's feed
/// position covers each mutation, and samples `/metrics` for feed lag.
fn mutator(
    sources: &FeedSources,
    schedule: &[Mutation],
    gauges: [Arc<FeedGauges>; 2],
    addr: SocketAddr,
    start: Instant,
) -> FeedRun {
    let mut run = FeedRun::default();
    let mut pending: [VecDeque<(u64, Instant)>; 2] = Default::default();
    let mut next_scrape = start;
    let mut poll = |run: &mut FeedRun, pending: &mut [VecDeque<(u64, Instant)>; 2]| {
        let now = Instant::now();
        for (feed, queue) in pending.iter_mut().enumerate() {
            let applied = gauges[feed].applied_seq.load(Ordering::Acquire);
            while queue.front().is_some_and(|(seq, _)| *seq <= applied) {
                let (_, at) = queue.pop_front().expect("front exists");
                run.fresh.push((now - at).as_secs_f64() * 1e3);
            }
        }
        if now >= next_scrape {
            next_scrape = now + SCRAPE_EVERY;
            let heads = [true, false].map(|ll| sources.source(ll).head());
            match node::scrape(addr) {
                Ok(m) => {
                    let behind: u64 = heads
                        .iter()
                        .zip([LOCUSLINK, OMIM])
                        .map(|(head, source)| {
                            let key = format!("annoda_feed_applied_seq{{source=\"{source}\"}}");
                            head.saturating_sub(m.get(&key).copied().unwrap_or(0.0) as u64)
                        })
                        .sum();
                    run.lag_samples.push(behind as f64);
                    run.gauge_lag_samples
                        .push(node::series_sum(&m, "annoda_feed_lag_records"));
                }
                Err(e) => run.scrape_errors.push(e),
            }
        }
    };
    for m in schedule {
        let due = start + m.at;
        loop {
            poll(&mut run, &mut pending);
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::sleep((due - now).min(Duration::from_millis(1)));
        }
        let feed = usize::from(!m.locuslink);
        match sources.source(m.locuslink).mutate(m.step) {
            Ok(seq) => pending[feed].push_back((seq, Instant::now())),
            Err(e) => run.refused.push(e),
        }
        run.steps[feed] += 1;
    }
    let drain_start = Instant::now();
    while pending.iter().any(|q| !q.is_empty()) && drain_start.elapsed() < DRAIN_LIMIT {
        poll(&mut run, &mut pending);
        std::thread::sleep(Duration::from_millis(1));
    }
    run.unabsorbed = pending.iter().map(|q| q.len() as u64).sum();
    run
}

/// What one feed phase measured.
struct FeedPhase {
    run: FeedRun,
    scraped: Scraped,
    /// Mean records per absorbed batch, LocusLink then OMIM.
    per_batch: [f64; 2],
    disk_bytes: u64,
    wall: Duration,
}

/// Applies the feed schedule, starting now, while `reads` runs on this
/// thread, and measures what the node's feeds did.
fn feed_phase<R>(
    node: &Node,
    feeds: &Feeds,
    reads: impl FnOnce() -> R,
) -> Result<(FeedPhase, R), String> {
    let addr = node.addr();
    let gauges = [
        node.gauges(LOCUSLINK).expect("LocusLink feed"),
        node.gauges(OMIM).expect("OMIM feed"),
    ];
    let data_dir = node.data_dir.as_ref().expect("a fed node has a data dir");
    let before = node::scrape(addr)?;
    let disk_before = node::dir_bytes(data_dir);
    let start = Instant::now();
    let (run, r) = std::thread::scope(|scope| {
        let mutator = scope.spawn(|| mutator(&feeds.sources, &feeds.schedule, gauges, addr, start));
        let r = reads();
        (mutator.join().expect("mutator thread"), r)
    });
    let wall = start.elapsed();
    let after = node::scrape(addr)?;
    let per_batch = [LOCUSLINK, OMIM].map(|source| {
        let d = |name: &str| {
            let key = format!("{name}{{source=\"{source}\"}}");
            after.get(&key).copied().unwrap_or(0.0) - before.get(&key).copied().unwrap_or(0.0)
        };
        d("annoda_feed_records_total") / d("annoda_feed_batches_total").max(1.0)
    });
    let phase = FeedPhase {
        run,
        scraped: Scraped::between(&before, &after),
        per_batch,
        disk_bytes: node::dir_bytes(data_dir).saturating_sub(disk_before),
        wall,
    };
    Ok((phase, r))
}

impl FeedPhase {
    /// `fresh_p50_ms`, `fresh_p90_ms` and `disk_bytes_per_record`.
    fn metrics(&self) -> Vec<Metric> {
        let fresh = &self.run.fresh;
        vec![
            Metric::new("fresh_p50_ms", round_quantile(fresh, 0.5), "ms"),
            Metric::new("fresh_p90_ms", round_quantile(fresh, 0.9), "ms"),
            Metric::new(
                "disk_bytes_per_record",
                self.disk_bytes as f64 / self.scraped.records.max(1.0),
                "B",
            ),
        ]
    }

    fn notes(&self, out: &mut Outcome) {
        let gauge_lag_p99 = quantile(&self.run.gauge_lag_samples, 0.99);
        out.notes.extend([
            (
                "mutations".to_string(),
                self.run.steps.iter().sum::<u64>() as f64,
            ),
            ("fresh_samples".to_string(), self.run.fresh.len() as f64),
            ("records_absorbed".to_string(), self.scraped.records),
            ("feed_wall_s".to_string(), self.wall.as_secs_f64()),
            ("lag_gauge_records_p99".to_string(), gauge_lag_p99),
            ("locuslink_records_per_batch".to_string(), self.per_batch[0]),
            ("omim_records_per_batch".to_string(), self.per_batch[1]),
        ]);
        if gauge_lag_p99 == 0.0 && quantile(&self.run.lag_samples, 0.99) > 0.0 {
            eprintln!(
                "warning: the node's annoda_feed_lag_records gauge read 0 at every \
                 scrape while its applied position trailed the source journal"
            );
        }
    }

    /// Counts the phase's mutations as operations and checks the end
    /// state: every mutation absorbed, a sample of mutated genes reads
    /// back its final description, and the store and search answers equal
    /// a replay-and-refetch control's.
    fn check(
        &self,
        node: &Node,
        corpus: &Corpus,
        seed: u64,
        vocab: &Vocab,
        feeds: &Feeds,
        out: &mut Outcome,
    ) -> Result<(), String> {
        let run = &self.run;
        out.attempted += run.steps.iter().sum::<u64>();
        out.failed += run.refused.len() as u64 + run.unabsorbed;
        out.errors.extend(run.refused.iter().cloned());
        out.errors.extend(run.scrape_errors.iter().cloned());
        if run.unabsorbed > 0 {
            out.errors.push(format!(
                "{} mutations not absorbed within {DRAIN_LIMIT:?}",
                run.unabsorbed
            ));
        }

        let ll_steps = feeds.ll_steps();
        let mut symbols: Vec<&String> = feeds.history.descriptions.keys().collect();
        symbols.sort();
        let mut rng = gen::Rng::new(seed ^ 0x715);
        for _ in 0..FINAL_READS.min(symbols.len()) {
            let symbol = symbols[rng.below(symbols.len())];
            out.attempted += 1;
            let want = feeds.history.last(symbol, ll_steps).unwrap_or("");
            match client::get(node.addr(), &format!("/object/gene/{symbol}")) {
                Ok(r) if r.status == 200 => {
                    let body = String::from_utf8_lossy(&r.body).to_string();
                    let served = feed::served_description(&body).unwrap_or("").to_string();
                    if served != want {
                        out.fail(format!(
                            "{symbol}: final read shows `{served}`, expected `{want}`"
                        ));
                    }
                }
                other => out.fail(format!("{symbol}: final read failed: {other:?}")),
            }
        }

        let control = feed::control(corpus, seed, &feeds.schedule)?;
        let app = node.server.app();
        let sys = app.system();
        let served = sys.query_snapshot().map_err(|e| e.to_string())?;
        let expected = control.query_snapshot().map_err(|e| e.to_string())?;
        out.attempted += 1;
        if annoda_persist::encode_store(&served.store)
            != annoda_persist::encode_store(&expected.store)
        {
            out.fail("absorbed store differs from the replay-and-refetch control");
        }
        for phrase in [
            "penetrance",
            "revised clinical synopsis",
            vocab.search_words[0].as_str(),
        ] {
            out.attempted += 1;
            let render = |snap: &annoda::GmlSnapshot| {
                DurableSystem::search_on(snap, phrase, 10, annoda::FusionStrategy::Weighted)
                    .iter()
                    .map(|a| format!("{} {:.9} {:?}", a.locus, a.fused_score, a.snippets))
                    .collect::<Vec<_>>()
            };
            if render(&served) != render(&expected) {
                out.fail(format!("search `{phrase}` differs from the control"));
            }
        }
        Ok(())
    }
}

/// The per-layer `stream.*` figures, scraped around the feed phase. The
/// zero rule covers them too: with records absorbed, none may read zero.
fn stream_metrics(phase: Option<&FeedPhase>, out: &mut Outcome) -> Vec<Metric> {
    let Some(p) = phase else {
        return [
            "stream.records_per_batch",
            "stream.lag_records_p99",
            "stream.absorb_busy_ratio",
        ]
        .into_iter()
        .zip(["count", "count", "ratio"])
        .map(|(name, unit)| Metric::new(name, 0.0, unit))
        .collect();
    };
    let s = &p.scraped;
    let metrics = vec![
        Metric::new(
            "stream.records_per_batch",
            s.records / s.batches.max(1.0),
            "count",
        ),
        Metric::new(
            "stream.lag_records_p99",
            quantile(&p.run.lag_samples, 0.99),
            "count",
        ),
        Metric::new(
            "stream.absorb_busy_ratio",
            s.absorb_us / (p.wall.as_secs_f64() * 1e6),
            "ratio",
        ),
    ];
    for m in &metrics {
        if s.records > 0.0 && (m.value.is_nan() || m.value <= 0.0) {
            out.fail(format!(
                "`{}` reads zero although {} records were absorbed",
                m.name, s.records
            ));
        }
    }
    metrics
}

/// The traced replay's per-layer metrics, followed by the scraped ones.
#[allow(clippy::too_many_arguments)]
fn traced(
    args: &Args,
    dirs: &Dirs,
    corpus: &Corpus,
    vocab: &Vocab,
    reqs: &[ReadReq],
    p50: f64,
    reads: &Scraped,
    phase: Option<(&FeedPhase, &Feeds)>,
    out: &mut Outcome,
) -> Result<Vec<Metric>, String> {
    let plan = match phase {
        Some((p, f)) => FeedPlan::observed(args.seed, &f.schedule, p.per_batch),
        None => FeedPlan::probe(args.seed),
    };
    let mut metrics = replay::run(
        corpus,
        &reqs[WARMUP..],
        &replay::probes(args.seed, vocab, args.workload),
        Duration::from_secs(args.seconds).mul_f64(0.5),
        &plan,
        dirs,
        p50,
        &spans_path(dirs, args),
        out,
    )?;
    metrics.extend(reads.serve_metrics());
    metrics.extend(stream_metrics(phase.map(|(p, _)| p), out));
    Ok(metrics)
}

/// `browse_miss` and `search_lorel`: the open loop at the workload's
/// rate, then the closed loop for capacity. All open rounds run first,
/// on the same two connections, so the cache state they see depends
/// neither on how many requests the host completed in a closed loop
/// nor on which server reactor a fresh connection lands on.
/// `browse_miss` then applies its feed schedule with no reads running.
fn run_reads(args: &Args, dirs: &Dirs) -> Result<Outcome, String> {
    let w = args.workload;
    let corpus = gen::corpus(w.loci(), args.seed);
    let vocab = Vocab::of(&corpus);
    let window = Duration::from_secs(args.seconds);
    let read_window = match w.feed_pace() {
        Some(_) => window.mul_f64(1.0 - BROWSE_FEED_SHARE),
        None => window,
    };
    let open_round = read_window.mul_f64(OPEN_SHARE).div_f64(ROUNDS as f64);
    let closed_round = read_window.mul_f64(1.0 - OPEN_SHARE).div_f64(ROUNDS as f64);
    let n_open = (w.open_rate() * open_round.as_secs_f64()).ceil() as usize;
    let n_closed = (w.closed_cap_rps() * closed_round.as_secs_f64()).ceil() as usize;
    let total = WARMUP + ROUNDS * (n_open + n_closed);
    let reqs = match w {
        Workload::BrowseMiss => gen::browse_requests(args.seed, &vocab, total),
        _ => gen::search_lorel_requests(args.seed, &vocab, total),
    };
    let wire: Vec<Vec<u8>> = reqs.iter().map(ReadReq::wire).collect();
    let mut out = Outcome::default();

    let mut feeds = w
        .feed_pace()
        .map(|pace| Feeds::spawn(&corpus, args.seed, window - read_window, pace))
        .transpose()?;
    let (node, first_setup) = setup(
        &corpus,
        &vocab,
        dirs,
        feeds.as_ref().map(|f| &f.sources),
        0,
        &mut out,
    )?;
    let addr = node.addr();
    let kept: Mutex<Vec<(usize, Vec<u8>)>> = Mutex::new(Vec::new());
    let send = |base: usize| {
        let (wire, kept) = (&wire, &kept);
        move |c: &mut Conn, i: usize| {
            let i = base + i;
            match c.send(&wire[i]) {
                Ok(r) if r.status == 200 => {
                    if sampled(args.seed, i) {
                        kept.lock().expect("kept lock").push((i, r.body));
                    }
                    true
                }
                _ => false,
            }
        }
    };

    let mut pool = conns(addr, CONNECTIONS);
    let warm = warm_up(&mut pool, send(0));
    let before = node::scrape(addr)?;
    let mut open = Vec::new();
    let mut last = before.clone();
    for r in 0..ROUNDS {
        let base = WARMUP + r * n_open;
        let round = load::open_loop(&mut pool, w.open_rate(), open_round, n_open, send(base));
        open.extend(rebase(round, base));
        let now = node::scrape(addr)?;
        out.notes.push((
            format!("open_round_{r}_cache_hit_ratio"),
            Scraped::between(&last, &now).cache_hit_ratio,
        ));
        last = now;
    }
    let (mut closed, rps) = closed_rounds(
        &mut pool,
        closed_round,
        n_closed,
        WARMUP + ROUNDS * n_open,
        send,
    );
    drop(pool);
    let after = node::scrape(addr)?;
    let reads = Scraped::between(&before, &after);
    out.notes.push((
        "closed_cache_hit_ratio".to_string(),
        Scraped::between(&last, &after).cache_hit_ratio,
    ));

    let replies = kept.into_inner().expect("kept lock");
    let (checked, why) = {
        let app = node.server.app();
        let sys = app.system();
        let mut all: Vec<&mut Sample> = open.iter_mut().chain(closed.iter_mut()).collect();
        check_samples(&sys, &reqs, replies, &mut all)?
    };
    out.notes
        .push(("oracle_checked".to_string(), checked as f64));
    for samples in [&warm, &open, &closed] {
        tally(samples, &why, &mut out);
    }
    if w == Workload::BrowseMiss && reads.cache_hit_ratio != 0.0 {
        out.errors.push(format!(
            "browse_miss must miss the response cache, hit ratio {}",
            reads.cache_hit_ratio
        ));
    }
    let mut metrics = read_metrics(&open, &rps, &mut out);
    route_notes(&reqs, &open, &mut out);

    let phase = match &feeds {
        Some(f) => Some(feed_phase(&node, f, || ())?.0),
        None => None,
    };
    let rss_peak = rss_peak_mb();
    if let (Some(p), Some(f)) = (&phase, &feeds) {
        p.notes(&mut out);
        p.check(&node, &corpus, args.seed, &vocab, f, &mut out)?;
        metrics.extend(p.metrics());
    }
    node.shutdown();
    if let Some(f) = &mut feeds {
        f.sources.shutdown();
    }
    let mut setups = vec![first_setup];
    setups.extend(more_setups(
        &corpus,
        &vocab,
        dirs,
        feeds.as_ref().map(|_| args.seed),
        &mut out,
    )?);
    for (i, s) in setups.iter().enumerate() {
        out.notes.push((format!("setup_{i}_s"), *s));
    }
    metrics.insert(0, Metric::new("setup_s", load::median(&setups), "s"));
    metrics.push(Metric::new("rss_peak_mb", rss_peak, "MB"));
    out.metrics = metrics;

    if args.trace {
        let p50 = round_quantile(&latencies(&open), 0.5);
        let pair = phase.as_ref().zip(feeds.as_ref());
        out.metrics = traced(
            args, dirs, &corpus, &vocab, &reqs, p50, &reads, pair, &mut out,
        )?;
    }
    out.correct = out.errors.is_empty();
    Ok(out)
}

/// `feed_absorb`: a durable sharded node tails two feeds the benchmark
/// writes while one connection reads an open-loop mix; once the feeds
/// are drained, closed-loop rounds on the same connection measure the
/// node's read capacity.
fn run_feed(args: &Args, dirs: &Dirs) -> Result<Outcome, String> {
    let w = args.workload;
    let corpus = gen::corpus(w.loci(), args.seed);
    let vocab = Vocab::of(&corpus);
    let window = Duration::from_secs(args.seconds);
    let pace = w.feed_pace().expect("feed_absorb has a feed");
    let open_window = window.mul_f64(OPEN_SHARE);
    let mut feeds = Feeds::spawn(&corpus, args.seed, open_window, pace)?;
    let closed_round = window.mul_f64(1.0 - OPEN_SHARE).div_f64(ROUNDS as f64);
    let n_open = (w.open_rate() * open_window.as_secs_f64()).ceil() as usize;
    let n_closed = (w.closed_cap_rps() * closed_round.as_secs_f64()).ceil() as usize;
    // The genes LocusLink mutated in the second up to `at`.
    let recent = |at: Duration| -> Vec<String> {
        let since = at.saturating_sub(Duration::from_secs(1));
        feeds
            .schedule
            .iter()
            .filter(|m| m.locuslink && m.at >= since && m.at <= at)
            .map(|m| feeds.history.symbol_of_step[m.step as usize].clone())
            .collect()
    };
    // When read `i` is expected, from the start of the window.
    let due = |i: usize| -> Duration {
        if i < WARMUP {
            Duration::ZERO
        } else if i < WARMUP + n_open {
            Duration::from_secs_f64((i - WARMUP) as f64 / w.open_rate())
        } else {
            open_window + closed_round * ((i - WARMUP - n_open) / n_closed) as u32
        }
    };
    let reqs = gen::feed_requests(
        args.seed,
        &vocab,
        WARMUP + n_open + ROUNDS * n_closed,
        due,
        recent,
    );
    let wire: Vec<Vec<u8>> = reqs.iter().map(ReadReq::wire).collect();
    let mut out = Outcome::default();

    let (node, first_setup) = setup(&corpus, &vocab, dirs, Some(&feeds.sources), 0, &mut out)?;
    let addr = node.addr();
    let ll = node.gauges(LOCUSLINK).expect("LocusLink feed");
    let stale: Mutex<BTreeMap<usize, String>> = Mutex::new(BTreeMap::new());
    let send = |base: usize| {
        let (wire, reqs, stale, history, ll) = (&wire, &reqs, &stale, &feeds.history, &ll);
        move |c: &mut Conn, i: usize| {
            let i = base + i;
            let acked = ll.applied_seq.load(Ordering::Acquire);
            let Ok(reply) = c.send(&wire[i]) else {
                return false;
            };
            if reply.status != 200 {
                return false;
            }
            if let Some(symbol) = reqs[i].target.strip_prefix("/object/gene/") {
                let body = String::from_utf8_lossy(&reply.body);
                let served = feed::served_description(&body).unwrap_or("");
                if !history.acceptable(symbol, served, acked) {
                    stale.lock().expect("stale lock").insert(i, format!(
                        "/object/gene/{symbol} served `{served}` after LocusLink step {acked} was acknowledged"
                    ));
                    return false;
                }
            }
            true
        }
    };

    let mut reader = [Conn::new(addr)];
    let warm = warm_up(&mut reader, send(0));
    let (phase, open) = feed_phase(&node, &feeds, || {
        let open = load::open_loop(
            &mut reader,
            w.open_rate(),
            open_window,
            n_open,
            send(WARMUP),
        );
        rebase(open, WARMUP)
    })?;
    let (closed, rps) = closed_rounds(&mut reader, closed_round, n_closed, WARMUP + n_open, send);
    let rss_peak = rss_peak_mb();

    let stale = stale.into_inner().expect("stale lock");
    for samples in [&warm, &open, &closed] {
        tally(samples, &stale, &mut out);
    }
    phase.check(&node, &corpus, args.seed, &vocab, &feeds, &mut out)?;
    let mut metrics = read_metrics(&open, &rps, &mut out);
    metrics.extend(phase.metrics());
    phase.notes(&mut out);
    route_notes(&reqs, &open, &mut out);
    node.shutdown();
    feeds.sources.shutdown();
    let mut setups = vec![first_setup];
    setups.extend(more_setups(
        &corpus,
        &vocab,
        dirs,
        Some(args.seed),
        &mut out,
    )?);
    for (i, s) in setups.iter().enumerate() {
        out.notes.push((format!("setup_{i}_s"), *s));
    }
    metrics.insert(0, Metric::new("setup_s", load::median(&setups), "s"));
    metrics.push(Metric::new("rss_peak_mb", rss_peak, "MB"));
    out.metrics = metrics;

    if args.trace {
        let p50 = round_quantile(&latencies(&open), 0.5);
        // The reads ran inside the feed phase, so its scrape covers them.
        out.metrics = traced(
            args,
            dirs,
            &corpus,
            &vocab,
            &reqs,
            p50,
            &phase.scraped,
            Some((&phase, &feeds)),
            &mut out,
        )?;
    }
    out.correct = out.errors.is_empty();
    Ok(out)
}

/// Where the traced replay writes its spans.
fn spans_path(dirs: &Dirs, args: &Args) -> PathBuf {
    dirs.results
        .join(args.workload.name())
        .join(format!("seed{}-{}s-spans.jsonl", args.seed, args.seconds))
}
