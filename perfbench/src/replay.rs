//! The traced replay: a single-threaded, socketless replay of a run's
//! generated inputs through each crate's public functions, recording a
//! span around every call into a layer.
//!
//! Two identical replicas are built from the same sources. Replica A
//! answers each request through the layer calls of the oracle
//! (`annoda.parse`, `mediator.ask`, `annoda.navigate`, `annoda.pin`,
//! `search.query`, `lorel.eval.*`, `annoda.render`); replica B answers
//! it through `routes::handle` and `http::encode_response`. Each sees
//! the same request sequence, so neither warms the other's caches, and
//! their bodies must agree. Feed batches replay through `absorb_apply`,
//! `absorb_commit` and the snapshot republish on a durable sharded
//! replica.
//!
//! Every traced run reports every layer: requests of routes and Lorel
//! classes a workload does not send are covered by a few probe
//! requests, and a workload without a feed replays a short probe feed
//! on a 1k-loci corpus of the same seed.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use annoda::{Annoda, DurableSystem, SearchIndex};
use annoda_federation::ChangeRecord;
use annoda_serve::http::{encode_response, Request};
use annoda_serve::{App, CacheGauges, Metrics, QueueGauge, ShedGauges};
use annoda_sources::Corpus;
use annoda_wrap::{scripted_mutation, GoWrapper, LocusLinkWrapper, OmimWrapper, Wrapper};

use crate::feed::{self, feed_seed};
use crate::gen::{self, LorelClass, Mutation, ReadReq, Rng, Route, Vocab, Workload};
use crate::load::median;
use crate::node::{self, Sources, Store, STORE_SHARDS};
use crate::oracle;
use crate::report::{Metric, Outcome};
use crate::run::Dirs;
use crate::trace::Tracer;

/// The feed batches to replay: `(LocusLink?, scripted steps)`.
pub struct FeedPlan {
    pub seed: u64,
    pub batches: Vec<(bool, Vec<u64>)>,
}

/// Loci of the probe feed's corpus for workloads without a feed.
const PROBE_FEED_LOCI: usize = 1_000;
/// Batches replayed per source, at most.
const MAX_BATCHES: [usize; 2] = [12, 3];
/// Probe requests per route or Lorel class a workload does not send.
const PROBES_PER_KIND: usize = 4;

impl FeedPlan {
    /// A short probe feed: three LocusLink batches, one OMIM batch.
    pub fn probe(seed: u64) -> FeedPlan {
        FeedPlan {
            seed,
            batches: vec![
                (true, (0..10).collect()),
                (true, (10..20).collect()),
                (true, (20..30).collect()),
                (false, (0..2).collect()),
            ],
        }
    }

    /// The run's own schedule, cut into batches of the mean size each
    /// feed absorbed in the timed run.
    pub fn observed(seed: u64, schedule: &[Mutation], per_batch: [f64; 2]) -> FeedPlan {
        let mut batches = Vec::new();
        for (feed, locuslink) in [(0, true), (1, false)] {
            let size = per_batch[feed].round().max(1.0) as usize;
            let steps: Vec<u64> = schedule
                .iter()
                .filter(|m| m.locuslink == locuslink)
                .map(|m| m.step)
                .collect();
            batches.extend(
                steps
                    .chunks(size)
                    .take(MAX_BATCHES[feed])
                    .map(|c| (locuslink, c.to_vec())),
            );
        }
        FeedPlan { seed, batches }
    }
}

/// Requests of the routes and Lorel classes `w` does not send.
pub fn probes(seed: u64, vocab: &Vocab, w: Workload) -> Vec<ReadReq> {
    let mut rng = Rng::new(seed ^ 0x9b);
    let mut out = Vec::new();
    for _ in 0..PROBES_PER_KIND {
        match w {
            Workload::SearchLorel => {
                out.push(gen::any_genes_request(&mut rng, vocab));
                out.push(gen::any_object_request(&mut rng, vocab));
            }
            Workload::BrowseMiss | Workload::FeedAbsorb => {
                if w == Workload::BrowseMiss {
                    out.push(gen::search_request(&mut rng, vocab));
                }
                for class in LorelClass::ALL {
                    out.push(gen::lorel_request(&mut rng, vocab, class));
                }
            }
        }
    }
    out
}

/// Wraps, plugs and opens replica A with a span around each step.
fn traced_setup(corpus: &Corpus, tr: &mut Tracer) -> Result<DurableSystem, String> {
    let sources = Sources::of(corpus);
    let ll = tr.span("wrap.export.LocusLink", |_| {
        Box::new(LocusLinkWrapper::new(sources.locuslink)) as Box<dyn Wrapper>
    });
    let go = tr.span("wrap.export.GO", |_| {
        Box::new(GoWrapper::new(sources.go)) as Box<dyn Wrapper>
    });
    let omim = tr.span("wrap.export.OMIM", |_| {
        Box::new(OmimWrapper::new(sources.omim)) as Box<dyn Wrapper>
    });
    let mut annoda = Annoda::new();
    for wrapper in [ll, go, omim] {
        let name = format!("matcher.plug.{}", wrapper.name());
        tr.span(&name, |_| annoda.plug(wrapper));
    }
    annoda.registry_mut().mediator_mut().enable_cache();
    let sys = DurableSystem::new(annoda);
    tr.span("mediator.materialize", |_| {
        sys.annoda().mediator().materialize_gml()
    })
    .map_err(|e| e.to_string())?;
    tr.span("search.build", |_| {
        SearchIndex::build(&sys.annoda().mediator().harvest_text_docs())
    });
    tr.span("annoda.cold_snapshot", |_| sys.query_snapshot())
        .map_err(|e| e.to_string())?;
    Ok(sys)
}

/// An `App` over `sys` with no socket behind it.
fn app_over(sys: DurableSystem) -> App {
    App {
        generation: sys.generation_handle(),
        epochs: sys.shard_epochs_handle(),
        system: Arc::new(RwLock::new(sys)),
        metrics: Arc::new(Metrics::default()),
        gauge: Arc::new(QueueGauge::default()),
        http_cache: Arc::new(CacheGauges::default()),
        shed: Arc::new(ShedGauges::default()),
        started: Instant::now(),
        search_queries: AtomicU64::default(),
        search_zero_hits: AtomicU64::default(),
        feeds: RwLock::new(Vec::new()),
    }
}

fn request_of(req: &ReadReq) -> Request {
    let (path, query) = req.target.split_once('?').unwrap_or((&req.target, ""));
    Request {
        method: if req.route == Route::Lorel {
            "POST"
        } else {
            "GET"
        }
        .to_string(),
        path: path.to_string(),
        query: query.to_string(),
        headers: vec![(
            "accept".to_string(),
            if req.json {
                "application/json"
            } else {
                "text/plain"
            }
            .to_string(),
        )],
        body: req.body.clone().into_bytes(),
    }
}

/// Replays the feed batches on a fresh durable sharded replica.
fn feed_replay(
    corpus: &Corpus,
    plan: &FeedPlan,
    dir: &Path,
    tr: &mut Tracer,
) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut sys = node::system(Sources::of(corpus), &Store::ShardedDir(dir))?;
    sys.query_snapshot().map_err(|e| e.to_string())?;
    let mut sources: [Box<dyn Wrapper>; 2] = [
        Box::new(LocusLinkWrapper::new(corpus.locuslink.clone())),
        Box::new(OmimWrapper::new(corpus.omim.clone())),
    ];
    let shard_bytes = || -> Vec<u64> {
        (0..STORE_SHARDS)
            .map(|i| node::dir_bytes(&dir.join(format!("shard-{i:03}"))))
            .collect()
    };
    for (locuslink, steps) in &plan.batches {
        let (name, source) = if *locuslink {
            (feed::LOCUSLINK, &mut sources[0])
        } else {
            (feed::OMIM, &mut sources[1])
        };
        let records: Vec<ChangeRecord> = steps
            .iter()
            .map(|&step| {
                scripted_mutation(&mut **source, feed_seed(plan.seed, *locuslink), step)
                    .map(|(key, flat)| ChangeRecord {
                        key,
                        flat: Some(flat),
                    })
                    .ok_or_else(|| format!("{name} is not scriptable"))
            })
            .collect::<Result<_, _>>()?;
        let before = shard_bytes();
        tr.begin_request();
        let outcome = tr.span("feed.batch", |tr| -> Result<_, String> {
            let objects = tr
                .span("annoda.absorb_apply", |_| {
                    sys.absorb_apply(name, &records, false)
                })
                .map_err(|e| e.to_string())?;
            let outcome = tr
                .span("annoda.absorb_commit", |_| sys.absorb_commit(name, objects))
                .map_err(|e| e.to_string())?;
            tr.span("annoda.republish", |_| sys.query_snapshot())
                .map_err(|e| e.to_string())?;
            Ok(outcome)
        })?;
        let grown = shard_bytes()
            .iter()
            .zip(&before)
            .map(|(a, b)| a.saturating_sub(*b))
            .max()
            .unwrap_or(0);
        tr.count("feed.batches", 1.0);
        tr.count("feed.records", records.len() as f64);
        tr.count("oem.changed_fragments", outcome.changed_fragments as f64);
        tr.count("oem.changed_shards", outcome.changed_shards as f64);
        tr.count("persist.max_shard_bytes", grown as f64);
    }
    drop(sys);
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

fn med(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

/// Replays `reqs` (for at most `budget`), then `probes`, then the feed
/// plan, and returns every per-layer metric. `timed_p50_ms` is the
/// untraced run's read p50, for the wire share and tracing overhead.
#[allow(clippy::too_many_arguments)]
pub fn run(
    corpus: &Corpus,
    reqs: &[ReadReq],
    probes: &[ReadReq],
    budget: Duration,
    plan: &FeedPlan,
    dirs: &Dirs,
    timed_p50_ms: f64,
    spans_to: &Path,
    out: &mut Outcome,
) -> Result<Vec<Metric>, String> {
    let mut tr = Tracer::new(true);
    tr.begin_request();
    let a = tr.span("setup", |tr| traced_setup(corpus, tr))?;
    // Replica B is built through the same steps as A, so both enter the
    // replay with the same mediator cache and snapshot build cost.
    let b = node::system(Sources::of(corpus), &Store::Memory)?;
    b.annoda()
        .mediator()
        .materialize_gml()
        .map_err(|e| e.to_string())?;
    b.query_snapshot().map_err(|e| e.to_string())?;
    let app = app_over(b);

    let started = Instant::now();
    let mut replayed = 0usize;
    // Per request: (route, layer-path total, routes::handle, encode) in
    // µs, and whether it was a probe.
    let mut timings: Vec<(Route, f64, f64, f64, bool)> = Vec::new();
    let us = |tr: &Tracer, at: usize| tr.spans()[at].duration().as_secs_f64() * 1e6;
    let queue = reqs.iter().map(|r| (r, false));
    for (req, probe) in queue.chain(probes.iter().map(|r| (r, true))) {
        if !probe {
            if replayed >= 10 && started.elapsed() >= budget {
                continue;
            }
            replayed += 1;
        }
        tr.begin_request();
        let route = req.route.name();
        let at = tr.spans().len();
        let expected = tr.span(&format!("route.{route}"), |tr| oracle::answer(&a, req, tr))?;
        let layers_us = us(&tr, at);
        let request = request_of(req);
        let at = tr.spans().len();
        let response = tr.span(&format!("serve.handle.{route}"), |_| {
            annoda_serve::handle(&app, &request)
        });
        let handled_us = us(&tr, at);
        let mut wire = Vec::with_capacity(response.body.len() + 256);
        let at = tr.spans().len();
        tr.span("serve.encode", |_| {
            encode_response(&mut wire, &response, true)
        });
        let encode_us = us(&tr, at);
        tr.count("serve.responses", 1.0);
        tr.count("serve.body_bytes", response.body.len() as f64);
        timings.push((req.route, layers_us, handled_us, encode_us, probe));
        out.attempted += 1;
        if response.status != 200
            || oracle::normalise(req.route, req.json, &response.body)
                != oracle::normalise(req.route, req.json, &expected)
        {
            out.fail(format!(
                "replay: routes::handle and the layer calls disagree on {} {}",
                req.target, req.body
            ));
        }
    }
    let workload = || timings.iter().filter(|t| !t.4);
    let handle_us: Vec<f64> = workload().map(|t| t.2).collect();
    let traced_sum_us: Vec<f64> = workload().map(|t| t.1 + t.3).collect();

    let feed_dir = dirs.work.join("replay-data");
    if corpus.config.loci == PROBE_FEED_LOCI {
        feed_replay(corpus, plan, &feed_dir, &mut tr)?;
    } else {
        let small = gen::corpus(PROBE_FEED_LOCI, plan.seed);
        feed_replay(&small, plan, &feed_dir, &mut tr)?;
    }

    let ms = |v: f64| v / 1e3;
    let self_med = |name: &str| med(&tr.self_us(name));
    let total_med = |name: &str| med(&tr.total_us(name));
    let once_ms = |name: &str| tr.total_us(name).first().copied().unwrap_or(0.0) / 1e3;
    let ratio = |num: &str, den: &str| {
        let d = tr.counter(den);
        if d > 0.0 {
            tr.counter(num) / d
        } else {
            0.0
        }
    };
    let (hits, misses) = a
        .annoda()
        .mediator()
        .cache_stats()
        .map_or((0, 0), |c| (c.hits, c.misses));
    let store_objects = a.query_snapshot().map_err(|e| e.to_string())?.store.len();

    let mut m = Vec::new();
    for r in Route::ALL {
        let name = format!("serve.handle.{}", r.name());
        m.push(Metric::new(
            format!("serve.handle_us.{}", r.name()),
            total_med(&name),
            "us",
        ));
    }
    m.push(Metric::new(
        "serve.encode_us",
        total_med("serve.encode"),
        "us",
    ));
    m.push(Metric::new(
        "serve.wire_us",
        timed_p50_ms * 1e3 - med(&handle_us),
        "us",
    ));
    m.push(Metric::new(
        "serve.body_kb",
        ratio("serve.body_bytes", "serve.responses") / 1024.0,
        "KB",
    ));
    m.push(Metric::new(
        "annoda.parse_us",
        self_med("annoda.parse"),
        "us",
    ));
    m.push(Metric::new(
        "annoda.navigate_us",
        self_med("annoda.navigate"),
        "us",
    ));
    m.push(Metric::new(
        "annoda.render_us",
        self_med("annoda.render"),
        "us",
    ));
    m.push(Metric::new("annoda.pin_us", self_med("annoda.pin"), "us"));
    m.push(Metric::new(
        "annoda.absorb_apply_ms",
        ms(self_med("annoda.absorb_apply")),
        "ms",
    ));
    m.push(Metric::new(
        "annoda.absorb_commit_ms",
        ms(self_med("annoda.absorb_commit")),
        "ms",
    ));
    m.push(Metric::new(
        "annoda.republish_ms",
        ms(self_med("annoda.republish")),
        "ms",
    ));
    m.push(Metric::new(
        "annoda.cold_snapshot_ms",
        once_ms("annoda.cold_snapshot"),
        "ms",
    ));
    m.push(Metric::new(
        "mediator.ask_ms",
        ms(self_med("mediator.ask")),
        "ms",
    ));
    m.push(Metric::new(
        "mediator.subqueries_per_ask",
        ratio("mediator.subqueries", "mediator.asks"),
        "count",
    ));
    m.push(Metric::new(
        "mediator.cache_hit_ratio",
        if hits + misses > 0 {
            hits as f64 / (hits + misses) as f64
        } else {
            0.0
        },
        "ratio",
    ));
    m.push(Metric::new(
        "mediator.records_per_gene",
        ratio("mediator.records", "mediator.genes"),
        "count",
    ));
    m.push(Metric::new(
        "mediator.materialize_ms",
        once_ms("mediator.materialize"),
        "ms",
    ));
    for source in [feed::LOCUSLINK, "GO", feed::OMIM] {
        m.push(Metric::new(
            format!("wrap.export_ms.{source}"),
            once_ms(&format!("wrap.export.{source}")),
            "ms",
        ));
        m.push(Metric::new(
            format!("matcher.plug_ms.{source}"),
            once_ms(&format!("matcher.plug.{source}")),
            "ms",
        ));
    }
    m.push(Metric::new(
        "oem.store_objects",
        store_objects as f64,
        "count",
    ));
    m.push(Metric::new(
        "oem.fragments_per_record",
        ratio("oem.changed_fragments", "feed.records"),
        "count",
    ));
    m.push(Metric::new(
        "oem.shards_per_batch",
        ratio("oem.changed_shards", "feed.batches"),
        "count",
    ));
    for class in LorelClass::ALL {
        let name = format!("lorel.eval.{}", class.name());
        m.push(Metric::new(
            format!("lorel.eval_us.{}", class.name()),
            self_med(&name),
            "us",
        ));
    }
    m.push(Metric::new(
        "lorel.bindings_per_row",
        ratio("lorel.bindings", "lorel.rows"),
        "count",
    ));
    m.push(Metric::new(
        "lorel.workers_used",
        ratio("lorel.workers", "lorel.queries"),
        "count",
    ));
    m.push(Metric::new(
        "search.query_us",
        self_med("search.query"),
        "us",
    ));
    m.push(Metric::new(
        "search.build_ms",
        once_ms("search.build"),
        "ms",
    ));
    m.push(Metric::new(
        "persist.wal_bytes_per_batch",
        ratio("persist.max_shard_bytes", "feed.batches"),
        "B",
    ));

    // No layer that did work may read zero: a gate must never pass on a
    // zero measurement.
    let mut worked: Vec<&str> = tr.spans().iter().map(|s| s.name.as_str()).collect();
    worked.sort_unstable();
    worked.dedup();
    for name in &worked {
        if med(&tr.total_us(name)) <= 0.0 {
            out.fail(format!("layer `{name}` did work but its time reads zero"));
        }
    }
    for (count, work) in [
        ("mediator.subqueries", "mediator.asks"),
        ("mediator.records", "mediator.asks"),
        ("lorel.bindings", "lorel.queries"),
        ("lorel.workers", "lorel.queries"),
        ("feed.records", "feed.batches"),
        ("oem.changed_fragments", "feed.batches"),
        ("oem.changed_shards", "feed.batches"),
        ("persist.max_shard_bytes", "feed.batches"),
        ("serve.body_bytes", "serve.responses"),
    ] {
        if tr.counter(work) > 0.0 && tr.counter(count) <= 0.0 {
            out.fail(format!("`{count}` reads zero although `{work}` did work"));
        }
    }

    // The summary: self time per layer along each route's blocking path
    // and each feed batch, and the tracing overhead.
    let mut summary = String::new();
    let _ = writeln!(
        summary,
        "traced replay: {replayed} requests, {} probes",
        probes.len()
    );
    for r in Route::ALL {
        let route_total = med(&tr.total_us(&format!("route.{}", r.name())));
        if route_total <= 0.0 {
            continue;
        }
        let handle = total_med(&format!("serve.handle.{}", r.name()));
        let _ = write!(summary, "  {:<7} handle {handle:>10.1}us =", r.name());
        let layers: Vec<&str> = match r {
            Route::Genes => vec!["annoda.parse", "mediator.ask", "annoda.render"],
            Route::Object => vec!["annoda.parse", "annoda.navigate", "annoda.render"],
            Route::Search => vec![
                "annoda.parse",
                "annoda.pin",
                "search.query",
                "annoda.render",
            ],
            Route::Lorel => vec!["annoda.pin", "lorel.eval.*", "annoda.render"],
        };
        for layer in layers {
            let v = route_layer_self_us(&tr, r, layer);
            let _ = write!(summary, " {layer} {v:.1}us +");
        }
        let serve_self: Vec<f64> = timings
            .iter()
            .filter(|t| t.0 == r)
            .map(|t| t.2 - t.1)
            .collect();
        let _ = writeln!(summary, " serve self {:.1}us", med(&serve_self));
    }
    let _ = writeln!(
        summary,
        "  feed batch: absorb_apply {:.2}ms + absorb_commit {:.2}ms + republish {:.2}ms",
        ms(self_med("annoda.absorb_apply")),
        ms(self_med("annoda.absorb_commit")),
        ms(self_med("annoda.republish"))
    );
    let overhead = timed_p50_ms * 1e3 - med(&traced_sum_us);
    let _ = writeln!(
        summary,
        "  timed p50 {:.1}us - traced layer sum {:.1}us = tracing overhead and wire {overhead:.1}us",
        timed_p50_ms * 1e3,
        med(&traced_sum_us)
    );
    eprint!("{summary}");
    out.notes
        .push(("replayed_requests".to_string(), replayed as f64));
    out.notes
        .push(("tracing_overhead_us".to_string(), overhead));

    if let Some(parent) = spans_to.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(spans_to, tr.to_jsonl()).map_err(|e| format!("write spans: {e}"))?;
    Ok(m)
}

/// Median self time of `layer` within spans of route `r` (`lorel.eval.*`
/// matches every Lorel class).
fn route_layer_self_us(tr: &Tracer, r: Route, layer: &str) -> f64 {
    let own = tr.self_times();
    let spans = tr.spans();
    let root = format!("route.{}", r.name());
    let values: Vec<f64> = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| match layer.strip_suffix('*') {
            Some(prefix) => s.name.starts_with(prefix),
            None => s.name == layer,
        })
        .filter(|(s, _)| s.parent.is_some_and(|p| spans[p].name == root))
        .map(|(_, d)| d.as_secs_f64() * 1e6)
        .collect();
    med(&values)
}
