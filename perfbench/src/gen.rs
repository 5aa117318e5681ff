//! Seeded input generation: the corpus each workload serves, the read
//! requests it sends, and the feed's mutation schedule. Everything here
//! is a pure function of the seed, so the same seed gives the same
//! inputs on every run and on every commit.

use std::collections::HashSet;
use std::time::Duration;

use annoda_sources::{Corpus, CorpusConfig};

/// SplitMix64: a tiny deterministic generator. The benchmark owns its
/// randomness so that no dependency upgrade can change its inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_ba5e_d00d_f00d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BrowseMiss,
    SearchLorel,
    FeedAbsorb,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "browse_miss" => Some(Workload::BrowseMiss),
            "search_lorel" => Some(Workload::SearchLorel),
            "feed_absorb" => Some(Workload::FeedAbsorb),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::BrowseMiss => "browse_miss",
            Workload::SearchLorel => "search_lorel",
            Workload::FeedAbsorb => "feed_absorb",
        }
    }

    /// Loci in the generated corpus.
    pub fn loci(self) -> usize {
        match self {
            Workload::SearchLorel => 10_000,
            Workload::BrowseMiss | Workload::FeedAbsorb => 1_000,
        }
    }

    /// The fixed open-loop read rate, requests per second.
    pub fn open_rate(self) -> f64 {
        match self {
            Workload::BrowseMiss => 16.0,
            Workload::SearchLorel => 40.0,
            Workload::FeedAbsorb => 10.0,
        }
    }

    /// A ceiling on the closed loop's rate, for sizing the request list.
    pub fn closed_cap_rps(self) -> f64 {
        match self {
            Workload::BrowseMiss => 150.0,
            Workload::SearchLorel => 1000.0,
            Workload::FeedAbsorb => 100.0,
        }
    }

    /// The feed pace of the workloads whose node tails the source feeds.
    /// `feed_absorb` writes a burst of 32 LocusLink edits a second: over
    /// a thousand edits a run, yet the tailer idles between bursts, since
    /// an absorb cycle costs about the same for one record as for many.
    /// `browse_miss` writes single LocusLink edits, each absorbed on its
    /// own, and few OMIM edits, so its freshness figures describe one
    /// kind of cycle.
    pub fn feed_pace(self) -> Option<FeedPace> {
        match self {
            Workload::BrowseMiss => Some(FeedPace {
                every: Duration::from_millis(250),
                burst: 1,
                omim_every: Duration::from_secs(4),
            }),
            Workload::SearchLorel => None,
            Workload::FeedAbsorb => Some(FeedPace {
                every: Duration::from_secs(1),
                burst: 32,
                omim_every: Duration::from_secs(1),
            }),
        }
    }
}

/// The corpus `annoda-serve --loci N --seed S` would generate.
pub fn corpus(loci: usize, seed: u64) -> Corpus {
    let base = CorpusConfig::default();
    Corpus::generate(CorpusConfig {
        seed,
        ..base.scaled(loci as f64 / base.loci as f64)
    })
}

/// Which route a request exercises (for per-route breakdowns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Route {
    Genes,
    Object,
    Search,
    Lorel,
}

impl Route {
    pub const ALL: [Route; 4] = [Route::Genes, Route::Object, Route::Search, Route::Lorel];

    pub fn name(self) -> &'static str {
        match self {
            Route::Genes => "genes",
            Route::Object => "object",
            Route::Search => "search",
            Route::Lorel => "lorel",
        }
    }
}

/// Lorel query classes in the `search_lorel` mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LorelClass {
    Point,
    Filter,
    Scan,
    Join,
}

impl LorelClass {
    pub const ALL: [LorelClass; 4] = [
        LorelClass::Point,
        LorelClass::Filter,
        LorelClass::Scan,
        LorelClass::Join,
    ];

    pub fn name(self) -> &'static str {
        match self {
            LorelClass::Point => "point",
            LorelClass::Filter => "filter",
            LorelClass::Scan => "scan",
            LorelClass::Join => "join",
        }
    }
}

/// One generated read request.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ReadReq {
    pub route: Route,
    /// `GET` target (path plus query) or the `POST /lorel` path.
    pub target: String,
    /// Query text for `POST /lorel`, empty otherwise.
    pub body: String,
    /// `Accept: application/json` when set, plain text otherwise.
    pub json: bool,
    pub lorel: Option<LorelClass>,
}

impl ReadReq {
    fn get(route: Route, target: String, json: bool) -> ReadReq {
        ReadReq {
            route,
            target,
            body: String::new(),
            json,
            lorel: None,
        }
    }

    /// The request's wire bytes.
    pub fn wire(&self) -> Vec<u8> {
        let accept = if self.json {
            "application/json"
        } else {
            "text/plain"
        };
        if self.route == Route::Lorel {
            format!(
                "POST {} HTTP/1.1\r\nHost: perfbench\r\nAccept: {accept}\r\n\
                 Content-Length: {}\r\n\r\n{}",
                self.target,
                self.body.len(),
                self.body
            )
            .into_bytes()
        } else {
            format!(
                "GET {} HTTP/1.1\r\nHost: perfbench\r\nAccept: {accept}\r\n\r\n",
                self.target
            )
            .into_bytes()
        }
    }
}

/// Percent-encodes a query value (unreserved characters pass).
pub fn encode(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for b in value.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'.' | b'_' | b'~' | b':' => {
                out.push(b as char)
            }
            b' ' => out.push('+'),
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// The corpus-derived vocabulary requests are drawn from, in a fixed
/// order so that generation is a function of the seed alone.
pub struct Vocab {
    pub organisms: Vec<String>,
    pub symbols: Vec<String>,
    pub symbol_prefixes: Vec<String>,
    pub function_words: Vec<String>,
    pub disease_words: Vec<String>,
    pub go_ids: Vec<String>,
    pub disease_ids: Vec<String>,
    /// Searchable words in their Zipf rank order.
    pub search_words: Vec<String>,
}

fn words(text: &str) -> impl Iterator<Item = String> + '_ {
    text.split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|w| w.len() >= 3 && w.chars().all(|c| c.is_ascii_alphabetic()))
        .map(str::to_ascii_lowercase)
}

impl Vocab {
    pub fn of(corpus: &Corpus) -> Vocab {
        let mut organisms: Vec<String> = corpus
            .locuslink
            .scan()
            .map(|r| r.organism.clone())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        organisms.sort();
        let mut symbols: Vec<String> = corpus.locuslink.scan().map(|r| r.symbol.clone()).collect();
        symbols.sort();
        symbols.dedup();
        let mut symbol_prefixes: Vec<String> = symbols
            .iter()
            .flat_map(|s| (1..=3).filter_map(move |n| s.get(..n).map(str::to_string)))
            .collect();
        symbol_prefixes.sort();
        symbol_prefixes.dedup();
        let mut function_words: Vec<String> =
            corpus.go.terms().flat_map(|t| words(&t.name)).collect();
        function_words.sort();
        function_words.dedup();
        let mut disease_words: Vec<String> = corpus
            .omim
            .diseases()
            .flat_map(|e| words(&e.title))
            .map(|w| w.to_ascii_uppercase())
            .collect();
        disease_words.sort();
        disease_words.dedup();
        // Only ids a gene links to: those are the web-links a user follows.
        let mut go_ids: Vec<String> = corpus
            .locuslink
            .scan()
            .flat_map(|r| r.go_ids.iter().cloned())
            .filter(|id| corpus.go.term(id).is_some())
            .collect();
        go_ids.sort();
        go_ids.dedup();
        let diseases: HashSet<u32> = corpus.omim.diseases().map(|e| e.mim_number).collect();
        let mut disease_ids: Vec<String> = corpus
            .locuslink
            .scan()
            .flat_map(|r| r.omim_ids.iter().copied())
            .filter(|id| diseases.contains(id))
            .map(|id| id.to_string())
            .collect();
        disease_ids.sort();
        disease_ids.dedup();
        // Query popularity follows a fixed order of the vocabulary (its
        // sort order), not the corpus's own word counts, so every seed
        // skews the same way.
        let mut search_words: Vec<String> = corpus
            .go
            .terms()
            .flat_map(|t| {
                words(&t.name)
                    .chain(words(&t.definition))
                    .collect::<Vec<_>>()
            })
            .chain(
                corpus
                    .omim
                    .scan()
                    .flat_map(|e| words(&e.title).chain(words(&e.text)).collect::<Vec<_>>()),
            )
            .collect();
        search_words.sort();
        search_words.dedup();
        Vocab {
            organisms,
            symbols,
            symbol_prefixes,
            function_words,
            disease_words,
            go_ids,
            disease_ids,
            search_words,
        }
    }
}

/// A Zipf(1) draw over ranks `0..n`: rank `r` with weight `1/(r+1)`.
fn zipf(rng: &mut Rng, n: usize) -> usize {
    let h: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
    let mut x = rng.unit() * h;
    for r in 0..n {
        x -= 1.0 / (r + 1) as f64;
        if x <= 0.0 {
            return r;
        }
    }
    n - 1
}

fn word(rng: &mut Rng, words: &[String], upper: bool) -> String {
    let w = rng.pick(words);
    if upper {
        w.to_ascii_uppercase()
    } else {
        w.clone()
    }
}

/// An aspect clause value: `mode` alone or with a `%word%` pattern.
fn aspect(rng: &mut Rng, mode: &str, words: &[String], upper: bool) -> String {
    if words.is_empty() || rng.chance(0.5) {
        mode.to_string()
    } else {
        format!("{mode}:%{}%", word(rng, words, upper))
    }
}

/// Question shapes of the Figure 5a form, from selective to broad. Each
/// block of requests holds every shape once, so every run and every
/// seed sends the same mix of answer sizes.
pub const GENES_SHAPES: usize = 10;

/// A Figure 5a question of the given shape (`0..GENES_SHAPES`).
pub fn genes_request(rng: &mut Rng, v: &Vocab, shape: usize) -> ReadReq {
    let organism = |rng: &mut Rng| ("organism", rng.pick(&v.organisms).clone());
    let symbol = |rng: &mut Rng| ("symbol", format!("{}%", rng.pick(&v.symbol_prefixes)));
    let function = |rng: &mut Rng, mode: &str| {
        let w = word(rng, &v.function_words, false);
        ("function", format!("{mode}:%{w}%"))
    };
    let disease = |rng: &mut Rng, mode: &str| {
        let w = word(rng, &v.disease_words, true);
        ("disease", format!("{mode}:%{w}%"))
    };
    let publication = |rng: &mut Rng| {
        let mode = if rng.chance(0.5) {
            "require"
        } else {
            "exclude"
        };
        ("publication", mode.to_string())
    };
    let combine = |rng: &mut Rng| {
        (
            "combine",
            if rng.chance(0.5) { "all" } else { "any" }.to_string(),
        )
    };
    let params: Vec<(&str, String)> = match shape % GENES_SHAPES {
        0 => vec![symbol(rng)],
        1 => vec![organism(rng), symbol(rng)],
        2 => vec![
            symbol(rng),
            ("function", aspect(rng, "require", &v.function_words, false)),
        ],
        3 => vec![
            symbol(rng),
            ("disease", aspect(rng, "exclude", &v.disease_words, true)),
        ],
        4 => vec![organism(rng), function(rng, "require"), combine(rng)],
        5 => vec![organism(rng), disease(rng, "require"), combine(rng)],
        6 => vec![
            function(rng, "require"),
            disease(rng, "require"),
            combine(rng),
        ],
        7 => vec![function(rng, "exclude"), disease(rng, "exclude")],
        8 => vec![organism(rng), disease(rng, "exclude"), publication(rng)],
        _ => vec![
            organism(rng),
            function(rng, "require"),
            disease(rng, "exclude"),
            publication(rng),
            combine(rng),
        ],
    };
    let query: Vec<String> = params
        .iter()
        .map(|(k, val)| format!("{k}={}", encode(val)))
        .collect();
    ReadReq::get(
        Route::Genes,
        format!("/genes?{}", query.join("&")),
        rng.chance(0.5),
    )
}

/// Object kinds in a block of ten web-links: six genes, two functions,
/// two diseases.
const OBJECT_KINDS: [&str; 10] = [
    "gene", "gene", "gene", "gene", "gene", "gene", "function", "function", "disease", "disease",
];

/// A Figure 5c web-link of the given kind.
pub fn object_request(rng: &mut Rng, v: &Vocab, kind: &str) -> ReadReq {
    let id = match kind {
        "gene" => rng.pick(&v.symbols),
        "function" => rng.pick(&v.go_ids),
        _ => rng.pick(&v.disease_ids),
    };
    ReadReq::get(
        Route::Object,
        format!("/object/{kind}/{}", encode(id)),
        rng.chance(0.5),
    )
}

/// A question of any shape, or a web-link of any kind.
pub fn any_genes_request(rng: &mut Rng, v: &Vocab) -> ReadReq {
    let shape = rng.below(GENES_SHAPES);
    genes_request(rng, v, shape)
}

pub fn any_object_request(rng: &mut Rng, v: &Vocab) -> ReadReq {
    let kind = *rng.pick(&OBJECT_KINDS);
    object_request(rng, v, kind)
}

/// A ranked-search phrase of two Zipf-drawn corpus words.
pub fn search_request(rng: &mut Rng, v: &Vocab) -> ReadReq {
    let n = v.search_words.len();
    let phrase = format!(
        "{} {}",
        v.search_words[zipf(rng, n)],
        v.search_words[zipf(rng, n)]
    );
    let fusion = if rng.chance(0.75) { "weighted" } else { "rrf" };
    ReadReq::get(
        Route::Search,
        format!("/search?q={}&k=10&fusion={fusion}", encode(&phrase)),
        rng.chance(0.3),
    )
}

/// A `POST /lorel` query of the given class.
pub fn lorel_request(rng: &mut Rng, v: &Vocab, class: LorelClass) -> ReadReq {
    let body = match class {
        LorelClass::Point => format!(
            r#"select G from ANNODA-GML.Gene G where G.Symbol = "{}""#,
            rng.pick(&v.symbols)
        ),
        LorelClass::Filter => format!(
            r#"select G.Symbol from ANNODA-GML.Gene G where G.Organism = "{}" and G.Symbol like "{}%""#,
            rng.pick(&v.organisms),
            rng.pick(&v.symbol_prefixes)
        ),
        LorelClass::Scan => format!(
            r#"select G.Symbol from ANNODA-GML.Gene G where G.Position like "{}%""#,
            1 + rng.below(22)
        ),
        LorelClass::Join => {
            "select count(G) from ANNODA-GML.Gene G, G.FunctionID F, G.DiseaseID D".to_string()
        }
    };
    ReadReq {
        route: Route::Lorel,
        target: "/lorel".to_string(),
        body,
        json: rng.chance(0.3),
        lorel: Some(class),
    }
}

/// Shuffles `items` in place (Fisher–Yates).
fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// One slot of a request block.
#[derive(Clone, Copy)]
enum Slot {
    Genes(usize),
    Object(&'static str),
    Search,
    Lorel(LorelClass),
}

fn fill(rng: &mut Rng, v: &Vocab, slot: Slot) -> ReadReq {
    match slot {
        Slot::Genes(shape) => genes_request(rng, v, shape),
        Slot::Object(kind) => object_request(rng, v, kind),
        Slot::Search => search_request(rng, v),
        Slot::Lorel(class) => lorel_request(rng, v, class),
    }
}

/// `n` requests made of shuffled copies of `block`. With `unique`, a
/// slot is redrawn until its request has not been seen in this run.
fn blocks(seed: u64, v: &Vocab, n: usize, block: &[Slot], unique: bool) -> Vec<ReadReq> {
    let mut rng = Rng::new(seed);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut slots = block.to_vec();
        shuffle(&mut rng, &mut slots);
        for slot in slots.into_iter().take(n - out.len()) {
            let mut req = fill(&mut rng, v, slot);
            let mut draws = 1;
            while unique && !seen.insert((req.target.clone(), req.json, req.body.clone())) {
                draws += 1;
                assert!(
                    draws < 1000,
                    "request space exhausted after {} requests",
                    out.len()
                );
                req = fill(&mut rng, v, slot);
            }
            out.push(req);
        }
    }
    out
}

/// `browse_miss`: blocks of ten questions (one per shape) and ten
/// web-links, text and JSON mixed, and no request repeated — every read
/// misses the response cache by construction.
pub fn browse_requests(seed: u64, v: &Vocab, n: usize) -> Vec<ReadReq> {
    let block: Vec<Slot> = (0..GENES_SHAPES)
        .map(Slot::Genes)
        .chain(OBJECT_KINDS.iter().map(|k| Slot::Object(k)))
        .collect();
    blocks(seed ^ 0xb0, v, n, &block, true)
}

/// `search_lorel`: blocks of forty — 28 Zipf-skewed searches, then Lorel
/// point lookups (6), selective filters (3), scans (2) and a join.
pub fn search_lorel_requests(seed: u64, v: &Vocab, n: usize) -> Vec<ReadReq> {
    let mut block = vec![Slot::Search; 28];
    block.extend([Slot::Lorel(LorelClass::Point); 6]);
    block.extend([Slot::Lorel(LorelClass::Filter); 3]);
    block.extend([Slot::Lorel(LorelClass::Scan); 2]);
    block.push(Slot::Lorel(LorelClass::Join));
    blocks(seed ^ 0x5e, v, n, &block, false)
}

/// One scripted source mutation in the feed schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mutation {
    /// Offset from the start of the timed window.
    pub at: Duration,
    /// `true` for the LocusLink description feed, `false` for OMIM.
    pub locuslink: bool,
    /// The scripted-mutation step within its source's sequence.
    pub step: u64,
}

/// How a workload writes its feeds: bursts of `burst` LocusLink
/// description edits every `every`, and one OMIM text edit (the slower
/// feed) every `omim_every`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedPace {
    pub every: Duration,
    pub burst: u64,
    pub omim_every: Duration,
}

/// The feed schedule for a window of `window`: LocusLink bursts at the
/// given pace and single OMIM edits every `pace.omim_every`, merged in time
/// order. Each burst falls at a seeded random instant in the first half
/// of its interval and each OMIM edit in the second half of its own:
/// with equal intervals the two tailers seldom absorb at once, and
/// successive bursts meet the fixed-rate reads at different phases.
pub fn mutation_schedule(window: Duration, pace: FeedPace, seed: u64) -> Vec<Mutation> {
    let mut rng = Rng::new(seed ^ 0x5c4e);
    let mut out = Vec::new();
    for (locuslink, every, burst) in [(true, pace.every, pace.burst), (false, pace.omim_every, 1)] {
        let mut step = 0u64;
        let mut slot = Duration::ZERO;
        while slot < window {
            let half = if locuslink { Duration::ZERO } else { every / 2 };
            let at = slot + half + (every / 2).mul_f64(rng.unit());
            if at < window {
                for _ in 0..burst {
                    out.push(Mutation {
                        at,
                        locuslink,
                        step,
                    });
                    step += 1;
                }
            }
            slot += every;
        }
    }
    // Stable: a burst keeps its step order.
    out.sort_by_key(|m| (m.at, !m.locuslink));
    out
}

/// `feed_absorb` reads, in blocks of ten: four object views of genes
/// mutated in the second before read `i` is expected (`due(i)`;
/// `recent(t)` names the genes mutated by then), three searches and
/// three questions of rotating shape.
pub fn feed_requests(
    seed: u64,
    v: &Vocab,
    n: usize,
    due: impl Fn(usize) -> Duration,
    recent: impl Fn(Duration) -> Vec<String>,
) -> Vec<ReadReq> {
    let mut rng = Rng::new(seed ^ 0xfe);
    let mut shape = 0;
    (0..n)
        .map(|i| match i % 10 {
            0 | 3 | 6 | 9 => {
                let recent = recent(due(i));
                let symbol = if recent.is_empty() {
                    rng.pick(&v.symbols).clone()
                } else {
                    rng.pick(&recent).clone()
                };
                ReadReq::get(
                    Route::Object,
                    format!("/object/gene/{}", encode(&symbol)),
                    false,
                )
            }
            1 | 4 | 7 => search_request(&mut rng, v),
            _ => {
                shape += 1;
                genes_request(&mut rng, v, shape)
            }
        })
        .collect()
}
