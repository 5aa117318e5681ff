//! The in-process oracle: what each route must answer, computed from
//! the layers' public functions (`ask` + render, `Navigator::view` +
//! render, `search_on`, `lorel_on`) with no socket, reactor or response
//! cache in between. Each call into a layer is a span, so the traced
//! replay runs this same code with tracing on.
//!
//! The bodies reproduce the route formats byte for byte, so a served
//! reply can be compared with `==`. One field is normalised before
//! comparing: `/genes` JSON reports `cost_requests`, the source
//! requests this particular answer needed, which depends on what the
//! mediator's subquery cache held at the time and not on the answer.

use std::fmt::Write as _;

use annoda::{
    parse_question_pairs, render_integrated_view, render_object_view, DurableSystem,
    FusionStrategy, ObjectView,
};
use annoda_mediator::fusion::IntegratedGene;
use annoda_mediator::WebLink;
use annoda_oem::text as oem_text;
use annoda_serve::http::{parse_query, percent_decode};
use annoda_serve::Json;

use crate::gen::{ReadReq, Route};
use crate::trace::Tracer;

/// The body `req` must be answered with, or why it cannot be answered
/// (every generated request must succeed).
pub fn answer(sys: &DurableSystem, req: &ReadReq, tr: &mut Tracer) -> Result<Vec<u8>, String> {
    let (path, query) = req.target.split_once('?').unwrap_or((&req.target, ""));
    match req.route {
        Route::Genes => genes(sys, query, req.json, tr),
        Route::Object => object(sys, path, req.json, tr),
        Route::Search => search(sys, query, req.json, tr),
        Route::Lorel => {
            let span = match req.lorel {
                Some(class) => format!("lorel.eval.{}", class.name()),
                None => "lorel.eval".to_string(),
            };
            lorel(sys, &req.body, req.json, &span, tr)
        }
    }
}

/// Normalises the one answer-independent field (see the module docs).
pub fn normalise(route: Route, json: bool, body: &[u8]) -> Vec<u8> {
    if route != Route::Genes || !json {
        return body.to_vec();
    }
    let text = String::from_utf8_lossy(body);
    let key = "\"cost_requests\":";
    match text.find(key) {
        Some(at) => {
            let start = at + key.len();
            let end = text[start..]
                .find(|c: char| !c.is_ascii_digit())
                .map_or(text.len(), |n| start + n);
            format!("{}0{}", &text[..start], &text[end..]).into_bytes()
        }
        None => body.to_vec(),
    }
}

fn genes(sys: &DurableSystem, query: &str, json: bool, tr: &mut Tracer) -> Result<Vec<u8>, String> {
    let question = tr.span("annoda.parse", |_| {
        let pairs = parse_query(query);
        parse_question_pairs(pairs.iter().map(|(k, v)| (k.as_str(), v.as_str())))
    })?;
    let answer = tr
        .span("mediator.ask", |_| sys.annoda().ask(&question))
        .map_err(|e| e.to_string())?;
    tr.count("mediator.asks", 1.0);
    tr.count(
        "mediator.subqueries",
        (answer.cost.requests + answer.cost.cache_hits) as f64,
    );
    tr.count("mediator.records", answer.cost.records as f64);
    tr.count("mediator.genes", answer.fused.genes.len() as f64);
    Ok(tr.span("annoda.render", |_| {
        if json {
            Json::obj([
                ("count", Json::Int(answer.fused.genes.len() as i64)),
                (
                    "genes",
                    Json::Arr(answer.fused.genes.iter().map(gene_json).collect()),
                ),
                ("cost_requests", Json::Int(answer.cost.requests as i64)),
                (
                    "partial",
                    Json::Bool(!answer.fused.missing_sources.is_empty()),
                ),
                (
                    "missing_sources",
                    Json::Arr(answer.fused.missing_sources.iter().map(Json::str).collect()),
                ),
            ])
            .to_text()
            .into_bytes()
        } else {
            let mut body = rewrite_links(&render_integrated_view(&answer.fused.genes));
            if !answer.fused.missing_sources.is_empty() {
                let _ = writeln!(
                    body,
                    "\nPARTIAL ANSWER — sources unavailable: {}",
                    answer.fused.missing_sources.join(", ")
                );
            }
            body.into_bytes()
        }
    }))
}

fn object(sys: &DurableSystem, path: &str, json: bool, tr: &mut Tracer) -> Result<Vec<u8>, String> {
    let (kind, key) = tr
        .span("annoda.parse", |_| {
            let rest = path.strip_prefix("/object/").unwrap_or(path);
            rest.split_once('/')
                .map(|(k, id)| (percent_decode(k), percent_decode(id)))
        })
        .ok_or_else(|| format!("not an object path: {path}"))?;
    let view = tr
        .span("annoda.navigate", |_| {
            sys.annoda().navigator().view(&kind, &key)
        })
        .map_err(|e| e.to_string())?;
    Ok(tr.span("annoda.render", |_| {
        if json {
            object_json(&view).to_text().into_bytes()
        } else {
            rewrite_links(&render_object_view(&view)).into_bytes()
        }
    }))
}

fn search(
    sys: &DurableSystem,
    query: &str,
    json: bool,
    tr: &mut Tracer,
) -> Result<Vec<u8>, String> {
    let (phrase, k, strategy) = tr.span("annoda.parse", |_| {
        let mut phrase = String::new();
        let mut k = 10usize;
        let mut strategy = FusionStrategy::Weighted;
        for (key, value) in parse_query(query) {
            match key.as_str() {
                "q" => phrase = value,
                "k" => k = value.parse().map_err(|_| format!("bad k {value}"))?,
                "fusion" => {
                    strategy = FusionStrategy::parse(&value)
                        .ok_or_else(|| format!("bad fusion {value}"))?
                }
                other => return Err(format!("unknown search parameter {other}")),
            }
        }
        Ok((phrase, k, strategy))
    })?;
    let snap = tr
        .span("annoda.pin", |_| sys.query_snapshot())
        .map_err(|e| e.to_string())?;
    let answers = tr.span("search.query", |_| {
        DurableSystem::search_on(&snap, &phrase, k, strategy)
    });
    Ok(tr.span("annoda.render", |_| {
        if json {
            Json::obj([
                ("query", Json::str(phrase.clone())),
                ("fusion", Json::str(strategy.name())),
                ("k", Json::Int(k as i64)),
                ("epoch", Json::Int(snap.epoch as i64)),
                ("count", Json::Int(answers.len() as i64)),
                (
                    "answers",
                    Json::Arr(
                        answers
                            .iter()
                            .map(|a| {
                                Json::obj([
                                    ("locus", Json::str(a.locus.clone())),
                                    ("fused_score", Json::Float(a.fused_score)),
                                    (
                                        "per_source_scores",
                                        Json::Obj(
                                            a.per_source_scores
                                                .iter()
                                                .map(|(s, v)| (s.clone(), Json::Float(*v)))
                                                .collect(),
                                        ),
                                    ),
                                    (
                                        "snippets",
                                        Json::Obj(
                                            a.snippets
                                                .iter()
                                                .map(|(s, t)| (s.clone(), Json::str(t.clone())))
                                                .collect(),
                                        ),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
            .to_text()
            .into_bytes()
        } else {
            let mut body = String::new();
            let _ = writeln!(
                body,
                "query: {phrase}\nfusion: {}\nepoch: {}\nhits: {}",
                strategy.name(),
                snap.epoch,
                answers.len()
            );
            for (rank, a) in answers.iter().enumerate() {
                let per_source = a
                    .per_source_scores
                    .iter()
                    .map(|(s, v)| format!("{s}={v:.3}"))
                    .collect::<Vec<_>>()
                    .join(" ");
                let _ = writeln!(
                    body,
                    "{:>3}. {:<10} fused={:.4} [{per_source}]",
                    rank + 1,
                    a.locus,
                    a.fused_score
                );
                for (source, snippet) in &a.snippets {
                    let _ = writeln!(body, "       {source}: {snippet}");
                }
            }
            body.into_bytes()
        }
    }))
}

fn lorel(
    sys: &DurableSystem,
    text: &str,
    json: bool,
    span: &str,
    tr: &mut Tracer,
) -> Result<Vec<u8>, String> {
    let snap = tr
        .span("annoda.pin", |_| sys.query_snapshot())
        .map_err(|e| e.to_string())?;
    let served = tr
        .span(span, |_| DurableSystem::lorel_on(&snap, text))
        .map_err(|e| e.to_string())?;
    tr.count("lorel.queries", 1.0);
    tr.count("lorel.rows", served.outcome.rows.len() as f64);
    tr.count(
        "lorel.bindings",
        served.explain.probes.bindings_enumerated as f64,
    );
    tr.count("lorel.workers", served.explain.workers_used as f64);
    Ok(tr.span("annoda.render", |_| {
        let answer_text = oem_text::write_rooted(&served.view, "answer", served.outcome.answer);
        if !json {
            return answer_text.into_bytes();
        }
        Json::obj([
            ("rows", Json::Int(served.outcome.rows.len() as i64)),
            (
                "projected",
                Json::Arr(
                    served
                        .outcome
                        .projected
                        .iter()
                        .map(|(label, oids)| {
                            Json::obj([
                                ("label", Json::str(label.clone())),
                                ("results", Json::Int(oids.len() as i64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "groups",
                Json::Arr(served.outcome.groups.iter().map(Json::str).collect()),
            ),
            ("answer", Json::str(answer_text)),
            ("epoch", Json::Int(served.epoch as i64)),
            ("store_len", Json::Int(served.store_len as i64)),
            (
                "answer_objects",
                Json::Int(served.view.overlay().len() as i64),
            ),
            (
                "eval_workers",
                Json::Int(served.explain.workers_used as i64),
            ),
            (
                "bindings_enumerated",
                Json::Int(served.explain.probes.bindings_enumerated as i64),
            ),
            ("cost_requests", Json::Int(served.cost.requests as i64)),
            ("cost_records", Json::Int(served.cost.records as i64)),
            ("cost_virtual_us", Json::Int(served.cost.virtual_us as i64)),
            ("cost_cache_hits", Json::Int(served.cost.cache_hits as i64)),
        ])
        .to_text()
        .into_bytes()
    }))
}

fn rewrite_links(text: &str) -> String {
    text.replace("annoda://object/", "/object/")
}

fn link_json(link: &WebLink) -> Json {
    let href = match link.internal_target() {
        Some((kind, key)) => format!("/object/{kind}/{key}"),
        None => link.url.clone(),
    };
    Json::obj([
        ("label", Json::str(link.label.clone())),
        ("href", Json::str(href)),
    ])
}

fn gene_json(g: &IntegratedGene) -> Json {
    Json::obj([
        ("symbol", Json::str(g.symbol.clone())),
        ("gene_id", g.gene_id.map(Json::Int).unwrap_or(Json::Null)),
        ("organism", Json::opt(g.organism.clone())),
        ("description", Json::opt(g.description.clone())),
        ("position", Json::opt(g.position.clone())),
        (
            "functions",
            Json::Arr(
                g.functions
                    .iter()
                    .map(|f| {
                        Json::obj([
                            ("id", Json::str(f.id.clone())),
                            ("name", Json::opt(f.name.clone())),
                            ("namespace", Json::opt(f.namespace.clone())),
                            ("evidence", Json::opt(f.evidence.clone())),
                            (
                                "sources",
                                Json::Arr(f.sources.iter().map(Json::str).collect()),
                            ),
                            ("link", link_json(&f.link)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "diseases",
            Json::Arr(
                g.diseases
                    .iter()
                    .map(|d| {
                        Json::obj([
                            ("id", Json::str(d.id.clone())),
                            ("name", Json::opt(d.name.clone())),
                            ("inheritance", Json::opt(d.inheritance.clone())),
                            (
                                "sources",
                                Json::Arr(d.sources.iter().map(Json::str).collect()),
                            ),
                            ("link", link_json(&d.link)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "publications",
            Json::Arr(
                g.publications
                    .iter()
                    .map(|p| {
                        Json::obj([
                            ("id", Json::str(p.id.clone())),
                            ("title", Json::opt(p.title.clone())),
                            ("journal", Json::opt(p.journal.clone())),
                            ("year", Json::opt(p.year.clone())),
                            ("link", link_json(&p.link)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("links", Json::Arr(g.links.iter().map(link_json).collect())),
    ])
}

fn object_json(view: &ObjectView) -> Json {
    Json::obj([
        ("kind", Json::str(view.kind.clone())),
        ("key", Json::str(view.key.clone())),
        (
            "attributes",
            Json::Obj(
                view.attributes
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::str(v.clone())))
                    .collect(),
            ),
        ),
        (
            "links",
            Json::Arr(view.links.iter().map(link_json).collect()),
        ),
    ])
}
