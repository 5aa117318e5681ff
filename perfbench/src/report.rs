//! The result line, the result file and its metadata.

use std::path::{Path, PathBuf};

use annoda_serve::Json;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// A finished run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Reported beside the metrics (generator lateness, tracing
    /// overhead, per-route breakdowns); not gated.
    pub notes: Vec<(String, f64)>,
    /// Why the run is not correct, one line each.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.errors.push(why.into());
    }
}

/// A JSON number. A latency that includes a failed request is infinite
/// (it missed every limit); JSON has no infinity, so it prints as 1e9.
pub fn number(v: f64) -> Json {
    Json::Float(if v.is_finite() { v } else { 1e9 })
}

fn result_json(o: &Outcome) -> Json {
    let metrics = o
        .metrics
        .iter()
        .map(|m| {
            let value = Json::obj([("value", number(m.value)), ("unit", Json::str(m.unit))]);
            (m.name.clone(), value)
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(o.correct && o.failed == 0)),
        ("attempted", Json::Int(o.attempted as i64)),
        ("failed", Json::Int(o.failed as i64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// The last line of standard output.
pub fn result_line(o: &Outcome) -> String {
    result_json(o).to_text()
}

/// Run metadata recorded with every result.
#[derive(Debug, Clone)]
pub struct Meta {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub loci: usize,
    pub nproc: usize,
    pub commit: String,
}

/// The commit being measured, read from `.git` without running git;
/// "unknown" in a checkout without history.
pub fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where a result is kept. The run length is part of the name, so a
/// short or smoke run never writes over a full-length one.
pub fn result_path(dir: &Path, meta: &Meta) -> PathBuf {
    dir.join(meta.workload.as_str()).join(format!(
        "seed{}-{}s-{}.json",
        meta.seed,
        meta.seconds,
        if meta.trace { "trace" } else { "timed" }
    ))
}

/// The result file: metadata, the result line, notes and errors.
pub fn result_file(meta: &Meta, o: &Outcome) -> String {
    let notes = o
        .notes
        .iter()
        .map(|(k, v)| (k.clone(), number(*v)))
        .collect();
    let errors = o.errors.iter().map(Json::str).collect();
    let mut text = Json::obj([
        ("workload", Json::str(meta.workload.as_str())),
        (
            "seed",
            i64::try_from(meta.seed).map_or_else(|_| Json::str(meta.seed.to_string()), Json::Int),
        ),
        ("seconds", Json::Int(meta.seconds as i64)),
        ("trace", Json::Bool(meta.trace)),
        ("loci", Json::Int(meta.loci as i64)),
        ("nproc", Json::Int(meta.nproc as i64)),
        ("commit", Json::str(meta.commit.as_str())),
        ("result", result_json(o)),
        ("notes", Json::Obj(notes)),
        ("errors", Json::Arr(errors)),
    ])
    .to_text();
    text.push('\n');
    text
}
