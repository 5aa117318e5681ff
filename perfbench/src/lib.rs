//! The repository benchmark: builds a serving node the way
//! `annoda-serve` does, drives it with one of three seeded workloads,
//! checks every answer it samples against an in-process oracle, and
//! reports end-to-end metrics — or, with tracing on, per-layer metrics
//! from a socketless replay of the same inputs. See `README.md`.

pub mod client;
pub mod feed;
pub mod gen;
pub mod load;
pub mod node;
pub mod oracle;
pub mod replay;
pub mod report;
pub mod run;
pub mod trace;
