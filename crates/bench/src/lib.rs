//! # s2g-bench
//!
//! Experiment harness regenerating every table and figure of the
//! Series2Graph paper's evaluation (Section 5). `fig7` also times the fit
//! against the ray count `r`.
//!
//! The detectors are the [`s2g_eval::detector::Detector`] roster that
//! `s2g eval` runs, plus one harness-local Series2Graph,
//! [`runner::PaperS2g`], configured as the paper evaluates it
//! (`ℓ = 50`, `λ = 16`, full- or half-trained). [`runner`] executes
//! dataset × method with wall-clock timing and Top-k accuracy evaluation
//! against the generated ground truth. Serving speed is measured by
//! `wirebench`, not here.
//!
//! Every experiment binary (`table3`, `fig4` … `fig9`, `all_experiments`)
//! accepts a `--scale` argument that shrinks the dataset lengths of Table 2
//! proportionally (default 0.2, i.e. 20K-point versions of the 100K-point
//! datasets) so the full suite completes in minutes on a laptop; pass
//! `--scale 1.0` to reproduce the paper-sized runs. A malformed argument is
//! a usage error (exit status 2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod runner;

pub use runner::{evaluate, time_method, EvalOutcome};
