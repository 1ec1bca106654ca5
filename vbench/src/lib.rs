//! # vbench — the verifier's end-to-end and per-layer benchmark
//!
//! One command takes a workload name and a seed, generates that
//! workload's programs with their known answers, confirms every answer
//! in `ebpf::Vm`, and then measures encoded bytes → `Program::from_bytes`
//! → verdict in a closed loop, judging every verdict against its known
//! answer. A separate traced run (`--trace 1`) gives the per-layer split.
//! See `README.md` for the metrics and how to run it, and
//! [`workloads`] for why each workload was chosen.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
pub mod gen;
pub mod label;
pub mod rng;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
