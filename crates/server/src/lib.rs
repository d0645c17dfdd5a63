//! Streaming solve server with admission control over the distributed
//! Steiner forest stack.
//!
//! This crate is the one solve front-end: it answers both "keep solving
//! whatever arrives" and "solve these N requests"
//! ([`StreamingServer::run_batch`]). A [`StreamingServer`] is a
//! hand-rolled thread + channel reactor — no async runtime — on top of
//! pooled [`dsf_service::SolverSession`]s:
//!
//! * **bounded admission** — at most [`ServerConfig::queue_capacity`]
//!   jobs queue; a full queue blocks the producer or rejects with
//!   [`ServerError::Saturated`] ([`AdmissionPolicy`]), so an overloaded
//!   server sheds load instead of growing without bound; a request whose
//!   instance does not fit its graph is refused up front
//!   ([`ServerError::InstanceMismatch`]);
//! * **priorities and deadlines** — [`JobOptions`] order the queue
//!   (priority, then FIFO) and let a job expire un-dispatched
//!   ([`JobStatus::DeadlineExpired`]);
//! * **cancellation** — [`JobHandle::cancel`] drops a still-queued job;
//!   every admitted job is reported exactly once, never silently lost —
//!   a solver panic included ([`JobStatus::Panicked`]);
//! * **streamed results** — per job via [`JobHandle::wait`], server-wide
//!   via [`StreamingServer::next_result`], as each solve finishes;
//! * **batches** — [`StreamingServer::run_batch`] submits a slice of
//!   requests and returns a [`dsf_service::ServiceReport`] in request
//!   order, or a [`BatchError`] naming the first request that did not
//!   complete;
//! * **mixed small/large traffic** — small jobs round-robin across
//!   `workers` warm sessions while a large job
//!   ([`ServerConfig::is_large`]) drains on its own lane with the whole
//!   `workers`-thread sharded executor ([`dsf_congest::run_sharded`] via
//!   the scoped thread override).
//!
//! # Determinism contract
//!
//! Queueing, priorities, lanes, batching, and worker count are invisible
//! in the results: a completed job's deterministic fields (forest, full
//! round ledger, weight, ratio) are bit-identical to a direct `solve_*`
//! call. This inherits the executor's thread-count invariance and the
//! buffer pool's transparency, and is asserted end-to-end by the crate's
//! integration tests, the root `tests/server_streaming.rs` tier, and the
//! corpus replay in `tests/conformance.rs`.

mod job;
mod server;

pub use job::{JobHandle, JobOptions, JobResult, JobStatus};
pub use server::{
    AdmissionPolicy, BatchError, ServerConfig, ServerError, StreamingServer,
    DEFAULT_LARGE_NODE_THRESHOLD,
};
