//! The streaming reactor: bounded admission, two dispatch lanes, the
//! result stream, and the batch wrapper over them.

use std::any::Any;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use dsf_congest::default_threads;
use dsf_service::{ServiceReport, SolveRequest, SolverSession};

use crate::job::{JobHandle, JobOptions, JobResult, JobShared, JobStatus};

/// The default [`ServerConfig::large_node_threshold`]: graphs with at
/// least this many nodes take the large lane.
pub const DEFAULT_LARGE_NODE_THRESHOLD: usize = 50_000;

/// What [`StreamingServer::submit`] does when the admission queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Block the submitting thread until a slot frees up (backpressure
    /// propagates to the producer). The default.
    #[default]
    Block,
    /// Fail fast with [`ServerError::Saturated`]; the caller decides
    /// whether to retry, shed, or redirect the job.
    Reject,
}

/// Configuration of a [`StreamingServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Small-lane worker threads (each owning a warm
    /// [`SolverSession`]), and the sharded-executor thread count a
    /// large job runs with. Clamped to ≥ 1.
    pub workers: usize,
    /// Most jobs (both lanes combined) admitted but not yet dispatched.
    /// Clamped to ≥ 1.
    pub queue_capacity: usize,
    /// What `submit` does when the queue is full.
    pub admission: AdmissionPolicy,
    /// Jobs whose graph has at least this many nodes take the large lane
    /// ([`ServerConfig::is_large`]).
    pub large_node_threshold: usize,
}

impl Default for ServerConfig {
    /// `DSF_THREADS` workers, a 1024-deep queue, blocking admission, and
    /// a [`DEFAULT_LARGE_NODE_THRESHOLD`]-node large-job threshold.
    fn default() -> Self {
        ServerConfig {
            workers: default_threads(),
            queue_capacity: 1024,
            admission: AdmissionPolicy::Block,
            large_node_threshold: DEFAULT_LARGE_NODE_THRESHOLD,
        }
    }
}

impl ServerConfig {
    /// The config with out-of-range fields clamped (workers ≥ 1, capacity
    /// ≥ 1) — what [`StreamingServer::new`] actually runs with.
    #[must_use]
    pub fn normalized(mut self) -> Self {
        self.workers = self.workers.max(1);
        self.queue_capacity = self.queue_capacity.max(1);
        self
    }

    /// Whether a graph with `nodes` nodes takes the large lane (sharded
    /// whole-pool execution) rather than the small lane: large means **at
    /// least** [`ServerConfig::large_node_threshold`] nodes, so a graph
    /// with exactly threshold nodes is large.
    pub fn is_large(&self, nodes: usize) -> bool {
        nodes >= self.large_node_threshold
    }
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerError {
    /// The admission queue held `capacity` jobs and the config's policy
    /// is [`AdmissionPolicy::Reject`].
    Saturated {
        /// The configured queue capacity.
        capacity: usize,
    },
    /// [`StreamingServer::shutdown`] was called; no new jobs are admitted.
    ShuttingDown,
    /// The request's instance was built for a graph of a different size
    /// than the graph it is paired with.
    InstanceMismatch {
        /// Nodes of the graph the instance was built on.
        instance_nodes: usize,
        /// Nodes of the request's graph.
        graph_nodes: usize,
    },
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Saturated { capacity } => {
                write!(f, "admission queue saturated ({capacity} jobs queued)")
            }
            ServerError::ShuttingDown => write!(f, "server is shutting down"),
            ServerError::InstanceMismatch {
                instance_nodes,
                graph_nodes,
            } => write!(
                f,
                "instance built on {instance_nodes} nodes paired with a {graph_nodes}-node graph"
            ),
        }
    }
}

impl std::error::Error for ServerError {}

/// Why [`StreamingServer::run_batch`] returned no report. It names the
/// lowest-index request that did not complete.
#[derive(Debug, Clone)]
pub enum BatchError {
    /// The request was not admitted (so neither was any later one).
    Refused {
        /// Position of the request in the batch.
        index: usize,
        /// The request's caller-chosen id.
        id: String,
        /// Why admission refused it.
        error: ServerError,
    },
    /// The request was admitted but ended without completing.
    NotCompleted {
        /// Position of the request in the batch.
        index: usize,
        /// The request's caller-chosen id.
        id: String,
        /// How the job ended.
        status: JobStatus,
    },
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchError::Refused { index, id, error } => {
                write!(f, "batch request {index} ({id}) refused: {error}")
            }
            BatchError::NotCompleted { index, id, status } => {
                write!(
                    f,
                    "batch request {index} ({id}) did not complete: {status:?}"
                )
            }
        }
    }
}

impl std::error::Error for BatchError {}

/// One admitted, not-yet-dispatched job.
#[derive(Debug)]
struct QueuedJob {
    job_id: u64,
    /// Admission order, for FIFO tie-breaking within a priority.
    seq: u64,
    priority: i32,
    deadline: Option<Instant>,
    submitted: Instant,
    req: SolveRequest,
    shared: Arc<JobShared>,
}

// Heap order: highest priority first, then lowest seq (FIFO). Only
// `priority`/`seq` participate, consistent across all four impls.
impl PartialEq for QueuedJob {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for QueuedJob {}
impl PartialOrd for QueuedJob {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedJob {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

/// The two dispatch lanes plus admission bookkeeping, under one lock.
#[derive(Debug, Default)]
struct State {
    small: BinaryHeap<QueuedJob>,
    large: BinaryHeap<QueuedJob>,
    closed: bool,
    paused: bool,
}

impl State {
    fn queued(&self) -> usize {
        self.small.len() + self.large.len()
    }
}

/// State shared between the server façade and its worker threads.
#[derive(Debug)]
struct Shared {
    state: Mutex<State>,
    /// Wakes small-lane workers (new job, unpause, shutdown).
    small_ready: Condvar,
    /// Wakes the large-lane worker.
    large_ready: Condvar,
    /// Wakes submitters blocked on a full queue.
    space: Condvar,
    capacity: usize,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("server state lock")
    }
}

/// Identifies a dispatch lane to the shared worker loop.
#[derive(Clone, Copy)]
enum Lane {
    Small,
    Large,
}

/// A long-lived streaming front-end over the solver stack.
///
/// A `StreamingServer` accepts a continuous stream of [`SolveRequest`]s:
///
/// * [`StreamingServer::submit`] admits one job into a **bounded queue**
///   ([`ServerConfig::queue_capacity`]); a full queue either blocks the
///   producer or rejects with [`ServerError::Saturated`] per the
///   [`AdmissionPolicy`], and a request whose instance does not fit its
///   graph is rejected with [`ServerError::InstanceMismatch`];
/// * jobs carry per-request **priorities** and optional **deadlines**
///   ([`JobOptions`]); an expired job is never dispatched and is reported
///   as [`JobStatus::DeadlineExpired`], and [`JobHandle::cancel`] drops a
///   still-queued job as [`JobStatus::Cancelled`] — terminal results are
///   always reported, never silently dropped;
/// * results stream out as jobs finish, through both the per-job
///   [`JobHandle`] and the server-wide stream
///   ([`StreamingServer::next_result`] and friends);
/// * **small and large jobs coexist**: small jobs (below
///   [`ServerConfig::large_node_threshold`] nodes) run on `workers`
///   session-warm worker threads while jobs at or above the threshold
///   drain one at a time on a dedicated large lane, each with the whole
///   `workers`-thread sharded executor ([`ServerConfig::is_large`]); the
///   small lanes keep flowing while a large job runs;
/// * a solver panic is **isolated** to its job: it is reported as
///   [`JobStatus::Panicked`] and the lane carries on with a fresh session;
/// * [`StreamingServer::run_batch`] is the batch front-end: submit every
///   request, collect the outcomes in request order.
///
/// Scheduling is invisible in the results: every completed job's
/// deterministic fields (forest, full round ledger, weight, ratio) are
/// bit-identical to a direct `solve_*` call on a fresh session, whatever
/// the queue did — `streamed_results_are_bit_identical_to_direct_solves`
/// in the crate's integration tests asserts exactly this.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use dsf_graph::{generators, NodeId};
/// use dsf_server::{ServerConfig, StreamingServer};
/// use dsf_service::{SolveRequest, SolverKind};
/// use dsf_steiner::InstanceBuilder;
///
/// let g = Arc::new(generators::gnp_connected(20, 0.2, 9, 1));
/// let inst = InstanceBuilder::new(&g)
///     .component(&[NodeId(0), NodeId(13)])
///     .build()
///     .unwrap();
///
/// let mut server = StreamingServer::new(ServerConfig { workers: 2, ..Default::default() });
/// let handles: Vec<_> = (0..4)
///     .map(|seed| {
///         let req = SolveRequest::new(
///             format!("job-{seed}"), g.clone(), inst.clone(), SolverKind::Randomized, seed);
///         server.submit(req).unwrap()
///     })
///     .collect();
/// for h in &handles {
///     let result = h.wait();
///     assert!(inst.is_feasible(&g, &result.status.outcome().unwrap().forest));
/// }
/// server.shutdown();
/// ```
#[derive(Debug)]
pub struct StreamingServer {
    cfg: ServerConfig,
    shared: Arc<Shared>,
    /// The server-wide result stream (workers hold the senders).
    results: Mutex<mpsc::Receiver<JobResult>>,
    threads: Vec<std::thread::JoinHandle<()>>,
    next_id: AtomicU64,
}

impl StreamingServer {
    /// Starts a server: `cfg.workers` small-lane worker threads plus one
    /// large-lane thread, all idle until jobs arrive. Out-of-range config
    /// fields are clamped ([`ServerConfig::normalized`]).
    pub fn new(cfg: ServerConfig) -> Self {
        let cfg = cfg.normalized();
        let shared = Arc::new(Shared {
            state: Mutex::new(State::default()),
            small_ready: Condvar::new(),
            large_ready: Condvar::new(),
            space: Condvar::new(),
            capacity: cfg.queue_capacity,
        });
        let (tx, rx) = mpsc::channel();
        let mut threads = Vec::with_capacity(cfg.workers + 1);
        for w in 0..cfg.workers {
            let shared = shared.clone();
            let tx = tx.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("dsf-server-small-{w}"))
                    .spawn(move || worker_loop(&shared, Lane::Small, 1, &tx))
                    .expect("spawn small-lane worker"),
            );
        }
        let large_threads = cfg.workers;
        {
            let shared = shared.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("dsf-server-large".into())
                    .spawn(move || worker_loop(&shared, Lane::Large, large_threads, &tx))
                    .expect("spawn large-lane worker"),
            );
        }
        StreamingServer {
            cfg,
            shared,
            results: Mutex::new(rx),
            threads,
            next_id: AtomicU64::new(0),
        }
    }

    /// A server with the default configuration.
    pub fn with_defaults() -> Self {
        Self::new(ServerConfig::default())
    }

    /// The effective (clamped) configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// Small-lane worker threads (also the sharded thread count of a
    /// large job).
    pub fn workers(&self) -> usize {
        self.cfg.workers
    }

    /// Jobs currently admitted but not yet dispatched.
    pub fn queued(&self) -> usize {
        self.shared.lock().queued()
    }

    /// Submits a job with default options (priority 0, no deadline).
    ///
    /// # Errors
    ///
    /// As [`StreamingServer::submit_with`].
    pub fn submit(&self, req: SolveRequest) -> Result<JobHandle, ServerError> {
        self.submit_with(req, JobOptions::default())
    }

    /// Submits a job with explicit scheduling options.
    ///
    /// Admission is the only place backpressure applies: once admitted, a
    /// job is guaranteed a terminal [`JobResult`] (completed, failed,
    /// panicked, cancelled, or deadline-expired).
    ///
    /// # Errors
    ///
    /// [`ServerError::InstanceMismatch`] if the request's instance was
    /// built for a graph of another size; [`ServerError::Saturated`] under
    /// [`AdmissionPolicy::Reject`] with a full queue;
    /// [`ServerError::ShuttingDown`] after shutdown (including while
    /// blocked waiting for a slot).
    pub fn submit_with(
        &self,
        req: SolveRequest,
        opts: JobOptions,
    ) -> Result<JobHandle, ServerError> {
        self.admit(req, opts, self.cfg.admission)
    }

    /// Runs a batch to completion: submits every request, waits for each
    /// job, and reports the outcomes in request order, every job's ledger
    /// re-checked against the `B`-bit budget
    /// ([`ServiceReport::violations`]).
    ///
    /// A full queue makes the batch wait for space under either
    /// [`AdmissionPolicy`], so a batch longer than
    /// [`ServerConfig::queue_capacity`] still runs whole. Batch jobs are
    /// ordinary jobs: they share the lanes with streamed submissions, and
    /// their results also arrive on the server-wide result stream. On a
    /// paused server the call blocks until [`StreamingServer::resume`].
    ///
    /// Every completed outcome's deterministic fields are bit-identical to
    /// solving its request alone on a fresh session.
    ///
    /// # Errors
    ///
    /// [`BatchError`] names the lowest-index request that did not
    /// complete: refused at admission (nothing after it is submitted), or
    /// admitted and then failed, panicked, cancelled, or expired. Batch
    /// jobs already admitted still run and report on the result stream.
    pub fn run_batch(&self, requests: &[SolveRequest]) -> Result<ServiceReport, BatchError> {
        let t0 = Instant::now();
        let mut handles = Vec::with_capacity(requests.len());
        let mut refused = None;
        for (index, req) in requests.iter().enumerate() {
            match self.admit(req.clone(), JobOptions::default(), AdmissionPolicy::Block) {
                Ok(handle) => handles.push(handle),
                Err(error) => {
                    refused = Some(BatchError::Refused {
                        index,
                        id: req.id.clone(),
                        error,
                    });
                    break;
                }
            }
        }
        let mut jobs = Vec::with_capacity(handles.len());
        for (index, handle) in handles.iter().enumerate() {
            match handle.wait().status {
                JobStatus::Completed(out) => jobs.push(*out),
                status => {
                    return Err(BatchError::NotCompleted {
                        index,
                        id: handle.id.clone(),
                        status,
                    })
                }
            }
        }
        if let Some(err) = refused {
            return Err(err);
        }
        let wall_ns = t0.elapsed().as_nanos() as u64;
        Ok(ServiceReport::new(
            requests,
            jobs,
            self.cfg.workers,
            wall_ns,
        ))
    }

    /// Admits one job under `policy`; the single admission path behind
    /// [`StreamingServer::submit_with`] and [`StreamingServer::run_batch`].
    fn admit(
        &self,
        req: SolveRequest,
        opts: JobOptions,
        policy: AdmissionPolicy,
    ) -> Result<JobHandle, ServerError> {
        if req.instance.n() != req.graph.n() {
            return Err(ServerError::InstanceMismatch {
                instance_nodes: req.instance.n(),
                graph_nodes: req.graph.n(),
            });
        }
        let mut st = self.shared.lock();
        loop {
            if st.closed {
                return Err(ServerError::ShuttingDown);
            }
            if st.queued() < self.shared.capacity {
                break;
            }
            match policy {
                AdmissionPolicy::Reject => {
                    return Err(ServerError::Saturated {
                        capacity: self.shared.capacity,
                    })
                }
                AdmissionPolicy::Block => {
                    st = self.shared.space.wait(st).expect("server state lock");
                }
            }
        }
        let job_id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::new(JobShared::default());
        let handle = JobHandle {
            job_id,
            id: req.id.clone(),
            shared: shared.clone(),
        };
        let large = self.cfg.is_large(req.graph.n());
        let job = QueuedJob {
            job_id,
            seq: job_id,
            priority: opts.priority,
            deadline: opts.deadline,
            submitted: Instant::now(),
            req,
            shared,
        };
        if large {
            st.large.push(job);
            self.shared.large_ready.notify_one();
        } else {
            st.small.push(job);
            self.shared.small_ready.notify_one();
        }
        Ok(handle)
    }

    /// Stops dispatching queued jobs (already-running solves finish).
    /// Admission is unaffected — useful for building up a queue
    /// deterministically (tests, the bench saturation probe).
    pub fn pause(&self) {
        self.shared.lock().paused = true;
    }

    /// Resumes dispatch after [`StreamingServer::pause`].
    pub fn resume(&self) {
        let mut st = self.shared.lock();
        st.paused = false;
        drop(st);
        self.shared.small_ready.notify_all();
        self.shared.large_ready.notify_all();
    }

    /// Receives the next finished job, blocking until one is available.
    /// `None` once the server is shut down and every admitted job's
    /// result has been received.
    pub fn next_result(&self) -> Option<JobResult> {
        self.results.lock().expect("results lock").recv().ok()
    }

    /// Like [`StreamingServer::next_result`] with a timeout; `None` on
    /// timeout or exhaustion.
    pub fn next_result_timeout(&self, timeout: Duration) -> Option<JobResult> {
        self.results
            .lock()
            .expect("results lock")
            .recv_timeout(timeout)
            .ok()
    }

    /// Receives a finished job if one is already waiting.
    pub fn try_next_result(&self) -> Option<JobResult> {
        self.results.lock().expect("results lock").try_recv().ok()
    }

    /// Drains the server: stops admitting, lets every already-admitted
    /// job reach a terminal result (cancellations and expired deadlines
    /// included), and joins the worker threads. Idempotent; also run by
    /// `Drop`. Buffered results remain receivable afterwards.
    ///
    /// # Panics
    ///
    /// Re-raises a panic that killed a worker thread outside any solve
    /// (solver panics never do: they end their job as
    /// [`JobStatus::Panicked`]). `Drop` swallows it instead.
    pub fn shutdown(&mut self) {
        if let Some(payload) = self.close_and_join() {
            std::panic::resume_unwind(payload);
        }
    }

    /// The body of [`StreamingServer::shutdown`]; returns the first worker
    /// panic instead of raising it.
    fn close_and_join(&mut self) -> Option<Box<dyn Any + Send>> {
        {
            let mut st = self.shared.lock();
            st.closed = true;
            // A paused, closed server must still drain its queue.
            st.paused = false;
        }
        self.shared.small_ready.notify_all();
        self.shared.large_ready.notify_all();
        self.shared.space.notify_all();
        let mut first_panic = None;
        for t in self.threads.drain(..) {
            if let Err(payload) = t.join() {
                first_panic.get_or_insert(payload);
            }
        }
        first_panic
    }
}

impl Drop for StreamingServer {
    fn drop(&mut self) {
        // Raising here could abort an unwinding owner; `shutdown` is the
        // place to observe worker panics.
        let _ = self.close_and_join();
    }
}

/// One dispatch lane's worker: pop the best queued job, resolve it, and
/// publish the result; exit when the server is closed and the lane is
/// drained.
fn worker_loop(shared: &Shared, lane: Lane, threads: usize, tx: &mpsc::Sender<JobResult>) {
    let mut session = SolverSession::new();
    loop {
        let job = {
            let mut st = shared.lock();
            loop {
                if !st.paused {
                    let popped = match lane {
                        Lane::Small => st.small.pop(),
                        Lane::Large => st.large.pop(),
                    };
                    if let Some(job) = popped {
                        break Some(job);
                    }
                    if st.closed {
                        break None;
                    }
                }
                let cv = match lane {
                    Lane::Small => &shared.small_ready,
                    Lane::Large => &shared.large_ready,
                };
                st = cv.wait(st).expect("server state lock");
            }
        };
        let Some(job) = job else { return };
        // One admission slot freed; wake one blocked submitter.
        shared.space.notify_one();
        resolve(&mut session, job, threads, tx);
    }
}

/// Resolves one popped job: cancellation and deadline are checked *before*
/// dispatch, so an unwanted job never burns a solve. A panicking solve
/// ends its job as [`JobStatus::Panicked`] and leaves the lane a fresh
/// session, since the old pool may have been mid-scope.
fn resolve(
    session: &mut SolverSession,
    job: QueuedJob,
    threads: usize,
    tx: &mpsc::Sender<JobResult>,
) {
    let dispatched = Instant::now();
    let queued_ns = dispatched.duration_since(job.submitted).as_nanos() as u64;
    let status = if job.shared.cancel.load(Ordering::Acquire) {
        JobStatus::Cancelled
    } else if job.deadline.is_some_and(|d| dispatched >= d) {
        JobStatus::DeadlineExpired
    } else {
        match catch_unwind(AssertUnwindSafe(|| {
            session.solve_with_threads(&job.req, threads)
        })) {
            Ok(Ok(out)) => JobStatus::Completed(Box::new(out)),
            Ok(Err(e)) => JobStatus::Failed(e),
            Err(payload) => {
                *session = SolverSession::new();
                JobStatus::Panicked(panic_message(payload.as_ref()))
            }
        }
    };
    let result = JobResult {
        job_id: job.job_id,
        id: job.req.id.clone(),
        priority: job.priority,
        status,
        queued_ns,
        total_ns: job.submitted.elapsed().as_nanos() as u64,
    };
    job.shared.finish(result.clone());
    // The receiver lives in the server façade; if the façade is mid-drop
    // the handle above already carries the result.
    let _ = tx.send(result);
}

/// The message of a caught panic (`panic!` payloads are a `&str` or a
/// `String`).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}
