//! The job server: bounded queue, supervised workers, streaming results.
//!
//! # Lifecycle of a job
//!
//! 1. **Submit** — the session decodes [`Request::SubmitJob`], resolves
//!    every [`CircuitSource`] to a validated [`Netlist`] (a bad snapshot
//!    or an ungeneratable spec rejects the whole submission with a typed
//!    [`Response::Error`] — nothing half-resolved is ever queued), then
//!    offers the job to the bounded queue. A full queue answers
//!    [`Response::Busy`]: backpressure is explicit and typed, the server
//!    never buffers unboundedly.
//! 2. **Run** — a worker pops the job and drives
//!    [`run_netlists_streamed`]: one circuit per supervised
//!    `BlockDriver` job, per-job deadlines, per-circuit degradation. The
//!    server's shared [`ResultCache`] is installed into the job's options
//!    first, so every circuit consults the cache (after the preflight
//!    gates) before any replay dispatches — resubmissions are served by
//!    hash lookup.
//! 3. **Stream** — each circuit's outcome is appended to the job's event
//!    queue as a [`Response::RowReady`] the moment it (and every earlier
//!    slot) completes, followed by one [`Response::JobDone`] (or
//!    [`Response::JobFailed`] after a catastrophic worker panic). Clients
//!    drain events with [`Request::PollJob`]; each event is delivered
//!    exactly once, in spec order.
//! 4. **Cancel** — [`Request::CancelJob`] trips the job's
//!    [`CancelFlag`] parent. Every in-flight circuit attempt polls a
//!    child of it at its replay-block checkpoints and winds down as a
//!    deterministic `Canceled` row within one block.
//! 5. **Retire** — a finished job stays pollable until
//!    [`FINISHED_JOB_RETENTION`] newer jobs have finished; then it leaves
//!    the job table and answers [`JobState::Unknown`].
//!
//! Because every layer below is bit-deterministic, identical submissions
//! produce **byte-identical** `RowReady` payloads regardless of worker
//! count, arrival order, transport, or whether the rows came from the
//! cache or a fresh replay.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use scanpower_cache::ResultCache;
use scanpower_core::error::ExperimentError;
use scanpower_core::experiment::{run_netlists_streamed, ExperimentOptions, ResultCacheHandle};
use scanpower_core::LEAKAGE_PIN_LIMIT;
use scanpower_netlist::Netlist;
use scanpower_sim::failpoint;
use scanpower_sim::CancelFlag;
use scanpower_wire::{decode_message, encode_message};

use crate::protocol::{CircuitSource, JobId, JobSpec, JobState, Request, Response, RowOutcome};
use crate::transport::{Connection, Transport};

/// Finished jobs (done or failed) the server keeps answering for. Once
/// more have finished, the oldest is dropped from the job table and a poll
/// or cancel of it answers [`JobState::Unknown`]; queued and running jobs
/// are never dropped.
pub const FINISHED_JOB_RETENTION: usize = 256;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Capacity of the bounded job queue. A submission that finds the
    /// queue full is refused with a typed [`Response::Busy`].
    pub queue_capacity: usize,
    /// Background worker threads pulling jobs off the queue. `0` starts
    /// none — the embedding test harness then steps jobs explicitly with
    /// [`Server::run_pending_job`], which is the deterministic way to
    /// exercise queue states.
    pub workers: usize,
    /// Per-job deadline (milliseconds) applied to submissions that did
    /// not set [`ExperimentOptions::job_deadline_ms`] themselves.
    pub default_deadline_ms: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            queue_capacity: 4,
            workers: 1,
            default_deadline_ms: None,
        }
    }
}

/// One admitted job: its resolved inputs and its event stream.
struct JobEntry {
    id: JobId,
    /// The resolved circuits until a worker takes them to run the job;
    /// empty from then on, so a finished job holds no netlist.
    netlists: Mutex<Vec<Netlist>>,
    /// Circuit count of the job (for [`Response::JobStatus`]).
    total: usize,
    options: ExperimentOptions,
    /// The cancellation parent a `CancelJob` request trips; every circuit
    /// attempt polls a child of it.
    cancel: CancelFlag,
    state: Mutex<JobState>,
    /// Undelivered events, in delivery order: `RowReady`s (spec order)
    /// then the final `JobDone`/`JobFailed`. Bounded by construction —
    /// one event per circuit plus the terminal one.
    events: Mutex<VecDeque<Response>>,
    completed: AtomicUsize,
}

struct ServerInner {
    config: ServeConfig,
    cache: Arc<ResultCache>,
    queue: Mutex<VecDeque<JobId>>,
    queue_signal: Condvar,
    jobs: Mutex<HashMap<JobId, Arc<JobEntry>>>,
    /// Finished job ids, oldest first, at most [`FINISHED_JOB_RETENTION`].
    finished: Mutex<VecDeque<JobId>>,
    next_job: AtomicU64,
    shutdown: AtomicBool,
}

/// The job service. Cheap to share: sessions, listeners and workers all
/// operate on one reference-counted core.
pub struct Server {
    inner: Arc<ServerInner>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// A server with `config` and a fresh in-memory result cache.
    #[must_use]
    pub fn new(config: ServeConfig) -> Server {
        Server::with_cache(config, Arc::new(ResultCache::in_memory()))
    }

    /// A server sharing an existing result cache (e.g. one with a disk
    /// tier, or one shared across server generations).
    #[must_use]
    pub fn with_cache(config: ServeConfig, cache: Arc<ResultCache>) -> Server {
        let inner = Arc::new(ServerInner {
            config: config.clone(),
            cache,
            queue: Mutex::new(VecDeque::new()),
            queue_signal: Condvar::new(),
            jobs: Mutex::new(HashMap::new()),
            finished: Mutex::new(VecDeque::new()),
            next_job: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..config.workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Server { inner, workers }
    }

    /// The server's shared result cache (hit/miss counters drive the
    /// cache-identity assertions of the test rig).
    #[must_use]
    pub fn cache(&self) -> &Arc<ResultCache> {
        &self.inner.cache
    }

    /// Spawns an accept loop over `transport`; each connection gets its
    /// own session thread. The loop ends when the transport shuts down
    /// (e.g. every [`LocalConnector`](crate::transport::LocalConnector)
    /// clone dropped, or [`TcpShutdown`](crate::transport::TcpShutdown)
    /// fired); join the returned handle to wait for that.
    pub fn spawn_listener<T: Transport>(&self, mut transport: T) -> JoinHandle<()>
    where
        T::Conn: Send,
    {
        let inner = Arc::clone(&self.inner);
        std::thread::spawn(move || {
            let mut sessions = Vec::new();
            while let Some(mut conn) = transport.accept() {
                let inner = Arc::clone(&inner);
                sessions.push(std::thread::spawn(move || session(&inner, &mut conn)));
            }
            for handle in sessions {
                let _ = handle.join();
            }
        })
    }

    /// Pops and runs one queued job on the calling thread; `false` when
    /// the queue was empty. The manual-stepping seam for `workers: 0`
    /// configurations — queue states (and cancellation of still-queued
    /// jobs) become fully deterministic.
    pub fn run_pending_job(&self) -> bool {
        let id = self.inner.queue.lock().expect("queue lock").pop_front();
        match id {
            Some(id) => {
                self.inner.run_job(id);
                true
            }
            None => false,
        }
    }

    /// Stops the background workers. Queued jobs stay queued; sessions
    /// keep answering polls and cancels until their connections close.
    pub fn shutdown(&mut self) {
        {
            // Set and signal under the queue lock: a worker checks the flag
            // and starts waiting under the same lock, so it either sees the
            // flag or is already waiting when the notification comes.
            let _queue = self.inner.queue.lock().expect("queue lock");
            self.inner.shutdown.store(true, Ordering::Release);
            self.inner.queue_signal.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(inner: &ServerInner) {
    loop {
        let id = {
            let mut queue = inner.queue.lock().expect("queue lock");
            loop {
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if let Some(id) = queue.pop_front() {
                    break id;
                }
                queue = inner.queue_signal.wait(queue).expect("queue lock");
            }
        };
        inner.run_job(id);
    }
}

/// One connection's request/response loop. A session-level injected fault
/// (`serve::session`, keyed by the 1-based request ordinal) turns that
/// request into a typed error frame without touching the job tables.
fn session(inner: &ServerInner, conn: &mut dyn Connection) {
    let mut ordinal: u64 = 0;
    while let Ok(Some(frame)) = conn.recv_frame() {
        ordinal += 1;
        let response = match failpoint::hit("serve::session", ordinal) {
            Err(fault) => Response::Error {
                message: fault.to_string(),
            },
            Ok(()) => match decode_message::<Request>(&frame) {
                Err(error) => Response::Error {
                    message: format!("bad request frame: {error}"),
                },
                Ok(request) => inner.handle(request),
            },
        };
        if conn.send_frame(&encode_message(&response)).is_err() {
            break;
        }
    }
}

impl ServerInner {
    fn handle(&self, request: Request) -> Response {
        match request {
            Request::SubmitJob(spec) => self.submit(*spec),
            Request::PollJob(id) => self.poll(id),
            Request::CancelJob(id) => self.cancel(id),
        }
    }

    fn submit(&self, spec: JobSpec) -> Response {
        if spec.circuits.is_empty() {
            return Response::Error {
                message: "empty job: a submission needs at least one circuit".into(),
            };
        }
        // Refuse a full queue before resolving: generation, snapshot decode
        // and validation all grow with the submission, and a refusal must
        // not pay for them. Admission re-checks under the lock below.
        if let Some(busy) = self.busy(&self.queue.lock().expect("queue lock")) {
            return busy;
        }
        let netlists = match resolve_circuits(&spec.circuits, spec.options.limits.max_gates) {
            Ok(netlists) => netlists,
            Err(message) => return Response::Error { message },
        };
        let id = self.next_job.fetch_add(1, Ordering::Relaxed) + 1;
        if let Err(fault) = failpoint::hit("serve::queue", id) {
            return Response::Error {
                message: fault.to_string(),
            };
        }
        let mut options = spec.options;
        options.result_cache = ResultCacheHandle::new(Arc::clone(&self.cache));
        if options.job_deadline_ms.is_none() {
            options.job_deadline_ms = self.config.default_deadline_ms;
        }
        let entry = Arc::new(JobEntry {
            id,
            total: netlists.len(),
            netlists: Mutex::new(netlists),
            options,
            cancel: CancelFlag::new(),
            state: Mutex::new(JobState::Queued),
            events: Mutex::new(VecDeque::new()),
            completed: AtomicUsize::new(0),
        });
        // Admission and the capacity check happen under the queue lock so
        // two racing submissions cannot both squeeze past the bound.
        let mut queue = self.queue.lock().expect("queue lock");
        if let Some(busy) = self.busy(&queue) {
            return busy;
        }
        self.jobs.lock().expect("jobs lock").insert(id, entry);
        queue.push_back(id);
        drop(queue);
        self.queue_signal.notify_one();
        Response::JobAccepted { job: id }
    }

    /// The typed refusal for a queue at capacity, `None` while there is room.
    fn busy(&self, queue: &VecDeque<JobId>) -> Option<Response> {
        (queue.len() >= self.config.queue_capacity).then_some(Response::Busy {
            queued: queue.len(),
            capacity: self.config.queue_capacity,
        })
    }

    fn poll(&self, id: JobId) -> Response {
        let entry = self.jobs.lock().expect("jobs lock").get(&id).cloned();
        let Some(entry) = entry else {
            return Response::JobStatus {
                job: id,
                state: JobState::Unknown,
                completed: 0,
                total: 0,
            };
        };
        if let Some(event) = entry.events.lock().expect("events lock").pop_front() {
            return event;
        }
        let state = *entry.state.lock().expect("state lock");
        Response::JobStatus {
            job: id,
            state,
            completed: entry.completed.load(Ordering::Acquire),
            total: entry.total,
        }
    }

    fn cancel(&self, id: JobId) -> Response {
        let entry = self.jobs.lock().expect("jobs lock").get(&id).cloned();
        match entry {
            None => Response::CancelAck {
                job: id,
                state: JobState::Unknown,
            },
            Some(entry) => {
                entry.cancel.cancel();
                Response::CancelAck {
                    job: id,
                    state: *entry.state.lock().expect("state lock"),
                }
            }
        }
    }

    fn run_job(&self, id: JobId) {
        let entry = self.jobs.lock().expect("jobs lock").get(&id).cloned();
        let Some(entry) = entry else { return };
        *entry.state.lock().expect("state lock") = JobState::Running;
        // Taken out of the entry: the netlists are dropped when the run
        // ends instead of living as long as the job table entry.
        let netlists = std::mem::take(&mut *entry.netlists.lock().expect("netlists lock"));
        let streamed = &entry;
        let run = catch_unwind(AssertUnwindSafe(|| {
            run_netlists_streamed(
                &netlists,
                &entry.options,
                Some(&entry.cancel),
                &|index, outcome| {
                    let event = Response::RowReady {
                        job: streamed.id,
                        index,
                        outcome: match outcome {
                            Ok(row) => RowOutcome::Row(row.clone()),
                            Err(error) => RowOutcome::Failed {
                                message: error.to_string(),
                            },
                        },
                    };
                    streamed
                        .events
                        .lock()
                        .expect("events lock")
                        .push_back(event);
                    streamed.completed.fetch_add(1, Ordering::Release);
                },
            )
        }));
        match run {
            Ok(outcome) => {
                let failures = outcome.outcomes.iter().filter(|slot| slot.is_err()).count();
                let done = Response::JobDone {
                    job: entry.id,
                    rows: outcome.outcomes.len() - failures,
                    failures,
                    cache_hits: entry.options.result_cache.row_hits(),
                };
                *entry.state.lock().expect("state lock") = JobState::Done;
                entry.events.lock().expect("events lock").push_back(done);
            }
            Err(payload) => {
                let message = if let Some(text) = payload.downcast_ref::<&'static str>() {
                    (*text).to_owned()
                } else if let Some(text) = payload.downcast_ref::<String>() {
                    text.clone()
                } else {
                    "non-string panic payload".to_owned()
                };
                *entry.state.lock().expect("state lock") = JobState::Failed;
                entry
                    .events
                    .lock()
                    .expect("events lock")
                    .push_back(Response::JobFailed {
                        job: entry.id,
                        message,
                    });
            }
        }
        self.retire(id);
    }

    /// Records `id` as finished and drops the oldest finished job from the
    /// table once more than [`FINISHED_JOB_RETENTION`] have finished.
    fn retire(&self, id: JobId) {
        let mut finished = self.finished.lock().expect("finished lock");
        finished.push_back(id);
        if finished.len() > FINISHED_JOB_RETENTION {
            if let Some(oldest) = finished.pop_front() {
                self.jobs.lock().expect("jobs lock").remove(&oldest);
            }
        }
    }
}

/// Resolves every submitted circuit to a validated [`Netlist`], or
/// explains (deterministically) why the submission is rejected. Spec
/// generation runs under `catch_unwind` so an adversarial spec cannot
/// take the session down.
///
/// The job's gate ceiling (`max_gates`) is checked before a family is
/// generated — generation emits exactly `spec.gates()` gates, so the check
/// is exact and a refused job never pays for a large generation — and
/// before a decoded snapshot is queued. The fanin bound the experiment
/// preflight enforces ([`LEAKAGE_PIN_LIMIT`]) is checked on every resolved
/// netlist before it is queued.
fn resolve_circuits(
    sources: &[CircuitSource],
    max_gates: Option<usize>,
) -> Result<Vec<Netlist>, String> {
    let check = |index: usize, circuit: &str, resource, limit, actual| {
        if actual > limit {
            let refusal = ExperimentError::ResourceLimit {
                circuit: circuit.to_owned(),
                resource,
                limit,
                actual,
            };
            return Err(format!("circuit {index}: {refusal}"));
        }
        Ok(())
    };
    let check_gates = |index: usize, circuit: &str, actual: usize| match max_gates {
        Some(limit) => check(index, circuit, "gates", limit, actual),
        None => Ok(()),
    };
    let mut netlists = Vec::with_capacity(sources.len());
    for (index, source) in sources.iter().enumerate() {
        let netlist = match source {
            CircuitSource::Family { spec, scale, seed } => {
                let spec = match scale {
                    Some(factor) => spec.scaled(*factor),
                    None => spec.clone(),
                };
                check_gates(index, spec.name(), spec.gates())?;
                let seed = *seed;
                catch_unwind(AssertUnwindSafe(move || spec.generate(seed)))
                    .map_err(|_| format!("circuit {index}: spec generation failed"))?
            }
            CircuitSource::Snapshot { bytes } => {
                let netlist = decode_message::<Netlist>(bytes)
                    .map_err(|error| format!("circuit {index}: bad netlist snapshot: {error}"))?;
                check_gates(index, netlist.name(), netlist.gate_count())?;
                netlist
            }
        };
        let fanin = netlist
            .gates()
            .iter()
            .map(|gate| gate.inputs.len())
            .max()
            .unwrap_or(0);
        check(index, netlist.name(), "fanin", LEAKAGE_PIN_LIMIT, fanin)?;
        netlist
            .validate()
            .map_err(|error| format!("circuit {index}: invalid netlist: {error}"))?;
        netlists.push(netlist);
    }
    Ok(netlists)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanpower_core::experiment::ResourceLimits;
    use scanpower_netlist::generator::CircuitFamily;

    fn family(name: &str) -> CircuitSource {
        CircuitSource::Family {
            spec: CircuitFamily::iscas89_like(name).unwrap(),
            scale: Some(0.3),
            seed: 1,
        }
    }

    #[test]
    fn backpressure_is_a_typed_busy() {
        let server = Server::new(ServeConfig {
            queue_capacity: 1,
            workers: 0,
            default_deadline_ms: None,
        });
        let spec = JobSpec {
            circuits: vec![family("s27")],
            options: ExperimentOptions::fast(),
        };
        let first = server
            .inner
            .handle(Request::SubmitJob(Box::new(spec.clone())));
        assert!(matches!(first, Response::JobAccepted { job: 1 }));
        let second = server.inner.handle(Request::SubmitJob(Box::new(spec)));
        assert_eq!(
            second,
            Response::Busy {
                queued: 1,
                capacity: 1
            }
        );
    }

    /// A full queue refuses before it resolves the circuits: a corrupt
    /// snapshot that would be an `Error` on an idle server is a `Busy` here,
    /// because the decode never runs.
    #[test]
    fn full_queue_refuses_before_resolving_circuits() {
        let server = Server::new(ServeConfig {
            queue_capacity: 1,
            workers: 0,
            default_deadline_ms: None,
        });
        let filler = JobSpec {
            circuits: vec![family("s27")],
            options: ExperimentOptions::fast(),
        };
        assert!(matches!(
            server.inner.handle(Request::SubmitJob(Box::new(filler))),
            Response::JobAccepted { job: 1 }
        ));
        let corrupt = JobSpec {
            circuits: vec![CircuitSource::Snapshot {
                bytes: vec![0xde, 0xad, 0xbe, 0xef],
            }],
            options: ExperimentOptions::fast(),
        };
        assert_eq!(
            server
                .inner
                .handle(Request::SubmitJob(Box::new(corrupt.clone()))),
            Response::Busy {
                queued: 1,
                capacity: 1
            }
        );
        // With room in the queue the same submission is a typed error.
        assert!(server.run_pending_job());
        assert!(matches!(
            server.inner.handle(Request::SubmitJob(Box::new(corrupt))),
            Response::Error { .. }
        ));
    }

    #[test]
    fn manual_stepping_runs_queued_jobs_and_streams_rows() {
        let server = Server::new(ServeConfig {
            queue_capacity: 4,
            workers: 0,
            default_deadline_ms: None,
        });
        let spec = JobSpec {
            circuits: vec![family("s27"), family("s344")],
            options: ExperimentOptions::fast(),
        };
        let Response::JobAccepted { job } = server.inner.handle(Request::SubmitJob(Box::new(spec)))
        else {
            panic!("submission refused");
        };
        assert!(matches!(
            server.inner.handle(Request::PollJob(job)),
            Response::JobStatus {
                state: JobState::Queued,
                ..
            }
        ));
        assert!(server.run_pending_job());
        assert!(!server.run_pending_job(), "queue drained");
        for index in 0..2 {
            let event = server.inner.handle(Request::PollJob(job));
            assert!(
                matches!(
                    &event,
                    Response::RowReady {
                        index: i,
                        outcome: RowOutcome::Row(_),
                        ..
                    } if *i == index
                ),
                "event {index}: {event:?}"
            );
        }
        assert!(matches!(
            server.inner.handle(Request::PollJob(job)),
            Response::JobDone {
                rows: 2,
                failures: 0,
                ..
            }
        ));
        // Drained: further polls are status snapshots.
        assert!(matches!(
            server.inner.handle(Request::PollJob(job)),
            Response::JobStatus {
                state: JobState::Done,
                completed: 2,
                total: 2,
                ..
            }
        ));
    }

    #[test]
    fn finished_job_releases_its_netlists() {
        let server = Server::new(ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        });
        let spec = JobSpec {
            circuits: vec![family("s27"), family("s344")],
            options: ExperimentOptions::fast(),
        };
        let Response::JobAccepted { job } = server.inner.handle(Request::SubmitJob(Box::new(spec)))
        else {
            panic!("submission refused");
        };
        let entry = |id| server.inner.jobs.lock().unwrap().get(&id).cloned().unwrap();
        assert_eq!(entry(job).netlists.lock().unwrap().len(), 2);
        assert!(server.run_pending_job());
        assert!(entry(job).netlists.lock().unwrap().is_empty());
        // Drain the two rows and the terminal event; the status snapshot
        // still reports every circuit.
        for _ in 0..3 {
            assert!(!matches!(
                server.inner.handle(Request::PollJob(job)),
                Response::JobStatus { .. }
            ));
        }
        assert_eq!(
            server.inner.handle(Request::PollJob(job)),
            Response::JobStatus {
                job,
                state: JobState::Done,
                completed: 2,
                total: 2,
            }
        );
    }

    /// `shutdown` must end idle workers every time: a worker between its
    /// flag check and its wait must not miss the wake-up.
    #[test]
    fn shutdown_of_idle_workers_always_terminates() {
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for _ in 0..200 {
                let mut server = Server::new(ServeConfig {
                    workers: 2,
                    ..ServeConfig::default()
                });
                server.shutdown();
            }
            done.send(()).unwrap();
        });
        finished
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("shutdown hung on an idle worker");
    }

    #[test]
    fn bad_submissions_are_rejected_with_typed_errors() {
        let server = Server::new(ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        });
        let empty = JobSpec {
            circuits: vec![],
            options: ExperimentOptions::fast(),
        };
        assert!(matches!(
            server.inner.handle(Request::SubmitJob(Box::new(empty))),
            Response::Error { .. }
        ));
        let bad_snapshot = JobSpec {
            circuits: vec![CircuitSource::Snapshot {
                bytes: vec![0xde, 0xad],
            }],
            options: ExperimentOptions::fast(),
        };
        assert!(matches!(
            server
                .inner
                .handle(Request::SubmitJob(Box::new(bad_snapshot))),
            Response::Error { .. }
        ));
        assert!(!server.run_pending_job(), "nothing was queued");
    }

    /// The job's gate ceiling refuses an oversized circuit at submit,
    /// before the family is generated or the snapshot is queued.
    #[test]
    fn gate_limit_refuses_before_generation() {
        let server = Server::new(ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        });
        let options = ExperimentOptions {
            limits: ResourceLimits {
                max_gates: Some(1_000),
                ..ResourceLimits::default()
            },
            ..ExperimentOptions::fast()
        };
        let submit = |source: CircuitSource| {
            server.inner.handle(Request::SubmitJob(Box::new(JobSpec {
                circuits: vec![source],
                options: options.clone(),
            })))
        };
        let s9234 = CircuitFamily::iscas89_like("s9234").unwrap();
        let Response::Error { message } = submit(CircuitSource::Family {
            spec: s9234.clone(),
            scale: Some(10.0),
            seed: 1,
        }) else {
            panic!("an oversized family must be refused at submit");
        };
        assert!(message.contains("gates"), "{message}");
        assert!(message.contains("1000"), "{message}");

        let too_big = s9234.scaled(0.2);
        assert!(too_big.gates() > 1_000);
        let snapshot = too_big.generate(1).to_wire_bytes();
        assert!(matches!(
            submit(CircuitSource::Snapshot { bytes: snapshot }),
            Response::Error { .. }
        ));
        assert!(!server.run_pending_job(), "nothing was queued");

        // Within the ceiling the same job is accepted.
        assert!(matches!(
            submit(CircuitSource::Family {
                spec: CircuitFamily::iscas89_like("s27").unwrap(),
                scale: None,
                seed: 1,
            }),
            Response::JobAccepted { .. }
        ));
    }

    /// The fanin bound refuses a snapshot whose widest gate has
    /// more than [`LEAKAGE_PIN_LIMIT`] pins at submit, with a typed resource
    /// refusal, and queues nothing; a gate at the cap is accepted.
    #[test]
    fn fanin_cap_refuses_wide_gates_before_queueing() {
        let server = Server::new(ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        });
        let snapshot = |fanin: usize| {
            let mut netlist = Netlist::new(format!("wide{fanin}"));
            let inputs: Vec<_> = (0..fanin)
                .map(|pin| netlist.add_input(&format!("i{pin}")))
                .collect();
            let gate = netlist.add_gate(scanpower_netlist::GateKind::And, &inputs, "wide");
            let q = netlist.add_dff(gate.output, "q");
            netlist.mark_output(q);
            CircuitSource::Snapshot {
                bytes: netlist.to_wire_bytes(),
            }
        };
        let submit = |source: CircuitSource| {
            server.inner.handle(Request::SubmitJob(Box::new(JobSpec {
                circuits: vec![source],
                options: ExperimentOptions::fast(),
            })))
        };

        let Response::Error { message } = submit(snapshot(LEAKAGE_PIN_LIMIT + 1)) else {
            panic!("a gate over the fanin cap must be refused at submit");
        };
        let refusal = ExperimentError::ResourceLimit {
            circuit: "wide17".into(),
            resource: "fanin",
            limit: LEAKAGE_PIN_LIMIT,
            actual: LEAKAGE_PIN_LIMIT + 1,
        };
        assert_eq!(message, format!("circuit 0: {refusal}"));
        assert!(!server.run_pending_job(), "nothing was queued");

        assert!(matches!(
            submit(snapshot(LEAKAGE_PIN_LIMIT)),
            Response::JobAccepted { .. }
        ));
    }

    #[test]
    fn snapshot_and_family_submissions_produce_identical_rows() {
        let spec = CircuitFamily::iscas89_like("s27").unwrap();
        let snapshot = spec.generate(1).to_wire_bytes();
        let server = Server::new(ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        });
        let submit = |source: CircuitSource| {
            let Response::JobAccepted { job } =
                server.inner.handle(Request::SubmitJob(Box::new(JobSpec {
                    circuits: vec![source],
                    options: ExperimentOptions::fast(),
                })))
            else {
                panic!("submission refused");
            };
            assert!(server.run_pending_job());
            server.inner.handle(Request::PollJob(job))
        };
        let from_family = submit(CircuitSource::Family {
            spec,
            scale: None,
            seed: 1,
        });
        let from_snapshot = submit(CircuitSource::Snapshot { bytes: snapshot });
        let row = |response: &Response| match response {
            Response::RowReady { outcome, .. } => outcome.clone(),
            other => panic!("expected RowReady, got {other:?}"),
        };
        assert_eq!(row(&from_family), row(&from_snapshot));
    }

    /// The job table keeps the newest [`FINISHED_JOB_RETENTION`] finished
    /// jobs: the oldest polls `Unknown` once evicted, the newest `Done`.
    #[test]
    fn finished_jobs_beyond_the_retention_are_evicted() {
        let server = Server::new(ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        });
        let spec = JobSpec {
            circuits: vec![CircuitSource::Family {
                spec: CircuitFamily::iscas89_like("s27").unwrap(),
                scale: None,
                seed: 1,
            }],
            options: ExperimentOptions::fast(),
        };
        let mut ids = Vec::new();
        for _ in 0..FINISHED_JOB_RETENTION + 3 {
            let Response::JobAccepted { job } = server
                .inner
                .handle(Request::SubmitJob(Box::new(spec.clone())))
            else {
                panic!("submission refused");
            };
            assert!(server.run_pending_job());
            ids.push(job);
        }
        assert_eq!(
            server.inner.jobs.lock().unwrap().len(),
            FINISHED_JOB_RETENTION
        );
        assert_eq!(
            server.inner.finished.lock().unwrap().len(),
            FINISHED_JOB_RETENTION
        );
        let oldest = ids[0];
        assert_eq!(
            server.inner.handle(Request::PollJob(oldest)),
            Response::JobStatus {
                job: oldest,
                state: JobState::Unknown,
                completed: 0,
                total: 0,
            }
        );
        let newest = *ids.last().unwrap();
        // Drain the row and the terminal event, then the status snapshot.
        assert!(matches!(
            server.inner.handle(Request::PollJob(newest)),
            Response::RowReady { .. }
        ));
        assert!(matches!(
            server.inner.handle(Request::PollJob(newest)),
            Response::JobDone { rows: 1, .. }
        ));
        assert_eq!(
            server.inner.handle(Request::PollJob(newest)),
            Response::JobStatus {
                job: newest,
                state: JobState::Done,
                completed: 1,
                total: 1,
            }
        );
    }

    #[test]
    fn unknown_jobs_answer_unknown() {
        let server = Server::new(ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        });
        assert!(matches!(
            server.inner.handle(Request::PollJob(42)),
            Response::JobStatus {
                job: 42,
                state: JobState::Unknown,
                ..
            }
        ));
        assert!(matches!(
            server.inner.handle(Request::CancelJob(42)),
            Response::CancelAck {
                job: 42,
                state: JobState::Unknown,
            }
        ));
    }
}
