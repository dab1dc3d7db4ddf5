//! The `serve_mixed` workload: the job service over the in-process
//! transport, driven closed-loop by [`CLIENTS`] connections.
//!
//! Every job is the same three published circuits; jobs differ in the seed
//! of their test generation. Most jobs resubmit a seed from a pool warmed
//! during set-up, so the server answers them from its result cache; every
//! [`COLD_EVERY`]-th job uses a fresh seed, runs the
//! whole flow and inserts into the cache. A counting connection wrapper
//! sits between each client and the transport: it bounds how long a job
//! may take, counts frames and bytes, and records one span per
//! request/response round trip.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::io;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use scanpower_suite::cache::CacheStats;
use scanpower_suite::core::experiment::{
    run_table1_partial, CircuitRow, ExperimentOptions, Table1Report,
};
use scanpower_suite::netlist::generator::CircuitFamily;
use scanpower_suite::serve::protocol::{CircuitSource, JobSpec, Response, RowOutcome};
use scanpower_suite::serve::transport::{ChannelDuplex, LocalConnector, StreamConnection};
use scanpower_suite::serve::{Connection, LocalTransport, ServeClient, ServeConfig, Server};
use scanpower_suite::wire::{Wire, WireWriter};

use crate::report::{self, median, Metrics};
use crate::table::{self, TableWorkload, NETLIST_SEED};
use crate::trace::Tracer;
use crate::{Config, Outcome};

/// Server worker threads.
pub const WORKERS: usize = 1;
/// Client connections driving the closed loop. One, so that at most two
/// threads are busy at once (the worker, and the session thread that
/// generates a submitted job's netlists): with a second client both
/// sessions and the worker competed for two cores, and the median job time
/// followed the scheduler rather than the service.
pub const CLIENTS: usize = 1;
/// Warm seeds resubmitted by most jobs.
const POOL: usize = 6;
/// Every this many jobs uses a fresh (cold) seed: about 8% of all jobs.
const COLD_EVERY: u64 = 12;
/// A job not finished within this bound counts as failed.
const JOB_WAIT_BOUND: Duration = Duration::from_secs(60);
/// Set-ups per run (each starts a server and warms the pool).
const SETUP_REPEATS: usize = 3;
/// The circuits of every job.
const CIRCUITS: [&str; 3] = ["s344", "s382", "s444"];
/// Offset of the `RowOutcome` bytes in a `RowReady` frame: magic (4),
/// version (2), tag (1), job id (8), slot index (8).
const ROW_OUTCOME_OFFSET: usize = 23;

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Test-generation seed of pool entry `index`.
fn pool_seed(seed: u64, index: usize) -> u64 {
    splitmix(seed ^ splitmix(index as u64 + 1)) & 0xffff_ffff
}

/// Test-generation seed and coldness of client `client`'s `k`-th job. Cold
/// seeds sit above 2^32, so they never collide with the pool.
fn job_seed(seed: u64, client: usize, k: u64) -> (u64, bool) {
    let draw = splitmix(seed ^ splitmix(((client as u64) << 40 | k) + 0x1000));
    if (k + seed % COLD_EVERY).is_multiple_of(COLD_EVERY) {
        ((draw & 0xffff_ffff) | 1 << 32, true)
    } else {
        (pool_seed(seed, (draw % POOL as u64) as usize), false)
    }
}

fn job_options(job_seed: u64, tiny: bool) -> ExperimentOptions {
    let mut options = table::seeded(ExperimentOptions::fast(), job_seed);
    options.max_patterns = Some(if tiny { 8 } else { 32 });
    table::single_threaded(options)
}

fn job_scale(tiny: bool) -> Option<f64> {
    tiny.then_some(0.3)
}

fn families(tiny: bool) -> Vec<CircuitFamily> {
    CIRCUITS
        .iter()
        .map(|name| {
            let spec = CircuitFamily::iscas89_like(name).expect("Table I circuit");
            match job_scale(tiny) {
                Some(factor) => spec.scaled(factor),
                None => spec,
            }
        })
        .collect()
}

fn job_spec(job_seed: u64, tiny: bool) -> JobSpec {
    JobSpec {
        circuits: CIRCUITS
            .iter()
            .map(|name| CircuitSource::Family {
                spec: CircuitFamily::iscas89_like(name).expect("Table I circuit"),
                scale: job_scale(tiny),
                seed: NETLIST_SEED,
            })
            .collect(),
        options: job_options(job_seed, tiny),
    }
}

/// Per-connection counters and spans, shared between the client loop and
/// the connection wrapper (both on the client's thread).
struct ConnState {
    /// How long one job may take before the wrapper refuses to send.
    bound: Duration,
    deadline: Option<Instant>,
    tracer: Tracer,
    open_frame: Option<(u8, usize, Instant, crate::trace::SpanId)>,
    submit_ms: Vec<f64>,
    poll_ms: Vec<f64>,
    polls: u64,
    empty_polls: u64,
    busy: u64,
    request_bytes: u64,
    response_bytes: u64,
}

type Shared = Arc<Mutex<ConnState>>;

/// Opens a counted client connection with an untraced recorder.
fn connect(
    connector: &LocalConnector,
    origin: Instant,
    bound: Duration,
) -> io::Result<(ServeClient<Counting>, Shared)> {
    let state = Arc::new(Mutex::new(ConnState {
        bound,
        deadline: None,
        tracer: Tracer::new(false, origin),
        open_frame: None,
        submit_ms: Vec::new(),
        poll_ms: Vec::new(),
        polls: 0,
        empty_polls: 0,
        busy: 0,
        request_bytes: 0,
        response_bytes: 0,
    }));
    let conn = Counting {
        inner: connector.connect()?,
        state: Arc::clone(&state),
    };
    Ok((ServeClient::new(conn), state))
}

fn lock(state: &Shared) -> MutexGuard<'_, ConnState> {
    state.lock().expect("connection state poisoned")
}

/// The counting wrapper around one client connection.
struct Counting {
    inner: StreamConnection<ChannelDuplex>,
    state: Shared,
}

/// Request tags (the byte after the envelope's magic and version).
const SUBMIT: u8 = 1;
const POLL: u8 = 2;
/// Response tags.
const BUSY: u8 = 2;
const JOB_STATUS: u8 = 6;

fn frame_tag(frame: &[u8]) -> u8 {
    frame.get(6).copied().unwrap_or(0)
}

impl Connection for Counting {
    fn send_frame(&mut self, frame: &[u8]) -> io::Result<()> {
        {
            let mut state = lock(&self.state);
            if state
                .deadline
                .is_some_and(|deadline| Instant::now() > deadline)
            {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "job exceeded the client's wait bound",
                ));
            }
            let tag = frame_tag(frame);
            let name = if tag == SUBMIT {
                "SubmitJob"
            } else {
                "PollJob"
            };
            let span = state.tracer.begin("server", name, "");
            state.open_frame = Some((tag, frame.len(), Instant::now(), span));
        }
        self.inner.send_frame(frame)
    }

    fn recv_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        let received = self.inner.recv_frame()?;
        let mut state = lock(&self.state);
        if let (Some(frame), Some((tag, sent_len, sent, span))) =
            (&received, state.open_frame.take())
        {
            state.tracer.end(span);
            let round_trip_ms = sent.elapsed().as_secs_f64() * 1e3;
            let response = frame_tag(frame);
            let useful = match tag {
                SUBMIT => {
                    state.submit_ms.push(round_trip_ms);
                    true
                }
                POLL => {
                    state.polls += 1;
                    state.poll_ms.push(round_trip_ms);
                    response != JOB_STATUS
                }
                _ => true,
            };
            if response == JOB_STATUS {
                state.empty_polls += 1;
            }
            if response == BUSY {
                state.busy += 1;
            }
            // Empty polls are left out so the byte counts depend only on
            // the jobs, not on how often the client had to wait.
            if useful {
                state.request_bytes += sent_len as u64;
                state.response_bytes += frame.len() as u64;
            }
        }
        Ok(received)
    }
}

/// One finished (or failed) job.
struct JobRecord {
    seed: u64,
    cold: bool,
    latency_ms: f64,
    /// `RowOutcome` bytes of each `RowReady`, in slot order.
    payloads: Vec<Vec<u8>>,
    error: Option<String>,
}

/// A running server with its listener and client connections.
struct Rig {
    server: Server,
    connector: LocalConnector,
    listener: JoinHandle<()>,
    clients: Vec<(ServeClient<Counting>, Shared)>,
}

impl Rig {
    fn start(trace_origin: Instant) -> io::Result<Rig> {
        let server = Server::new(ServeConfig {
            workers: WORKERS,
            ..ServeConfig::default()
        });
        let (transport, connector) = LocalTransport::new();
        let listener = server.spawn_listener(transport);
        let clients = (0..CLIENTS)
            .map(|_| connect(&connector, trace_origin, JOB_WAIT_BOUND))
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Rig {
            server,
            connector,
            listener,
            clients,
        })
    }

    /// Closes every connection and waits for the listener and its
    /// sessions. The server itself is left to end with the process instead
    /// of being shut down: `Server::shutdown` stores its stop flag and
    /// notifies the queue's condition variable without holding the queue
    /// lock, so a worker caught between its flag check and its wait misses
    /// the wake-up and the join never returns. Every job has been drained
    /// by then, so the worker is idle.
    fn stop(self) {
        let Rig {
            server,
            connector,
            listener,
            clients,
        } = self;
        drop(clients);
        drop(connector);
        let _ = listener.join();
        std::mem::forget(server);
    }
}

/// Submits and drains one job through `client`.
fn run_job(
    client: &mut ServeClient<Counting>,
    state: &Shared,
    job_seed: u64,
    cold: bool,
    tiny: bool,
) -> JobRecord {
    let spec = job_spec(job_seed, tiny);
    let subject = format!("seed {job_seed}");
    {
        let mut s = lock(state);
        s.deadline = Some(Instant::now() + s.bound);
    }
    let job_span = lock(state).tracer.begin("harness", "job", &subject);
    let start = Instant::now();
    let submit_span = lock(state)
        .tracer
        .begin("client", "ServeClient::submit", &subject);
    let submitted = client.submit(&spec);
    lock(state).tracer.end(submit_span);
    let mut record = JobRecord {
        seed: job_seed,
        cold,
        latency_ms: 0.0,
        payloads: Vec::new(),
        error: None,
    };
    match submitted {
        Ok(Response::JobAccepted { job }) => {
            let drain_span = lock(state)
                .tracer
                .begin("client", "ServeClient::drain_job", &subject);
            let drained = client.drain_job(job);
            lock(state).tracer.end(drain_span);
            match drained {
                Ok(drained) => {
                    record.latency_ms = start.elapsed().as_secs_f64() * 1e3;
                    record.payloads = drained
                        .rows
                        .iter()
                        .map(|event| {
                            event
                                .frame
                                .get(ROW_OUTCOME_OFFSET..)
                                .unwrap_or_default()
                                .to_vec()
                        })
                        .collect();
                    match drained.end {
                        Response::JobDone {
                            failures: 0, rows, ..
                        } if rows == CIRCUITS.len() => {}
                        other => record.error = Some(format!("job {job} ended with {other:?}")),
                    }
                }
                Err(error) => record.error = Some(format!("job {job}: {error}")),
            }
        }
        Ok(refused) => record.error = Some(format!("submission refused: {refused:?}")),
        Err(error) => record.error = Some(format!("submission failed: {error}")),
    }
    let mut s = lock(state);
    s.tracer.end(job_span);
    s.deadline = None;
    record
}

/// Set-up: start a server and warm the pool through it.
fn set_up(config: &Config, origin: Instant) -> Result<Rig, String> {
    let mut rig = Rig::start(origin).map_err(|error| format!("server start: {error}"))?;
    let (client, state) = &mut rig.clients[0];
    for index in 0..POOL {
        let record = run_job(
            client,
            state,
            pool_seed(config.seed, index),
            true,
            config.tiny,
        );
        if let Some(error) = record.error {
            rig.stop();
            return Err(format!("warming the pool: {error}"));
        }
    }
    Ok(rig)
}

/// What one closed-loop phase produced.
struct Phase {
    records: Vec<JobRecord>,
    seconds: f64,
    cache_before: CacheStats,
    cache_after: CacheStats,
}

/// Runs every client closed-loop for `length`; job indices continue from
/// `first_job` so two phases of one run never repeat a job.
fn run_phase(
    rig: &mut Rig,
    config: &Config,
    length: Duration,
    first_job: u64,
    traced: bool,
) -> Phase {
    let cache_before = rig.server.cache().stats();
    let origin = Instant::now();
    for (_, state) in &rig.clients {
        lock(state).tracer = Tracer::new(traced, origin);
    }
    let start = Instant::now();
    let records = std::thread::scope(|scope| {
        let handles: Vec<_> = rig
            .clients
            .iter_mut()
            .enumerate()
            .map(|(index, (client, state))| {
                scope.spawn(move || {
                    let mut records = Vec::new();
                    let mut k = first_job;
                    while records.is_empty() || start.elapsed() < length {
                        let (seed, cold) = job_seed(config.seed, index, k);
                        records.push(run_job(client, state, seed, cold, config.tiny));
                        k += 1;
                    }
                    records
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    Phase {
        records,
        seconds: start.elapsed().as_secs_f64(),
        cache_before,
        cache_after: rig.server.cache().stats(),
    }
}

fn reset_counters(rig: &Rig) {
    for (_, state) in &rig.clients {
        let mut s = lock(state);
        s.submit_ms.clear();
        s.poll_ms.clear();
        s.polls = 0;
        s.empty_polls = 0;
        s.busy = 0;
        s.request_bytes = 0;
        s.response_bytes = 0;
    }
}

fn latencies(records: &[JobRecord]) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.error.is_none())
        .map(|r| r.latency_ms)
        .collect()
}

/// The in-process rows of the job at `job_seed`, straight from the
/// library's harness with no cache.
fn reference_rows(job_seed: u64, tiny: bool) -> Result<Vec<CircuitRow>, String> {
    run_table1_partial(
        &families(tiny),
        &job_options(job_seed, tiny),
        None,
        NETLIST_SEED,
    )
    .into_report()
    .map(|report| report.rows)
    .map_err(|error| format!("in-process reference at seed {job_seed}: {error}"))
}

fn outcome_bytes(row: &CircuitRow) -> Vec<u8> {
    let mut writer = WireWriter::new();
    RowOutcome::Row(row.clone()).encode_into(&mut writer);
    writer.into_bytes()
}

/// In-process reference rows by job seed, computed once per seed.
type References = BTreeMap<u64, Vec<CircuitRow>>;

/// The gate: every served row byte-identical to the in-process row.
fn check_records(
    outcome: &mut Outcome,
    references: &mut References,
    records: &[JobRecord],
    tiny: bool,
) {
    for record in records {
        outcome.attempted += 1;
        if let Some(error) = &record.error {
            outcome.failed += 1;
            outcome.fail(error.clone());
            continue;
        }
        let rows = match references.entry(record.seed) {
            Entry::Occupied(entry) => entry.into_mut(),
            Entry::Vacant(entry) => match reference_rows(record.seed, tiny) {
                Ok(rows) => entry.insert(rows),
                Err(error) => {
                    outcome.failed += 1;
                    outcome.fail(error);
                    continue;
                }
            },
        };
        let expected: Vec<Vec<u8>> = rows.iter().map(outcome_bytes).collect();
        if record.payloads != expected {
            outcome.failed += 1;
            outcome.fail(format!(
                "seed {}: RowReady payloads differ from the in-process rows",
                record.seed
            ));
        }
    }
}

/// Runs `serve_mixed`.
#[must_use]
pub fn run(config: &Config) -> Outcome {
    let mut outcome = Outcome::default();
    let origin = Instant::now();
    let mut setup_times = Vec::new();
    let mut rig = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = rig.take() {
            Rig::stop(previous);
        }
        let start = Instant::now();
        match set_up(config, origin) {
            Ok(started) => rig = Some(started),
            Err(error) => {
                outcome.fail(error);
                return outcome;
            }
        }
        setup_times.push(start.elapsed().as_secs_f64());
    }
    let mut rig = rig.expect("at least one set-up");
    outcome.metrics.insert("setup_s", median(&setup_times));
    outcome.note_str("setup_times_s", &format!("{setup_times:?}"));
    reset_counters(&rig);

    let length = Duration::from_secs(config.seconds);
    if config.trace {
        let half = length / 2;
        let plain = run_phase(&mut rig, config, half, 0, false);
        reset_counters(&rig);
        let traced = run_phase(&mut rig, config, half, 1 << 20, true);
        let m = &mut outcome.metrics;
        m.insert(
            "trace.table_s_untraced",
            median(&latencies(&plain.records)) / 1e3,
        );
        m.insert(
            "trace.table_s_traced",
            median(&latencies(&traced.records)) / 1e3,
        );
        m.insert(
            "trace.overhead_ratio",
            median(&latencies(&traced.records)) / median(&latencies(&plain.records)),
        );
        serve_metrics(&mut outcome, &rig, &traced);
        rig.stop();
        let mut references = References::new();
        check_records(&mut outcome, &mut references, &plain.records, config.tiny);
        check_records(&mut outcome, &mut references, &traced.records, config.tiny);
        // The cold path of one job, composed stage by stage in-process.
        let first = pool_seed(config.seed, 0);
        let job = TableWorkload {
            name: "serve_mixed",
            circuits: families(config.tiny),
            options: job_options(first, config.tiny),
            netlist_seed: NETLIST_SEED,
            given_patterns: None,
        };
        let expected = match references.get(&first) {
            Some(rows) => Ok(rows.clone()),
            None => reference_rows(first, config.tiny),
        };
        match (table::staged_job_metrics(&job, &mut outcome), expected) {
            (Ok(staged), Ok(expected)) => {
                if let Err(message) =
                    crate::gate::check_same_columns("traced composition", &expected, &staged)
                {
                    outcome.fail(message);
                }
            }
            (Err(error), _) | (_, Err(error)) => outcome.fail(error),
        }
        return outcome;
    }

    let phase = run_phase(&mut rig, config, length, 0, false);
    outcome.metrics.insert("peak_rss_mb", report::peak_rss_mb());
    rig.stop();
    let done = latencies(&phase.records);
    outcome.record_latencies(&done);
    outcome.metrics.insert("table_s", median(&done) / 1e3);
    outcome
        .metrics
        .insert("jobs_per_s", done.len() as f64 / phase.seconds);
    let cold = phase.records.iter().filter(|r| r.cold).count();
    outcome.note_num("jobs", phase.records.len() as f64);
    outcome.note_num("cold_jobs", cold as f64);
    let mut sorted = done.clone();
    sorted.sort_by(f64::total_cmp);
    let deciles: Vec<String> = (1..10)
        .filter_map(|d| sorted.get(sorted.len() * d / 10))
        .map(|ms| format!("{ms:.2}"))
        .collect();
    outcome.note_str("latency_deciles_ms", &deciles.join(" "));
    let mut references = References::new();
    check_records(&mut outcome, &mut references, &phase.records, config.tiny);
    // The reproduction's answer on this workload: the warm pool's rows.
    let mut pool_rows = Vec::new();
    for index in 0..POOL {
        let seed = pool_seed(config.seed, index);
        match references
            .get(&seed)
            .cloned()
            .map_or_else(|| reference_rows(seed, config.tiny), Ok)
        {
            Ok(rows) => pool_rows.extend(rows),
            Err(error) => outcome.fail(error),
        }
    }
    let report = Table1Report { rows: pool_rows };
    outcome.metrics.insert(
        "avg_dynamic_reduction_pct",
        report.average_dynamic_improvement(),
    );
    outcome.metrics.insert(
        "avg_static_reduction_pct",
        report.average_static_improvement(),
    );
    outcome
}

/// Per-layer metrics of the traced phase: client and wire counters, cache
/// counters, round-trip times, and self time by layer.
fn serve_metrics(outcome: &mut Outcome, rig: &Rig, phase: &Phase) {
    let jobs = phase.records.len().max(1) as f64;
    let mut submit_ms = Vec::new();
    let mut poll_ms = Vec::new();
    let (mut polls, mut empty, mut busy, mut request, mut response) = (0, 0, 0, 0, 0);
    let mut spans = Vec::new();
    for (thread, (_, state)) in rig.clients.iter().enumerate() {
        let mut s = lock(state);
        submit_ms.extend_from_slice(&s.submit_ms);
        poll_ms.extend_from_slice(&s.poll_ms);
        polls += s.polls;
        empty += s.empty_polls;
        busy += s.busy;
        request += s.request_bytes;
        response += s.response_bytes;
        let taken = s.tracer.take();
        // Parent indices are per thread; shift them into the merged list.
        let base = spans.len();
        spans.extend(taken.iter().cloned().map(|mut span| {
            span.parent = span.parent.map(|parent| parent + base);
            span
        }));
        drop(s);
        outcome.keep_spans(thread, taken);
    }
    let m: &mut Metrics = &mut outcome.metrics;
    m.insert("serve.submit_ms", median(&submit_ms));
    m.insert("serve.poll_ms", median(&poll_ms));
    m.insert("serve.polls_per_job", polls as f64 / jobs);
    m.insert("serve.empty_polls_per_job", empty as f64 / jobs);
    m.insert("serve.busy_refusals", busy as f64);
    m.insert("wire.request_bytes_per_job", request as f64 / jobs);
    m.insert("wire.response_bytes_per_job", response as f64 / jobs);
    let (before, after) = (phase.cache_before, phase.cache_after);
    let hits = (after.hits + after.disk_hits) - (before.hits + before.disk_hits);
    let misses = after.misses - before.misses;
    m.insert("cache.hits", hits as f64);
    m.insert("cache.misses", misses as f64);
    m.insert(
        "cache.insertions",
        (after.insertions - before.insertions) as f64,
    );
    m.insert(
        "cache.evictions",
        (after.evictions - before.evictions) as f64,
    );
    m.insert("cache.bytes", after.bytes as f64);
    if hits + misses > 0 {
        m.insert("cache.hit_ratio", hits as f64 / (hits + misses) as f64);
    }
    crate::layer_shares(m, &spans);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_job_past_the_wait_bound_fails_instead_of_hanging() {
        // No workers: an admitted job never finishes.
        let mut server = Server::new(ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        });
        let (transport, connector) = LocalTransport::new();
        let listener = server.spawn_listener(transport);
        let (mut client, state) =
            connect(&connector, Instant::now(), Duration::from_millis(50)).expect("connect");
        let record = run_job(&mut client, &state, 1, false, true);
        let error = record.error.expect("an unfinished job counts as failed");
        assert!(error.contains("wait bound"), "{error}");
        drop(client);
        drop(connector);
        listener.join().expect("listener");
        server.shutdown();
    }
}
