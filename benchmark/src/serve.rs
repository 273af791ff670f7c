//! The `serve-jobs` workload: the real `moat-serve` daemon (the real
//! `TuneBackend`) driven over loopback HTTP by two closed-loop clients.
//!
//! A round starts a daemon on an empty state directory, runs a fixed plan
//! of submissions, and shuts it down. The plan is fixed per round, not the
//! duration, because the daemon rewrites its whole job table on every
//! transition and so slows as the table grows.

use crate::check::{self, Fault, Reference};
use crate::stats::{mix, now_s, peak_rss_mb, Layers, Outcome, RoundClock, SETUP_SAMPLES};
use crate::Args;
use moat::ir::{analyze, AnalyzerConfig};
use moat::serve::wire::{read_response, write_request};
use moat::serve::{JobState, JobStatus, Request, Response, SubmitResponse};
use moat::{ir_space, ArchiveKey, ArchiveRecord, CostModel, Kernel, MachineDesc, NoiseModel};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Closed-loop clients, each one thread: no more than the two cores here.
const CLIENTS: usize = 2;
const JOBS_PER_CLIENT: usize = 200;
/// Evaluation budget of every fresh job.
const BUDGET: u64 = 48;
/// A client lists `GET /jobs` after every this many of its jobs.
const LIST_EVERY: usize = 8;
const POLL_SLEEP: Duration = Duration::from_micros(500);
const KERNELS: [&str; 5] = ["mm", "dsyrk", "jacobi-2d", "3d-stencil", "n-body"];
const MACHINES: [&str; 2] = ["westmere", "barcelona"];
const STRATEGIES: [&str; 3] = ["rs-gde3", "random", "nsga2"];
/// Problem sizes per client; the clients' sizes are disjoint, so their
/// problems (archive keys) never meet and every job's kind and result are
/// independent of how the two interleave.
const SIZES_PER_CLIENT: usize = 14;
/// `mm` and `dsyrk` at this size, on Westmere, share one archive key. The
/// last four jobs of client 0 tune both cold and then resubmit `mm` warm,
/// so the daemon replays the merged record. Their inputs do not depend on
/// the seed, so the replay fails alike in every round of every run.
const COLLISION_SIZE: usize = 272;

/// A problem of the daemon's: (kernel, machine, size).
type Problem = (&'static str, &'static str, usize);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A spec never submitted before: a real tuning session.
    Fresh,
    /// A spec already submitted, from another tenant: served by its primary.
    Dedupe,
    /// A warm-start resubmission of a spec seen finished: replayed at E=0.
    Replay,
}

#[derive(Debug, Clone)]
struct Job {
    kind: Kind,
    tenant: String,
    kernel: &'static str,
    machine: &'static str,
    size: usize,
    strategy: &'static str,
    seed: u64,
    warm: bool,
    /// Plan index of the job doing the work (dedupe) or replayed (replay).
    of: Option<usize>,
    /// A replay of a problem whose archive key another problem tuned
    /// before it shares.
    merged: bool,
}

impl Job {
    fn body(&self) -> String {
        format!(
            "{{\"tenant\":\"{}\",\"kernel\":\"{}\",\"size\":{},\"machine\":\"{}\",\
             \"strategy\":\"{}\",\"budget\":{},\"seed\":{},\"warm_start\":{}}}",
            self.tenant,
            self.kernel,
            self.size,
            self.machine,
            self.strategy,
            BUDGET,
            self.seed,
            self.warm
        )
    }
}

fn key_of(kernel: &str, machine_name: &str, size: usize) -> Result<String, String> {
    let r = reference(kernel, machine_name, size)?;
    let sk = &r.region.skeletons[0];
    Ok(ArchiveKey::of(sk, &ir_space(sk), &machine(machine_name)).id())
}

/// The problems (kernel, machine, size) the seed picks fresh jobs from,
/// per client. The clients' sizes are disjoint. A problem whose archive
/// key another problem already has is left out: whether a replay then
/// meets the merged record would depend on the seed, and so would the
/// number of failed jobs. The collision is shown by the fixed jobs at
/// `COLLISION_SIZE` instead.
fn problems() -> Result<Vec<Vec<Problem>>, String> {
    let collision = key_of("mm", "westmere", COLLISION_SIZE)?;
    if key_of("dsyrk", "westmere", COLLISION_SIZE)? != collision {
        return Err("mm and dsyrk no longer share an archive key".into());
    }
    let mut keys = HashSet::from([collision]);
    let mut out = vec![Vec::new(); CLIENTS];
    for i in 0..SIZES_PER_CLIENT {
        for (client, list) in out.iter_mut().enumerate() {
            let size = 48 + 8 * (CLIENTS * i + client);
            // Rotate the kernel order, so that of two colliding kernels
            // each is kept at some sizes.
            for k in KERNELS.iter().cycle().skip(i).take(KERNELS.len()) {
                for m in MACHINES {
                    if keys.insert(key_of(k, m, size)?) {
                        list.push((*k, m, size));
                    }
                }
            }
        }
    }
    if out.iter().any(|p| p.len() < JOBS_PER_CLIENT / 2) {
        return Err("too few distinct problems for the fresh jobs".into());
    }
    Ok(out)
}

/// A client's seeded plan: half fresh tunes, a quarter duplicates from
/// other tenants, a quarter warm-start resubmissions, in a fixed cycle, so
/// that every seed has the same mix; the seed picks problems, strategies,
/// tenants and which earlier job is duplicated or resubmitted. Client 0's
/// last fresh jobs and last replay are the fixed `COLLISION_SIZE` ones.
fn plan(seed: u64, client: usize, mut problems: Vec<Problem>) -> Vec<Job> {
    let mut n = 0u64;
    let mut rng = |bound: usize| {
        n += 1;
        (mix(mix(seed, client as u64), n) % bound as u64) as usize
    };
    let mut jobs: Vec<Job> = Vec::new();
    for j in 0..JOBS_PER_CLIENT {
        let unreplayed: Vec<usize> = (0..jobs.len())
            .filter(|&f| jobs[f].kind == Kind::Fresh)
            .filter(|&f| {
                !jobs
                    .iter()
                    .any(|x| x.kind == Kind::Replay && x.of == Some(f))
            })
            .collect();
        let primaries: Vec<usize> = (0..jobs.len())
            .filter(|&i| jobs[i].kind != Kind::Dedupe)
            .collect();
        let collision = client == 0 && j >= JOBS_PER_CLIENT - 4;
        let job = if collision && j % 2 == 0 {
            Job {
                kind: Kind::Fresh,
                tenant: "c0-collision".into(),
                kernel: if j % 4 == 0 { "mm" } else { "dsyrk" },
                machine: "westmere",
                size: COLLISION_SIZE,
                strategy: "rs-gde3",
                seed: 1,
                warm: false,
                of: None,
                merged: false,
            }
        } else if collision && j % 4 == 3 {
            let f = JOBS_PER_CLIENT - 4;
            Job {
                kind: Kind::Replay,
                warm: true,
                of: Some(f),
                merged: true,
                ..jobs[f].clone()
            }
        } else if j % 2 == 0 {
            let (kernel, machine, size) = problems.swap_remove(rng(problems.len()));
            Job {
                kind: Kind::Fresh,
                tenant: format!("c{client}-t{}", rng(3)),
                kernel,
                machine,
                size,
                strategy: STRATEGIES[rng(STRATEGIES.len())],
                seed: mix(seed, (client * JOBS_PER_CLIENT + j) as u64) % 1_000_000,
                warm: false,
                of: None,
                merged: false,
            }
        } else if j % 4 == 3 {
            let f = unreplayed[rng(unreplayed.len())];
            Job {
                kind: Kind::Replay,
                warm: true,
                of: Some(f),
                ..jobs[f].clone()
            }
        } else {
            let p = primaries[rng(primaries.len())];
            Job {
                kind: Kind::Dedupe,
                tenant: format!("c{client}-d{j}"),
                of: Some(p),
                ..jobs[p].clone()
            }
        };
        jobs.push(job);
    }
    jobs
}

fn http(addr: &str, req: &Request) -> Result<Response, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_nodelay(true).ok();
    write_request(&mut s, req).map_err(|e| format!("{} {}: {e:?}", req.method, req.path))?;
    read_response(&mut s).map_err(|e| format!("{} {}: {e:?}", req.method, req.path))
}

fn get(addr: &str, path: &str) -> Result<Response, String> {
    let resp = http(addr, &Request::new("GET", path))?;
    if resp.status != 200 {
        return Err(format!("GET {path}: status {}", resp.status));
    }
    Ok(resp)
}

fn json<T: serde::Deserialize>(resp: &Response) -> Result<T, String> {
    let text = std::str::from_utf8(&resp.body).map_err(|e| e.to_string())?;
    serde_json::from_str(text).map_err(|e| format!("{e:?}: {text}"))
}

/// What a client saw for one job.
#[derive(Debug, Default, Clone)]
struct Seen {
    id: String,
    serves_as: String,
    deduped: bool,
    replayed: bool,
    evals: u64,
    key: String,
    result: Vec<u8>,
}

/// Client-side times of one round, seconds.
#[derive(Default)]
struct Times {
    ops: Vec<f64>,
    submits: Vec<f64>,
    status: (f64, f64),
    result: f64,
    list: (f64, f64),
    poll_wait: f64,
}

fn client(addr: &str, jobs: &[Job]) -> Result<(Vec<Seen>, Times), String> {
    let mut seen: Vec<Seen> = Vec::with_capacity(jobs.len());
    let mut t = Times::default();
    for (j, job) in jobs.iter().enumerate() {
        let op_t0 = Instant::now();
        let resp = http(addr, &Request::json("POST", "/jobs", job.body()))?;
        t.submits.push(op_t0.elapsed().as_secs_f64());
        if resp.status != 202 {
            return Err(format!("POST /jobs: status {}", resp.status));
        }
        let ack: SubmitResponse = json(&resp)?;
        let state: JobState = loop {
            let t0 = Instant::now();
            let state: JobState = json(&get(addr, &format!("/jobs/{}", ack.job))?)?;
            t.status.0 += t0.elapsed().as_secs_f64();
            t.status.1 += 1.0;
            match state.status {
                JobStatus::Done => break state,
                JobStatus::Failed => {
                    return Err(format!("job {} failed: {:?}", ack.job, state.error))
                }
                _ => {
                    let t0 = Instant::now();
                    std::thread::sleep(POLL_SLEEP);
                    t.poll_wait += t0.elapsed().as_secs_f64();
                }
            }
        };
        let t0 = Instant::now();
        let result = get(addr, &format!("/jobs/{}/result", ack.job))?.body;
        t.result += t0.elapsed().as_secs_f64();
        if (j + 1) % LIST_EVERY == 0 {
            let t0 = Instant::now();
            let list = get(addr, "/jobs")?;
            t.list.0 += t0.elapsed().as_secs_f64();
            t.list.1 += 1.0;
            let rows = list.body.windows(5).filter(|w| w == b"\"id\":").count();
            if rows < j + 1 {
                return Err(format!(
                    "GET /jobs lists {rows} jobs, this client alone sent {}",
                    j + 1
                ));
            }
        }
        t.ops.push(op_t0.elapsed().as_secs_f64());
        seen.push(Seen {
            id: ack.job,
            serves_as: ack.serves_as,
            deduped: ack.deduped,
            replayed: state.replayed,
            evals: state.evaluations,
            key: state.key.unwrap_or_default(),
            result,
        });
    }
    Ok((seen, t))
}

struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn start(bin: &Path, state: &Path, port_file: &Path, log: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(port_file);
        let log = std::fs::File::create(log).map_err(|e| e.to_string())?;
        let child = Command::new(bin)
            .args(["--listen", "127.0.0.1:0", "--workers", "2", "--slots", "2"])
            .args(["--session-width", "1", "--state"])
            .arg(state)
            .arg("--port-file")
            .arg(port_file)
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let mut d = Daemon {
            child,
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if d.addr.is_empty() {
                if let Ok(a) = std::fs::read_to_string(port_file) {
                    d.addr = a.trim().to_string();
                }
            }
            if !d.addr.is_empty() {
                if let Ok(r) = http(&d.addr, &Request::new("GET", "/readyz")) {
                    if r.status == 200 {
                        return Ok(d);
                    }
                }
            }
            if let Ok(Some(status)) = d.child.try_wait() {
                return Err(format!("moat-serve exited during start-up: {status}"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Err("moat-serve not ready after 20 s".into())
    }

    fn stop(mut self) -> Result<(), String> {
        let asked = http(&self.addr, &Request::new("POST", "/shutdown"));
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                asked?;
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("moat-serve exited with {status}"))
                };
            }
            if Instant::now() > deadline {
                let _ = self.child.kill();
                let _ = self.child.wait();
                return Err("moat-serve did not stop within 20 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Sum and count of one phase in the daemon's `serve_phase_seconds`.
fn phase(metrics: &str, name: &str) -> (f64, f64) {
    let read = |family: &str| {
        let prefix = format!("serve_phase_seconds_{family}{{phase=\"{name}\"}} ");
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(prefix.as_str()))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (read("sum"), read("count"))
}

fn wchar(pid: u32) -> Result<f64, String> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/io")).map_err(|e| e.to_string())?;
    text.lines()
        .find_map(|l| l.strip_prefix("wchar:"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .ok_or_else(|| "no wchar".into())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let plans: Vec<Vec<Job>> = problems()?
        .into_iter()
        .enumerate()
        .map(|(c, p)| plan(args.seed, c, p))
        .collect();
    let state = args.work.join("state");
    let port_file = args.work.join("port");
    let mut out = Outcome::default();
    let mut layers = Layers::default();
    let mut rounds: Vec<Vec<Vec<Seen>>> = Vec::new();
    let mut daemon_rss = Vec::new();
    let started = Instant::now();
    loop {
        let traced = args.trace && rounds.len().is_multiple_of(2);
        // Set-up is timed several times per round, on an empty state
        // directory each time; the last daemon serves the round.
        let mut started_daemon = None;
        for i in 0..SETUP_SAMPLES {
            if state.exists() {
                std::fs::remove_dir_all(&state).map_err(|e| e.to_string())?;
            }
            let t0 = now_s();
            let d = Daemon::start(
                &args.serve_bin,
                &state,
                &port_file,
                &args.work.join("serve.log"),
            )?;
            out.setup_s.push(now_s() - t0);
            if i + 1 < SETUP_SAMPLES {
                d.stop()?;
            } else {
                started_daemon = Some(d);
            }
        }
        let daemon = started_daemon.expect("SETUP_SAMPLES >= 1");
        let pid = daemon.child.id();

        let clock = RoundClock::start();
        let results: Vec<Result<(Vec<Seen>, Times), String>> = std::thread::scope(|s| {
            let handles: Vec<_> = plans
                .iter()
                .map(|p| {
                    let addr = daemon.addr.as_str();
                    s.spawn(move || client(addr, p))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let round_clock = clock.stop();
        let mut seen_round = Vec::new();
        let mut times = Vec::new();
        for r in results {
            let (seen, t) = r?;
            seen_round.push(seen);
            times.push(t);
        }
        let ops: usize = seen_round.iter().map(Vec::len).sum();
        let evals = seen_round
            .iter()
            .flatten()
            .filter(|s| !s.deduped)
            .map(|s| s.evals)
            .sum::<u64>();
        let op_walls: Vec<f64> = times.iter().flat_map(|t| t.ops.iter().copied()).collect();
        out.round(traced, ops, evals, round_clock, &op_walls);
        daemon_rss.push(peak_rss_mb(pid)?);
        for t in &times {
            if !traced {
                out.submits.extend(&t.submits);
            }
        }
        if traced {
            let metrics =
                String::from_utf8_lossy(&get(&daemon.addr, "/metrics")?.body).into_owned();
            for (name, sum_key, count_key) in [
                ("submit", "ph_submit_s", "ph_submit_n"),
                ("queue", "ph_queue_s", "ph_queue_n"),
                ("eval", "ph_eval_s", "ph_eval_n"),
                ("persist", "ph_persist_s", "ph_persist_n"),
            ] {
                let (sum, count) = phase(&metrics, name);
                layers.add(sum_key, sum);
                layers.add(count_key, count);
            }
            layers.add("wchar", wchar(pid)?);
            let table = std::fs::metadata(state.join("jobs.json")).map_err(|e| e.to_string())?;
            layers.add("table_kb", table.len() as f64 / 1024.0);
            for t in &times {
                layers.add("ops", t.ops.len() as f64);
                layers.add("op_s", t.ops.iter().sum());
                layers.add("submit_s", t.submits.iter().sum());
                layers.add("submit_n", t.submits.len() as f64);
                // The table grows through the round: first against last
                // quarter of a client's submissions shows what that costs.
                let q = t.submits.len() / 4;
                layers.add("submit_q1_s", t.submits[..q].iter().sum());
                layers.add("submit_q4_s", t.submits[t.submits.len() - q..].iter().sum());
                layers.add("submit_q_n", q as f64);
                layers.add("status_s", t.status.0);
                layers.add("status_n", t.status.1);
                layers.add("result_s", t.result);
                layers.add("list_s", t.list.0);
                layers.add("list_n", t.list.1);
                layers.add("poll_wait_s", t.poll_wait);
            }
            let all = seen_round.iter().flatten();
            layers.add(
                "dedupe_hits",
                all.clone().filter(|s| s.deduped).count() as f64,
            );
            layers.add(
                "replays",
                all.filter(|s| s.replayed && !s.deduped).count() as f64,
            );
            layers.add("rounds", 1.0);
        }
        daemon.stop()?;
        if traced {
            layers.add("calib_s", crate::stats::calibrate());
        }
        rounds.push(seen_round);
        if started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    std::fs::remove_dir_all(&state).map_err(|e| e.to_string())?;
    out.peak_rss_mb = crate::stats::median(&daemon_rss);

    let ops: usize = rounds.iter().flatten().map(Vec::len).sum();
    out.attempted = ops as u64;
    let mut refs = HashMap::new();
    match check_rounds(&plans, &mut rounds, args, &mut refs) {
        Ok(c) => {
            out.evals_per_op = c.evals as f64 / ops as f64;
            out.hv_ref = c.hv / (ops as u64 - c.failed) as f64;
            out.failed = c.failed;
        }
        Err(e) => out.error = Some(e),
    }
    out.layer_metrics = layer_metrics(&layers);
    out.layers = layers;
    Ok(out)
}

fn machine(name: &str) -> MachineDesc {
    match name {
        "westmere" => MachineDesc::westmere(),
        _ => MachineDesc::barcelona(),
    }
}

/// The problem as the daemon's `TuneBackend` sets it up.
fn reference(kernel: &str, machine_name: &str, size: usize) -> Result<Reference, String> {
    let kernel = match kernel {
        "mm" => Kernel::Mm,
        "dsyrk" => Kernel::Dsyrk,
        "jacobi-2d" => Kernel::Jacobi2d,
        "3d-stencil" => Kernel::Stencil3d,
        _ => Kernel::Nbody,
    };
    let machine = machine(machine_name);
    let acfg = AnalyzerConfig::for_threads((1..=machine.total_cores() as i64).collect());
    let region = analyze(kernel.region(size as i64), &acfg)?;
    let model = CostModel::with_noise(machine.clone(), NoiseModel::default());
    Ok(Reference::new(region, model, &machine))
}

fn sorted_front(bytes: &[u8]) -> Result<Vec<moat::core::Point>, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
    let mut front = ArchiveRecord::from_json(text)
        .map_err(|e| e.to_string())?
        .front;
    front.sort_by(|a, b| {
        a.objectives
            .partial_cmp(&b.objectives)
            .expect("finite")
            .then_with(|| a.config.cmp(&b.config))
    });
    Ok(front)
}

/// What the checks of a run found.
struct Checked {
    /// Distinct evaluations of all jobs.
    evals: u64,
    /// `hv_ref` summed over the jobs that did not fail.
    hv: f64,
    /// Replays of a merged record whose front is not their problem's.
    failed: u64,
}

/// Checks every job of every round against the plan and the first round.
fn check_rounds(
    plans: &[Vec<Job>],
    rounds: &mut [Vec<Vec<Seen>>],
    args: &Args,
    refs: &mut HashMap<Problem, Reference>,
) -> Result<Checked, String> {
    if let Some(inject) = args.inject {
        // The self-test's fault goes into the first fresh job's result.
        let seen = &mut rounds[0][0][0];
        let mut record =
            ArchiveRecord::from_json(std::str::from_utf8(&seen.result).map_err(|e| e.to_string())?)
                .map_err(|e| e.to_string())?;
        inject.apply(&mut record.front, &mut seen.evals, BUDGET);
        seen.result = record.to_json().into_bytes();
    }
    let mut out = Checked {
        evals: 0,
        hv: 0.0,
        failed: 0,
    };
    let mut checked: BTreeMap<Vec<u8>, f64> = BTreeMap::new();
    for (r, round) in rounds.iter().enumerate() {
        for (c, seen) in round.iter().enumerate() {
            let plan = &plans[c];
            for (j, (job, s)) in plan.iter().zip(seen).enumerate() {
                let what = format!("round {r} client {c} job {j} ({:?}, {})", job.kind, s.id);
                let first = &rounds[0][c][j];
                // The merged record is labelled with whichever kernel the
                // daemon's compactor folded first, which depends on timing;
                // its front does not.
                let same = s.evals == first.evals
                    && if job.merged {
                        check::same_front(&sorted_front(&s.result)?, &sorted_front(&first.result)?)
                    } else {
                        s.result == first.result
                    };
                if !same {
                    return Err(format!("{what}: differs from the first round"));
                }
                let key = (job.kernel, job.machine, job.size);
                let reference = match refs.entry(key) {
                    Entry::Occupied(e) => e.into_mut(),
                    Entry::Vacant(e) => e.insert(reference(job.kernel, job.machine, job.size)?),
                };
                if !s.deduped {
                    out.evals += s.evals;
                }
                match job.kind {
                    Kind::Fresh => {
                        if s.deduped || s.replayed || s.evals == 0 {
                            return Err(format!("{what}: not a fresh run"));
                        }
                        let sk = &reference.region.skeletons[0];
                        let key = ArchiveKey::of(sk, &ir_space(sk), &machine(job.machine)).id();
                        if s.key != key {
                            return Err(format!("{what}: archive key {}, expected {key}", s.key));
                        }
                    }
                    Kind::Replay => {
                        let cold = &seen[job.of.expect("replay of")];
                        if s.deduped || !s.replayed || s.evals != 0 {
                            return Err(format!("{what}: not a replay at E=0"));
                        }
                        let front = sorted_front(&s.result)?;
                        let archived = check::same_front(&front, &sorted_front(&cold.result)?);
                        if job.merged {
                            // The archive-key collision (see README.md): the
                            // replay serves the merged record of both kernels.
                            match check::check_op(reference, &front, s.evals, BUDGET) {
                                Err(Fault::Misevaluated(_)) => {}
                                Ok(()) if !archived => {}
                                Ok(()) => {
                                    return Err(format!(
                                        "{what}: the merged replay holds only its own front"
                                    ))
                                }
                                Err(e) => return Err(format!("{what}: {e}")),
                            }
                            out.failed += 1;
                            continue;
                        }
                        if !archived {
                            return Err(format!(
                                "{what}: replayed front differs from the archived one"
                            ));
                        }
                    }
                    Kind::Dedupe => {
                        let primary = &seen[job.of.expect("dedupe of")];
                        if !s.deduped || s.serves_as != primary.serves_as {
                            return Err(format!("{what}: not served by {}", primary.id));
                        }
                        if s.result != primary.result {
                            return Err(format!("{what}: result differs from its primary's"));
                        }
                    }
                }
                // A result is checked once; repeats reuse its hv_ref.
                if let Some(&h) = checked.get(&s.result) {
                    out.hv += h;
                    continue;
                }
                let front = sorted_front(&s.result)?;
                check::check_op(reference, &front, s.evals, BUDGET)
                    .map_err(|e| format!("{what}: {e}"))?;
                let h = reference.hv_ref(&front);
                checked.insert(s.result.clone(), h);
                out.hv += h;
            }
        }
    }
    Ok(out)
}

fn layer_metrics(l: &Layers) -> Vec<(&'static str, f64)> {
    let ms = |k: &str, per: &str| l.ratio(k, per) * 1e3;
    let attributed = ["submit_s", "status_s", "result_s", "list_s", "poll_wait_s"]
        .iter()
        .map(|k| l.get(k))
        .sum::<f64>();
    vec![
        ("serve.submit_ms", ms("submit_s", "submit_n")),
        ("serve.submit_q1_ms", ms("submit_q1_s", "submit_q_n")),
        ("serve.submit_q4_ms", ms("submit_q4_s", "submit_q_n")),
        ("serve.status_ms", ms("status_s", "status_n")),
        ("serve.result_ms", ms("result_s", "ops")),
        ("serve.list_ms", ms("list_s", "list_n")),
        ("serve.poll_wait_ms", ms("poll_wait_s", "ops")),
        ("serve.phase_submit_ms", ms("ph_submit_s", "ph_submit_n")),
        ("serve.phase_queue_ms", ms("ph_queue_s", "ph_queue_n")),
        ("serve.phase_eval_ms", ms("ph_eval_s", "ph_eval_n")),
        ("serve.phase_persist_ms", ms("ph_persist_s", "ph_persist_n")),
        ("serve.table_kb", l.ratio("table_kb", "rounds")),
        ("serve.write_kb_per_job", l.ratio("wchar", "ops") / 1024.0),
        ("serve.dedupe_hits", l.ratio("dedupe_hits", "rounds")),
        ("serve.replays", l.ratio("replays", "rounds")),
        (
            "unattributed_ms",
            (l.get("op_s") - attributed) / l.get("ops").max(1.0) * 1e3,
        ),
    ]
}
