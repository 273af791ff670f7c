//! Timing helpers, the per-run accumulator, and host readings.

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// Seconds since the first call: one monotonic clock for the whole run.
pub fn now_s() -> f64 {
    static T0: OnceLock<Instant> = OnceLock::new();
    T0.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// CPU time the hypervisor has withheld from this machine's CPUs while they
/// had work to run (`steal`, summed over the CPUs, in /proc/stat), seconds
/// since boot; 0 where the kernel does not report it.
pub fn host_steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s.lines().next()?.to_owned();
            cpu.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        // USER_HZ, the unit of /proc/stat, is 100 on Linux.
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// The wall time and stolen time of a round.
pub struct RoundClock {
    wall0: f64,
    steal0: f64,
}

impl RoundClock {
    pub fn start() -> Self {
        RoundClock {
            steal0: host_steal_s(),
            wall0: now_s(),
        }
    }

    /// Wall seconds since the start, and the seconds stolen in them.
    pub fn stop(&self) -> (f64, f64) {
        let wall = now_s() - self.wall0;
        (wall, host_steal_s() - self.steal0)
    }
}

/// Successive intervals of one operation's layer calls.
pub struct Timer(Instant);

impl Timer {
    pub fn start() -> Self {
        Timer(Instant::now())
    }

    /// Seconds since the previous lap (or the start).
    pub fn lap(&mut self) -> f64 {
        let now = Instant::now();
        let dt = (now - self.0).as_secs_f64();
        self.0 = now;
        dt
    }
}

/// SplitMix64 of `seed` and `i`: the per-item seeds of a workload.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E3779B97F4A7C15u64.wrapping_mul(i + 1))
        .wrapping_add(0x5EED);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Named sums of layer readings over the traced operations of a run.
#[derive(Default, Debug, Clone)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.0.entry(key).or_insert(0.0) += v;
    }
    pub fn merge(&mut self, other: &Layers) {
        for (k, v) in &other.0 {
            self.add(k, *v);
        }
    }
    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }
    /// `key` summed, divided by `per` summed (0 when `per` is 0).
    pub fn ratio(&self, key: &str, per: &str) -> f64 {
        let d = self.get(per);
        if d == 0.0 {
            0.0
        } else {
            self.get(key) / d
        }
    }
}

/// Set-ups timed per round; `setup_s` is their median over the run.
pub const SETUP_SAMPLES: usize = 10;

/// Everything one run measured, before it becomes metrics.
#[derive(Default, Debug)]
pub struct Outcome {
    /// The first failed output check, if any.
    pub error: Option<String>,
    pub attempted: u64,
    pub failed: u64,
    /// One reading per set-up (one per round).
    pub setup_s: Vec<f64>,
    /// Operation times of untraced and traced rounds, on the run clock
    /// (see `Outcome::round`).
    pub ops: [Vec<f64>; 2],
    /// Operations, distinct evaluations and run-clock seconds of each
    /// untraced and each traced round.
    pub rounds: [Vec<(u64, u64, f64)>; 2],
    /// The workload runs one operation at a time, the same ones in the same
    /// order every round (the tuning workloads).
    pub sequential: bool,
    /// Sequential workloads: each untraced and traced round's operation
    /// times, in the order of the round.
    pub plan_rounds: [Vec<Vec<f64>>; 2],
    /// Wall and stolen seconds, summed over all rounds.
    pub wall_s: f64,
    pub steal_s: f64,
    /// Distinct evaluations per operation, all rounds.
    pub evals_per_op: f64,
    pub hv_ref: f64,
    pub peak_rss_mb: f64,
    /// Submission round trips (serve-jobs only), untraced rounds.
    pub submits: Vec<f64>,
    pub layers: Layers,
    /// Per-layer metrics the workload computed itself.
    pub layer_metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Records a round: its operations, evaluations, wall and stolen
    /// seconds (from `RoundClock`) and the wall time of each operation.
    ///
    /// Every rate and latency is read on the run clock: wall time less the
    /// time the hypervisor withheld the CPUs. A round loses wall time to
    /// every stolen second on either CPU, so its time is its wall time less
    /// the time stolen, at least half its wall time, and each operation's
    /// time is scaled by the same factor. On a machine nobody steals from,
    /// the run clock is the wall clock.
    pub fn round(
        &mut self,
        traced: bool,
        ops: usize,
        evals: u64,
        (wall, steal): (f64, f64),
        op_walls: &[f64],
    ) {
        let active = (wall - steal).max(wall / 2.0);
        let scale = active / wall;
        let times: Vec<f64> = op_walls.iter().map(|w| w * scale).collect();
        self.ops[traced as usize].extend(&times);
        if self.sequential {
            self.plan_rounds[traced as usize].push(times);
        }
        self.rounds[traced as usize].push((ops as u64, evals, active));
        self.wall_s += wall;
        self.steal_s += steal;
    }

    /// Sequential workloads: each operation of a round, its median time
    /// over the untraced (or traced) rounds. A slow stretch of the host
    /// then moves only the operations it fell on, in only some rounds.
    fn typical_ops(&self, traced: bool) -> Vec<f64> {
        let rounds = &self.plan_rounds[traced as usize];
        let n = rounds.first().map_or(0, Vec::len);
        (0..n)
            .map(|i| median(&rounds.iter().map(|r| r[i]).collect::<Vec<_>>()))
            .collect()
    }

    /// Seconds of a typical round: sequential workloads sum their typical
    /// operation times, the others take the median round.
    fn round_s(&self, traced: bool) -> f64 {
        if self.sequential {
            self.typical_ops(traced).iter().sum()
        } else {
            median(
                &self.rounds[traced as usize]
                    .iter()
                    .map(|r| r.2)
                    .collect::<Vec<_>>(),
            )
        }
    }

    /// The median of (operations, evaluations) over untraced (or traced)
    /// rounds, per second of a typical round (0 without such rounds).
    fn per_s(&self, traced: bool, of: fn(&(u64, u64, f64)) -> u64) -> f64 {
        let rounds = &self.rounds[traced as usize];
        if rounds.is_empty() {
            return 0.0;
        }
        median(&rounds.iter().map(|r| of(r) as f64).collect::<Vec<_>>()) / self.round_s(traced)
    }

    /// Operations per second of a typical untraced (or traced) round.
    pub fn ops_per_s(&self, traced: bool) -> f64 {
        self.per_s(traced, |r| r.0)
    }

    /// Distinct evaluations per second of a typical untraced round.
    pub fn evals_per_s(&self) -> f64 {
        self.per_s(false, |r| r.1)
    }

    /// Median time of an operation: of the typical operation times for
    /// sequential workloads, of all untraced operations for the others.
    pub fn op_p50_s(&self) -> f64 {
        if self.sequential {
            median(&self.typical_ops(false))
        } else {
            median(&self.ops[0])
        }
    }
}

/// Nearest-rank quantile `q` of `xs` (which need not be sorted).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A fixed compute loop in the benchmark's own code; its time shows how
/// fast the host is running right now. Seconds.
pub fn calibrate() -> f64 {
    let t = Instant::now();
    let mut x = std::hint::black_box(0x1234_5678u64);
    let mut acc = 0.0f64;
    for _ in 0..2_000_000 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        acc += (x >> 40) as f64 * 1e-9;
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}

/// Peak resident memory (`VmHWM`) of process `pid`, MiB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM"))
}
