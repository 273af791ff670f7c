//! Correctness checks written independently of the program under test: a
//! Pareto filter, a hypervolume sweep, the fixed reference box behind
//! `hv_ref`, and direct re-evaluation through `SimEvaluator`.

use moat::core::{hypervolume, Evaluator, Point};
use moat::ir::{Region, Step};
use moat::{CostModel, MachineDesc, SimEvaluator};

/// A problem as the checks see it: the analyzed region, the cost model it
/// is measured on, and the fixed reference box of its hypervolume.
pub struct Reference {
    pub region: Region,
    model: CostModel,
    /// Index of the thread-count parameter of skeleton 0, if parallel.
    threads_param: Option<usize>,
    /// `(time_s, cpu_seconds)` corner of the box `hv_ref` is measured in.
    corner: (f64, f64),
}

impl Reference {
    /// `region` must already be analyzed. The box spans from the origin to
    /// the untiled serial baseline's time and that time spread over every
    /// core of the machine: each configuration faster than the baseline
    /// lies inside it.
    pub fn new(region: Region, model: CostModel, machine: &MachineDesc) -> Self {
        let baseline = moat::ir::Variant {
            nest: region.nest.clone(),
            threads: 1,
            unroll: 1,
            values: Vec::new(),
        };
        let t0 = model.measure(&region.arrays, &baseline).time_s;
        let threads_param = region.skeletons[0].steps.iter().find_map(|s| match s {
            Step::Parallelize { threads_param } => Some(*threads_param),
            _ => None,
        });
        Reference {
            region,
            model,
            threads_param,
            corner: (t0, t0 * machine.total_cores() as f64),
        }
    }

    pub fn evaluator(&self) -> SimEvaluator<'_> {
        SimEvaluator {
            region: &self.region,
            skeleton: &self.region.skeletons[0],
            model: &self.model,
        }
    }

    /// Hypervolume of `front` inside the reference box, normalized to 1.
    pub fn hv_ref(&self, front: &[Point]) -> f64 {
        hv_sweep(&self.normalize(front))
    }

    fn normalize(&self, front: &[Point]) -> Vec<(f64, f64)> {
        front
            .iter()
            .map(|p| {
                (
                    p.objectives[0] / self.corner.0,
                    p.objectives[1] / self.corner.1,
                )
            })
            .collect()
    }
}

/// The non-dominated objective vectors of `objs` (minimization, two
/// objectives), sorted ascending and free of duplicates: sort, then keep
/// each vector whose second objective beats everything before it.
pub fn pareto_filter(objs: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let mut sorted = objs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("objectives are finite"));
    let mut out: Vec<(f64, f64)> = Vec::new();
    for p in sorted {
        if out.last().is_none_or(|q| p.1 < q.1) {
            out.push(p);
        }
    }
    out
}

/// Area dominated by `pts` inside the unit box (points clamped into it).
pub fn hv_sweep(pts: &[(f64, f64)]) -> f64 {
    let clamped: Vec<(f64, f64)> = pts
        .iter()
        .map(|&(x, y)| (x.clamp(0.0, 1.0), y.clamp(0.0, 1.0)))
        .collect();
    let mut area = 0.0;
    let mut ceiling = 1.0;
    for (x, y) in pareto_filter(&clamped) {
        area += (1.0 - x) * (ceiling - y);
        ceiling = y;
    }
    area
}

fn objs(front: &[Point]) -> Vec<(f64, f64)> {
    front
        .iter()
        .map(|p| (p.objectives[0], p.objectives[1]))
        .collect()
}

/// A deliberate fault slipped into one operation's output by the
/// self-test, to show that the checks catch it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// Append a copy of a front point with both objectives worsened.
    Dominated,
    /// Scale one objective of one front point by 1 + 1e-9.
    Perturbed,
    /// Report one evaluation more than the budget allows.
    OverBudget,
}

impl Inject {
    /// Apply the fault to an operation's front and evaluation count.
    pub fn apply(self, front: &mut Vec<Point>, evals: &mut u64, budget: u64) {
        match self {
            Inject::Dominated => {
                let mut p = front[0].clone();
                p.objectives.iter_mut().for_each(|x| *x *= 1.5);
                front.push(p);
            }
            Inject::Perturbed => front[0].objectives[0] *= 1.0 + 1e-9,
            Inject::OverBudget => *evals = budget + 1,
        }
    }
}

/// Why an operation's output failed the checks.
#[derive(Debug)]
pub enum Fault {
    /// A front point's objectives differ from its direct evaluation.
    Misevaluated(String),
    /// Any other violation.
    Invalid(String),
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::Misevaluated(m) | Fault::Invalid(m) => f.write_str(m),
        }
    }
}

/// The checks every operation's output must pass, whatever the workload:
/// `E` within budget, a non-dominated front whose points re-evaluate
/// exactly through `SimEvaluator`, `cpu_seconds == threads × time_s`, and
/// the benchmark's hypervolume sweep agreeing with `moat_core::hypervolume`.
pub fn check_op(r: &Reference, front: &[Point], evals: u64, budget: u64) -> Result<(), Fault> {
    let invalid = |m: String| Err(Fault::Invalid(m));
    if evals > budget {
        return invalid(format!("E={evals} exceeds the budget {budget}"));
    }
    if front.is_empty() {
        return invalid("empty front".into());
    }
    let filtered = pareto_filter(&objs(front));
    let mut own = objs(front);
    own.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    if filtered != own {
        return invalid(format!(
            "front of {} points is not non-dominated ({} survive the filter)",
            own.len(),
            filtered.len()
        ));
    }
    let eval = r.evaluator();
    for p in front {
        let Some(direct) = eval.evaluate(&p.config) else {
            return invalid(format!("front config {:?} does not instantiate", p.config));
        };
        if direct != p.objectives {
            return Err(Fault::Misevaluated(format!(
                "config {:?}: front says {:?}, direct evaluation {:?}",
                p.config, p.objectives, direct
            )));
        }
        let threads = r.threads_param.map_or(1, |i| p.config[i]) as f64;
        if p.objectives[1] != threads * p.objectives[0] {
            return invalid(format!(
                "config {:?}: cpu_seconds {} != {} threads x {} s",
                p.config, p.objectives[1], threads, p.objectives[0]
            ));
        }
    }
    let normalized = r.normalize(front);
    let ours = hv_sweep(&normalized);
    let theirs = hypervolume(
        &normalized
            .iter()
            .map(|&(x, y)| vec![x, y])
            .collect::<Vec<_>>(),
    );
    if (ours - theirs).abs() > 1e-12 {
        return invalid(format!("hypervolume sweep {ours} != moat_core {theirs}"));
    }
    Ok(())
}

/// The front of a full sweep must equal the filter over every point of
/// the sweep, each evaluated directly.
pub fn check_full_sweep(
    r: &Reference,
    front: &[Point],
    configs: &[Vec<i64>],
) -> Result<(), String> {
    let eval = r.evaluator();
    let all: Vec<(f64, f64)> = configs
        .iter()
        .filter_map(|c| eval.evaluate(c))
        .map(|o| (o[0], o[1]))
        .collect();
    let mut own = objs(front);
    own.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    if pareto_filter(&all) != own {
        return Err(format!(
            "front of {} points differs from the filter over {} direct evaluations",
            own.len(),
            all.len()
        ));
    }
    Ok(())
}

/// Two fronts are the same list of (configuration, objectives) points.
pub fn same_front(a: &[Point], b: &[Point]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(p, q)| p.config == q.config && p.objectives == q.objectives)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_and_sweep_agree_with_moat() {
        let pts = [(0.2, 0.9), (0.5, 0.5), (0.4, 0.6), (0.6, 0.6), (0.9, 0.1)];
        assert_eq!(
            pareto_filter(&pts),
            vec![(0.2, 0.9), (0.4, 0.6), (0.5, 0.5), (0.9, 0.1)]
        );
        let theirs = hypervolume(&pts.iter().map(|&(x, y)| vec![x, y]).collect::<Vec<_>>());
        assert!((hv_sweep(&pts) - theirs).abs() < 1e-15);
    }
}
