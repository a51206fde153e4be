//! Output verification: every served forest is checked against the paper's
//! guarantee, and every response against the first copy of its key.

use corgi_core::{geoind, prune_matrix, LocationTree, ObfuscationMatrix, ObfuscationProblem};
use corgi_framework::messages::{MatrixRequest, PrivacyForestResponse};
use corgi_framework::ForestGenerator;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Slack on Geo-Ind constraints: the solver's repair gate accepts an LP
/// point once its worst constraint violation is at most 1e-7.
const GEOIND_TOLERANCE: f64 = 1e-7;
/// Slack on row sums.
const STOCHASTIC_TOLERANCE: f64 = 1e-6;
/// Seeded δ-subsets pruned from every subtree matrix of a key.
const PRUNE_TRIALS: usize = 3;
/// Largest share (in percent) of post-pruning Geo-Ind constraints a key may
/// violate: the bound `tests/end_to_end.rs` holds CORGI to.  Zero is not
/// attainable: Eq. 14 is an approximation, and on 7-leaf subtrees the
/// reserved budget can exceed what `effective_epsilon` admits.
const MAX_PRUNE_VIOLATION_PCT: f64 = 5.0;

fn same_bits(a: &PrivacyForestResponse, b: &PrivacyForestResponse) -> bool {
    a.request == b.request
        && a.epsilon.to_bits() == b.epsilon.to_bits()
        && a.entries.len() == b.entries.len()
        && a.entries.iter().zip(&b.entries).all(|(x, y)| {
            x.subtree_root == y.subtree_root
                && x.matrix.cells() == y.matrix.cells()
                && x.matrix.data().len() == y.matrix.data().len()
                && x.matrix
                    .data()
                    .iter()
                    .zip(y.matrix.data())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Distinct forests per `(privacy_level, δ)` key, in arrival order.
type Versions = HashMap<(u8, usize), Vec<Arc<PrivacyForestResponse>>>;

/// Every distinct forest served per key.
#[derive(Default)]
pub struct ResponseLog {
    versions: Mutex<Versions>,
    responses: AtomicU64,
    wrong_key: AtomicU64,
}

impl ResponseLog {
    /// Record one response to `request`.  The comparison against the stored
    /// copies runs outside the lock.
    pub fn record(&self, request: MatrixRequest, response: &Arc<PrivacyForestResponse>) {
        self.responses.fetch_add(1, Ordering::Relaxed);
        if response.request != request {
            self.wrong_key.fetch_add(1, Ordering::Relaxed);
        }
        let key = (request.privacy_level, request.delta);
        let known = self
            .versions
            .lock()
            .expect("a recording thread panicked")
            .get(&key)
            .cloned();
        if let Some(known) = &known {
            if known.iter().any(|copy| same_bits(copy, response)) {
                return;
            }
        }
        let mut versions = self.versions.lock().expect("a recording thread panicked");
        let entry = versions.entry(key).or_default();
        if !entry.iter().any(|copy| same_bits(copy, response)) {
            entry.push(Arc::clone(response));
        }
    }

    pub fn responses(&self) -> u64 {
        self.responses.load(Ordering::Relaxed)
    }

    /// Forests whose bits differ from the first copy of their key.
    pub fn extra_versions(&self) -> u64 {
        self.versions
            .lock()
            .expect("a recording thread panicked")
            .values()
            .map(|v| v.len() as u64 - 1)
            .sum()
    }
}

/// Outcome of a verification pass.
#[derive(Debug, Default)]
pub struct Verdict {
    pub keys: usize,
    pub forests: usize,
    pub responses: u64,
    pub extra_versions: u64,
    pub prune_checked: u64,
    pub prune_violated: u64,
    pub prune_worst_margin: f64,
    pub failures: Vec<String>,
}

impl Verdict {
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn prune_violation_pct(&self) -> f64 {
        if self.prune_checked == 0 {
            0.0
        } else {
            100.0 * self.prune_violated as f64 / self.prune_checked as f64
        }
    }

    pub fn summary(&self) -> String {
        format!(
            "verify: {} ({} keys, {} distinct forests, {} responses, {} re-solved versions; pruning: {:.4}% of {} Geo-Ind constraints violated, worst margin {:.3e})",
            if self.passed() { "passed" } else { "FAILED" },
            self.keys,
            self.forests,
            self.responses,
            self.extra_versions,
            self.prune_violation_pct(),
            self.prune_checked,
            self.prune_worst_margin,
        )
    }
}

/// Check every forest in `log`.
///
/// `allowed_versions` is how many re-solved copies the run may legitimately
/// have produced (cache misses after the first copy); forests of one solve
/// are always bit-identical, but two solves of one key differ in their last
/// bits because each seeds from a different warm-start history.
pub fn verify(
    log: &ResponseLog,
    generator: &ForestGenerator,
    tree: &LocationTree,
    allowed_versions: u64,
    seed: u64,
) -> Verdict {
    let mut verdict = Verdict {
        responses: log.responses(),
        extra_versions: log.extra_versions(),
        prune_worst_margin: f64::NEG_INFINITY,
        ..Verdict::default()
    };
    let wrong_key = log.wrong_key.load(Ordering::Relaxed);
    if wrong_key > 0 {
        verdict
            .failures
            .push(format!("{wrong_key} responses answered another key"));
    }
    if verdict.extra_versions > allowed_versions {
        verdict.failures.push(format!(
            "{} responses differ from the first copy of their key, but only {allowed_versions} re-solves happened",
            verdict.extra_versions
        ));
    }
    let versions: BTreeMap<(u8, usize), Vec<Arc<PrivacyForestResponse>>> = log
        .versions
        .lock()
        .expect("a recording thread panicked")
        .iter()
        .map(|(k, v)| (*k, v.clone()))
        .collect();
    if versions.is_empty() {
        verdict
            .failures
            .push("no response was recorded".to_string());
    }
    let mut problems: HashMap<u8, Vec<ObfuscationProblem>> = HashMap::new();
    for ((level, delta), forests) in &versions {
        verdict.keys += 1;
        let subtrees = match tree.privacy_forest(*level) {
            Ok(subtrees) => subtrees,
            Err(error) => {
                verdict.failures.push(format!("level {level}: {error}"));
                continue;
            }
        };
        let level_problems = problems.entry(*level).or_insert_with(|| {
            subtrees
                .iter()
                .map(|subtree| {
                    generator
                        .problem_for_subtree(subtree)
                        .expect("the served tree yields an LP per subtree")
                })
                .collect()
        });
        for forest in forests {
            verdict.forests += 1;
            let label = format!("key (level {level}, delta {delta})");
            if forest.entries.len() != subtrees.len() {
                verdict.failures.push(format!(
                    "{label}: {} entries for {} subtrees",
                    forest.entries.len(),
                    subtrees.len()
                ));
                continue;
            }
            let mut rng = StdRng::seed_from_u64(seed ^ ((*level as u64) << 32) ^ *delta as u64);
            for ((entry, subtree), problem) in forest
                .entries
                .iter()
                .zip(&subtrees)
                .zip(level_problems.iter())
            {
                if let Err(failure) = check_entry(
                    entry.subtree_root == subtree.root(),
                    &entry.matrix,
                    subtree.leaves(),
                    problem,
                ) {
                    verdict.failures.push(format!("{label}: {failure}"));
                    continue;
                }
                if *delta == 0 {
                    continue;
                }
                for _ in 0..PRUNE_TRIALS {
                    let mut cells = problem.cells().to_vec();
                    cells.shuffle(&mut rng);
                    match pruned_report(&entry.matrix, problem, &cells[..*delta]) {
                        Ok(report) => {
                            verdict.prune_checked += report.total_constraints as u64;
                            verdict.prune_violated += report.violated as u64;
                            verdict.prune_worst_margin =
                                verdict.prune_worst_margin.max(report.worst_margin);
                        }
                        Err(error) => verdict.failures.push(format!("{label}: pruning: {error}")),
                    }
                }
            }
        }
    }
    if verdict.prune_violation_pct() > MAX_PRUNE_VIOLATION_PCT {
        verdict.failures.push(format!(
            "after pruning, {:.3}% of Geo-Ind constraints are violated (limit {MAX_PRUNE_VIOLATION_PCT}%)",
            verdict.prune_violation_pct()
        ));
    }
    verdict
}

/// Shape, stochasticity and ε-Geo-Ind on the LP's own constraint set.
fn check_entry(
    root_matches: bool,
    matrix: &ObfuscationMatrix,
    leaves: &[corgi_hexgrid::CellId],
    problem: &ObfuscationProblem,
) -> Result<(), String> {
    if !root_matches {
        return Err("entry is not for its subtree".to_string());
    }
    if matrix.cells() != leaves {
        return Err("matrix cells differ from the subtree leaves".to_string());
    }
    if let Some(v) = matrix.data().iter().find(|v| v.is_nan() || **v < 0.0) {
        return Err(format!("negative or non-finite entry {v}"));
    }
    matrix
        .check_stochastic(STOCHASTIC_TOLERANCE)
        .map_err(|e| e.to_string())?;
    let report = geoind::check_pairs(
        matrix,
        problem.distances(),
        problem.epsilon(),
        GEOIND_TOLERANCE,
        problem.constrained_pairs(),
    );
    if !report.is_satisfied() {
        return Err(format!(
            "{} of {} Geo-Ind constraints violated (worst margin {:.3e})",
            report.violated, report.total_constraints, report.worst_margin
        ));
    }
    Ok(())
}

/// Prune `removed` and check Geo-Ind on the LP's constrained pairs whose
/// ends both survive (paper Eq. 14's robustness claim).
fn pruned_report(
    matrix: &ObfuscationMatrix,
    problem: &ObfuscationProblem,
    removed: &[corgi_hexgrid::CellId],
) -> Result<geoind::GeoIndReport, String> {
    let pruned = prune_matrix(matrix, removed).map_err(|e| e.to_string())?;
    let survivors: Vec<usize> = (0..problem.size())
        .filter(|&i| !removed.contains(&problem.cells()[i]))
        .collect();
    let mut position = vec![usize::MAX; problem.size()];
    for (new, &old) in survivors.iter().enumerate() {
        position[old] = new;
    }
    let distances: Vec<Vec<f64>> = survivors
        .iter()
        .map(|&i| {
            survivors
                .iter()
                .map(|&j| problem.distances()[i][j])
                .collect()
        })
        .collect();
    let pairs: Vec<(usize, usize)> = problem
        .constrained_pairs()
        .iter()
        .filter(|&&(i, j)| position[i] != usize::MAX && position[j] != usize::MAX)
        .map(|&(i, j)| (position[i], position[j]))
        .collect();
    Ok(geoind::check_pairs(
        &pruned,
        &distances,
        problem.epsilon(),
        GEOIND_TOLERANCE,
        &pairs,
    ))
}
