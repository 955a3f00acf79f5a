//! The paper's scenario grid (§4.2, Figures 5–10).
//!
//! Four scenarios per figure — (a) update-only, (b) 25 % update / 75 %
//! lookup, (c) mixed with short scans, (d) mixed with long scans — each
//! run with simple put/remove, 10-op batches and 100-op batches (batched
//! runs in both *sequential* and *random* flavours), over two key/value
//! shapes and two key distributions. Scenario names mirror the paper's
//! plot identifiers (`plot_20M_10M_u_0.5_0.25_200_..._b100`).

use crate::keys::KeyDist;

/// What a benchmark thread does (threads have fixed roles, §4.2: "each
/// microbenchmark thread issues only one type of operations").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// put/remove (50/50) or batch updates, depending on [`BatchMode`].
    Update,
    /// `get` lookups.
    Lookup,
    /// Range scans of `scan_len` entries from a random start key.
    Scan,
}

/// Fraction of threads per role.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ThreadMix {
    pub update: f64,
    pub lookup: f64,
    pub scan: f64,
}

impl ThreadMix {
    pub const UPDATE_ONLY: ThreadMix = ThreadMix { update: 1.0, lookup: 0.0, scan: 0.0 };
    pub const UPDATE_LOOKUP: ThreadMix = ThreadMix { update: 0.25, lookup: 0.75, scan: 0.0 };
    pub const MIXED: ThreadMix = ThreadMix { update: 0.25, lookup: 0.5, scan: 0.25 };

    /// Assign a role to each of `n` threads (updaters first, then
    /// lookups, the rest scanners) matching the fractions as closely as
    /// an integer split can.
    pub fn assign(&self, n: usize) -> Vec<Role> {
        assert!(n > 0);
        let mut updaters = (self.update * n as f64).round() as usize;
        let mut lookups = (self.lookup * n as f64).round() as usize;
        // Guarantee at least one updater when the mix calls for any.
        if self.update > 0.0 {
            updaters = updaters.max(1);
        }
        if self.lookup > 0.0 {
            lookups = lookups.max(1);
        }
        let mut roles = Vec::with_capacity(n);
        for i in 0..n {
            if i < updaters {
                roles.push(Role::Update);
            } else if i < updaters + lookups {
                roles.push(Role::Lookup);
            } else if self.scan > 0.0 {
                roles.push(Role::Scan);
            } else {
                roles.push(Role::Lookup);
            }
        }
        if self.scan > 0.0 && !roles.contains(&Role::Scan) {
            // Convert the last lookup into a scanner; never sacrifice the
            // only updater (tiny thread counts drop scanners instead).
            if let Some(pos) = roles.iter().rposition(|r| *r == Role::Lookup) {
                roles[pos] = Role::Scan;
            } else if roles.len() > 1 {
                let last = roles.len() - 1;
                roles[last] = Role::Scan;
            }
        }
        roles
    }

    /// A dedicated single-role mix (a thread plan that only ever issues
    /// `role` operations).
    pub const fn dedicated(role: Role) -> ThreadMix {
        match role {
            Role::Update => ThreadMix { update: 1.0, lookup: 0.0, scan: 0.0 },
            Role::Lookup => ThreadMix { update: 0.0, lookup: 1.0, scan: 0.0 },
            Role::Scan => ThreadMix { update: 0.0, lookup: 0.0, scan: 1.0 },
        }
    }

    /// Per-thread operation-weight plans for `n` threads.
    ///
    /// [`ThreadMix::assign`] hands each thread one fixed role (the paper's
    /// §4.2 methodology), but an integer split cannot represent the mix at
    /// small `n`: `UPDATE_LOOKUP.assign(1)` yields an update-only thread
    /// while the scenario id still claims 75 % lookups — exactly the lie
    /// visible in the seed baseline's `t=1` rows. `plan` instead gives
    /// `floor(fraction * n)` threads a dedicated role and turns the
    /// leftover threads (at most two) into *interleaved* threads carrying
    /// the residual fractional weights, so the aggregate op-weight mix
    /// equals the requested mix **exactly for every `n`** — the effective
    /// mix recorded in report rows is then truthful by construction.
    pub fn plan(&self, n: usize) -> Vec<ThreadMix> {
        assert!(n > 0);
        let ideal = [self.update * n as f64, self.lookup * n as f64, self.scan * n as f64];
        let floors = [ideal[0].floor(), ideal[1].floor(), ideal[2].floor()];
        let fracs = [ideal[0] - floors[0], ideal[1] - floors[1], ideal[2] - floors[2]];
        // Fractional parts sum to an integer: the number of leftover
        // threads (rounded to kill float noise).
        let leftover = (fracs.iter().sum::<f64>()).round() as usize;
        let mut plans = Vec::with_capacity(n);
        for (role, &count) in [Role::Update, Role::Lookup, Role::Scan].iter().zip(floors.iter()) {
            for _ in 0..count as usize {
                plans.push(ThreadMix::dedicated(*role));
            }
        }
        if leftover > 0 {
            let share = ThreadMix {
                update: fracs[0] / leftover as f64,
                lookup: fracs[1] / leftover as f64,
                scan: fracs[2] / leftover as f64,
            };
            plans.resize(n, share);
        }
        debug_assert_eq!(plans.len(), n);
        plans
    }

    /// The op-weight mix a set of per-thread plans schedules: the mean
    /// of the per-thread weights. For plans produced by
    /// [`ThreadMix::plan`] this equals the requested mix; it is
    /// recomputed (rather than echoed) so report rows state what the
    /// threads were driven to issue, not merely the scenario label.
    /// (It is *issue*-weight: the share of ops each role completes also
    /// depends on per-op cost, which the throughput columns capture.)
    pub fn effective(plans: &[ThreadMix]) -> ThreadMix {
        assert!(!plans.is_empty());
        let n = plans.len() as f64;
        ThreadMix {
            update: plans.iter().map(|p| p.update).sum::<f64>() / n,
            lookup: plans.iter().map(|p| p.lookup).sum::<f64>() / n,
            scan: plans.iter().map(|p| p.scan).sum::<f64>() / n,
        }
    }

    /// Op weights in [`Role`] order (update, lookup, scan).
    pub fn weights(&self) -> [f64; 3] {
        [self.update, self.lookup, self.scan]
    }

    /// Whether this plan only ever issues one kind of operation.
    pub fn is_dedicated(&self) -> bool {
        self.weights().iter().filter(|w| **w > 0.0).count() <= 1
    }
}

/// Deterministic per-thread operation scheduler for a [`ThreadMix`] plan.
///
/// Error diffusion: each step accumulates every role's weight and runs
/// the most-owed role, so a (0.25, 0.75, 0) thread round-robins
/// U,L,L,L. Dedicated single-role plans (the common case) skip the
/// float bookkeeping entirely — benchmark loops call this per op, and
/// any scheduler overhead is a systematic tax on the measured numbers.
#[derive(Clone, Debug)]
pub struct RoleSchedule {
    weights: [f64; 3],
    acc: [f64; 3],
    fixed: Option<Role>,
}

impl RoleSchedule {
    pub fn new(plan: ThreadMix) -> Self {
        let weights = plan.weights();
        let fixed = plan.is_dedicated().then(|| match weights.iter().position(|w| *w > 0.0) {
            Some(1) => Role::Lookup,
            Some(2) => Role::Scan,
            _ => Role::Update,
        });
        RoleSchedule { weights, acc: [0.0; 3], fixed }
    }

    /// The role the thread should run next.
    #[inline]
    pub fn next_role(&mut self) -> Role {
        if let Some(role) = self.fixed {
            return role;
        }
        let mut pick = 0;
        let mut best = f64::NEG_INFINITY;
        for r in 0..3 {
            self.acc[r] += self.weights[r];
            if self.weights[r] > 0.0 && self.acc[r] > best {
                best = self.acc[r];
                pick = r;
            }
        }
        self.acc[pick] -= 1.0;
        [Role::Update, Role::Lookup, Role::Scan][pick]
    }
}

/// How updater threads issue their operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchMode {
    /// Plain put/remove operations (the paper's "simple put/remove").
    Single,
    /// Batches of `size` operations on consecutive keys ("seq").
    BatchSeq { size: usize },
    /// Batches of `size` operations on random keys ("rand").
    BatchRand { size: usize },
}

impl BatchMode {
    pub fn tag(&self) -> String {
        match self {
            BatchMode::Single => "a".into(),
            BatchMode::BatchSeq { size } => format!("b{size}-seq"),
            BatchMode::BatchRand { size } => format!("b{size}-rand"),
        }
    }

    pub fn batch_size(&self) -> usize {
        match self {
            BatchMode::Single => 1,
            BatchMode::BatchSeq { size } | BatchMode::BatchRand { size } => *size,
        }
    }
}

/// Batch key pattern (for reporting).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchPattern {
    Sequential,
    Random,
}

/// Key/value shape (reporting only; the harness is generic).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KvShape {
    /// 16 B keys / 100 B values (Figs. 5, 7, 8).
    K16V100,
    /// 4 B keys / 4 B values (Figs. 6, 9, 10).
    K4V4,
}

impl KvShape {
    pub fn tag(&self) -> &'static str {
        match self {
            KvShape::K16V100 => "16_100",
            KvShape::K4V4 => "4_4",
        }
    }
}

/// One cell of the evaluation grid.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Paper-style plot identifier.
    pub id: String,
    pub shape: KvShape,
    pub dist: KeyDist,
    pub mix: ThreadMix,
    /// Entries per scan (paper: 100 short / 10 000 long).
    pub scan_len: usize,
    pub batch: BatchMode,
}

impl Scenario {
    pub fn new(
        shape: KvShape,
        dist: KeyDist,
        mix: ThreadMix,
        scan_len: usize,
        batch: BatchMode,
    ) -> Self {
        // Mirror the paper's plot naming:
        // plot_20M_10M_<dist>_<lookupFrac>_<scanFrac>_<scanLen*2>_0.0_0[_16_100]_<batch>
        let scan_tag = if scan_len > 0 { scan_len * 2 } else { 0 };
        let shape_tag = match shape {
            KvShape::K16V100 => "_16_100",
            KvShape::K4V4 => "",
        };
        let id = format!(
            "plot_20M_10M_{}_{}_{}_{}_0.0_0{}_{}",
            dist.tag(),
            mix.lookup,
            mix.scan,
            scan_tag,
            shape_tag,
            batch.tag()
        );
        Scenario { id, shape, dist, mix, scan_len, batch }
    }

    /// The four scenario columns of one figure row.
    pub fn columns(shape: KvShape, dist: KeyDist, batch: BatchMode) -> Vec<Scenario> {
        vec![
            Scenario::new(shape, dist, ThreadMix::UPDATE_ONLY, 0, batch),
            Scenario::new(shape, dist, ThreadMix::UPDATE_LOOKUP, 0, batch),
            Scenario::new(shape, dist, ThreadMix::MIXED, 100, batch),
            Scenario::new(shape, dist, ThreadMix::MIXED, 10_000, batch),
        ]
    }
}

/// A figure of the paper: its key/value shape, distribution, and the
/// batch-mode rows it contains.
#[derive(Clone, Debug)]
pub struct FigureSpec {
    pub figure: u8,
    pub shape: KvShape,
    pub dist: KeyDist,
    /// Whether the figure also reports update-only throughput rows
    /// (the appendix versions, Figs. 7–10).
    pub update_rows: bool,
}

/// The figure inventory of the paper's evaluation.
pub fn figure_scenarios(figure: u8) -> Option<FigureSpec> {
    let spec = match figure {
        5 => FigureSpec {
            figure: 5,
            shape: KvShape::K16V100,
            dist: KeyDist::Uniform,
            update_rows: false,
        },
        6 => FigureSpec {
            figure: 6,
            shape: KvShape::K4V4,
            dist: KeyDist::Uniform,
            update_rows: false,
        },
        7 => FigureSpec {
            figure: 7,
            shape: KvShape::K16V100,
            dist: KeyDist::Uniform,
            update_rows: true,
        },
        8 => FigureSpec {
            figure: 8,
            shape: KvShape::K16V100,
            dist: KeyDist::Zipfian,
            update_rows: true,
        },
        9 => FigureSpec {
            figure: 9,
            shape: KvShape::K4V4,
            dist: KeyDist::Uniform,
            update_rows: true,
        },
        10 => FigureSpec {
            figure: 10,
            shape: KvShape::K4V4,
            dist: KeyDist::Zipfian,
            update_rows: true,
        },
        _ => return None,
    };
    Some(spec)
}

impl FigureSpec {
    /// All scenario cells of this figure: 3 batch rows × 4 columns, with
    /// batched rows doubled into seq/rand variants.
    pub fn scenarios(&self) -> Vec<Scenario> {
        let mut out = Vec::new();
        out.extend(Scenario::columns(self.shape, self.dist, BatchMode::Single));
        for size in [10usize, 100] {
            out.extend(Scenario::columns(self.shape, self.dist, BatchMode::BatchSeq { size }));
            out.extend(Scenario::columns(self.shape, self.dist, BatchMode::BatchRand { size }));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_mix_assignment() {
        let roles = ThreadMix::MIXED.assign(8);
        assert_eq!(roles.len(), 8);
        let upd = roles.iter().filter(|r| **r == Role::Update).count();
        let get = roles.iter().filter(|r| **r == Role::Lookup).count();
        let scan = roles.iter().filter(|r| **r == Role::Scan).count();
        assert_eq!(upd, 2);
        assert_eq!(get, 4);
        assert_eq!(scan, 2);
    }

    #[test]
    fn small_thread_counts_cover_all_roles() {
        for n in 1..=4 {
            let roles = ThreadMix::MIXED.assign(n);
            assert!(roles.contains(&Role::Update), "n={n}: {roles:?}");
        }
        let roles = ThreadMix::MIXED.assign(3);
        assert!(roles.contains(&Role::Scan));
    }

    #[test]
    fn update_only_assigns_everything_to_updates() {
        let roles = ThreadMix::UPDATE_ONLY.assign(5);
        assert!(roles.iter().all(|r| *r == Role::Update));
    }

    #[test]
    fn plan_effective_mix_is_exact_for_all_small_n() {
        // The satellite check: for every thread count the *aggregate* op
        // weights of the per-thread plans must equal the requested mix —
        // this is what the report row's effective_mix is derived from.
        for mix in [ThreadMix::UPDATE_ONLY, ThreadMix::UPDATE_LOOKUP, ThreadMix::MIXED] {
            for n in 1..=8 {
                let plans = mix.plan(n);
                assert_eq!(plans.len(), n, "n={n}");
                for p in &plans {
                    let sum = p.update + p.lookup + p.scan;
                    assert!((sum - 1.0).abs() < 1e-9, "n={n}: thread weights sum to {sum}");
                }
                let eff = ThreadMix::effective(&plans);
                assert!((eff.update - mix.update).abs() < 1e-9, "n={n}: {eff:?} vs {mix:?}");
                assert!((eff.lookup - mix.lookup).abs() < 1e-9, "n={n}: {eff:?} vs {mix:?}");
                assert!((eff.scan - mix.scan).abs() < 1e-9, "n={n}: {eff:?} vs {mix:?}");
            }
        }
    }

    #[test]
    fn plan_uses_dedicated_roles_when_the_split_is_integral() {
        // Where an integer split can represent the mix, plan() matches
        // assign()'s per-role thread counts (the paper's fixed roles).
        for (mix, n) in [
            (ThreadMix::UPDATE_LOOKUP, 4),
            (ThreadMix::UPDATE_LOOKUP, 8),
            (ThreadMix::MIXED, 4),
            (ThreadMix::MIXED, 8),
            (ThreadMix::UPDATE_ONLY, 1),
            (ThreadMix::UPDATE_ONLY, 5),
        ] {
            let plans = mix.plan(n);
            assert!(plans.iter().all(|p| p.is_dedicated()), "{mix:?} n={n}: {plans:?}");
            let planned_updaters = plans.iter().filter(|p| p.update > 0.0).count();
            let assigned_updaters = mix.assign(n).iter().filter(|r| **r == Role::Update).count();
            assert_eq!(planned_updaters, assigned_updaters, "{mix:?} n={n}");
        }
    }

    #[test]
    fn role_schedule_matches_weights() {
        // An interleaved thread's op stream converges to its weights.
        let mut sched = RoleSchedule::new(ThreadMix::UPDATE_LOOKUP.plan(1)[0]);
        let mut counts = [0usize; 3];
        for _ in 0..1000 {
            counts[sched.next_role() as usize] += 1;
        }
        assert_eq!(counts, [250, 750, 0], "25/75 interleave");
        // A dedicated plan always yields its role.
        let mut sched = RoleSchedule::new(ThreadMix::dedicated(Role::Scan));
        assert!((0..100).all(|_| sched.next_role() == Role::Scan));
        // The 25/50/25 mix round-robins with period 4.
        let mut sched = RoleSchedule::new(ThreadMix::MIXED.plan(1)[0]);
        let cycle: Vec<Role> = (0..8).map(|_| sched.next_role()).collect();
        assert_eq!(&cycle[..4], &cycle[4..], "schedule must be periodic");
        assert_eq!(cycle.iter().filter(|r| **r == Role::Lookup).count(), 4);
    }

    #[test]
    fn plan_interleaves_when_threads_cannot_represent_the_mix() {
        // The t=1 mixed-scenario bug: a single thread must carry the full
        // mix itself instead of silently running update-only.
        let plans = ThreadMix::UPDATE_LOOKUP.plan(1);
        assert_eq!(plans.len(), 1);
        assert!((plans[0].update - 0.25).abs() < 1e-9, "{plans:?}");
        assert!((plans[0].lookup - 0.75).abs() < 1e-9, "{plans:?}");
        assert!(!plans[0].is_dedicated());

        let plans = ThreadMix::MIXED.plan(2);
        // 2 threads over (0.25, 0.5, 0.5, 0.25): one dedicated lookup
        // thread plus one interleaved (0.5 update / 0.5 scan) thread.
        let eff = ThreadMix::effective(&plans);
        assert!((eff.update - 0.25).abs() < 1e-9, "{plans:?}");
        assert!((eff.scan - 0.25).abs() < 1e-9, "{plans:?}");
    }

    #[test]
    fn scenario_ids_match_paper_style() {
        let s = Scenario::new(
            KvShape::K16V100,
            KeyDist::Uniform,
            ThreadMix::MIXED,
            100,
            BatchMode::Single,
        );
        assert_eq!(s.id, "plot_20M_10M_u_0.5_0.25_200_0.0_0_16_100_a");
        let s = Scenario::new(
            KvShape::K4V4,
            KeyDist::Zipfian,
            ThreadMix::UPDATE_ONLY,
            0,
            BatchMode::BatchRand { size: 100 },
        );
        assert_eq!(s.id, "plot_20M_10M_z_0_0_0_0.0_0_b100-rand");
    }

    #[test]
    fn figure_inventory_complete() {
        for f in 5..=10 {
            let spec = figure_scenarios(f).expect("figures 5-10 exist");
            assert_eq!(spec.figure, f);
            // 4 columns × (1 single + 2 sizes × 2 patterns) = 20 cells.
            assert_eq!(spec.scenarios().len(), 20);
        }
        assert!(figure_scenarios(4).is_none());
        assert!(figure_scenarios(11).is_none());
    }

    #[test]
    fn batch_mode_tags() {
        assert_eq!(BatchMode::Single.tag(), "a");
        assert_eq!(BatchMode::BatchSeq { size: 10 }.tag(), "b10-seq");
        assert_eq!(BatchMode::BatchRand { size: 100 }.tag(), "b100-rand");
        assert_eq!(BatchMode::Single.batch_size(), 1);
        assert_eq!(BatchMode::BatchRand { size: 100 }.batch_size(), 100);
    }
}
