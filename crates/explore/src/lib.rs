//! # p4lru-explore
//!
//! An exhaustive schedule explorer for sans-IO machines, std-only and used
//! only by tests. [`exhaust`] runs every schedule of every script set by
//! stateless depth-first search, each replayed on a fresh [`Machine`] (it
//! need not be `Clone`), less the runs cut short at a step that
//! [`Machine::commute`]s with the step before it and belongs to a
//! lower-numbered actor: the schedule with the two swapped reaches the same
//! state, sorts earlier, and is explored in its own right. A [`Failure`]
//! prints its scripts, schedule and trace; [`replay`] runs that schedule
//! alone, as a named case does.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::thread;

/// A system of actors under exploration, built fresh for every run.
pub trait Machine {
    /// What a step did, as far as [`Machine::commute`] needs to know.
    type Did: Copy;
    /// What a worker keeps from run to run: a scratch directory, a memo.
    type Worker;

    /// The actors that can step now.
    fn actors(&self) -> Vec<usize>;
    /// Steps `actor`: what it did, or the property it broke.
    fn step(&mut self, actor: usize) -> Result<Self::Did, String>;
    /// Whether two adjacent steps of different actors reach the same state
    /// in either order.
    fn commute(a: Self::Did, b: Self::Did) -> bool;
    /// Checks the state after a step. `new` is false when an earlier run of
    /// the same set took the same steps up to here.
    fn check_step(&mut self, _worker: &mut Self::Worker, _new: bool) -> Result<(), String> {
        Ok(())
    }
    /// Checks the state once no actor can step.
    fn check_end(&mut self) -> Result<(), String>;
    /// What happened so far, a line a step.
    fn trace(&self) -> Vec<String> {
        Vec::new()
    }
}

/// A violation and the run that found it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Failure {
    /// The machine's report; it starts with the property broken.
    pub error: String,
    /// The script set's index in the scope and its `Debug` form (`None`
    /// from [`replay`]).
    pub set: Option<(usize, String)>,
    /// The pick among [`Machine::actors`] at each step; past its end, the
    /// first actor steps.
    pub schedule: Vec<usize>,
    pub trace: Vec<String>,
}

impl Failure {
    fn new<M: Machine>(error: String, schedule: &[usize], machine: &M) -> Self {
        let (set, schedule, trace) = (None, schedule.to_vec(), machine.trace());
        Self {
            error,
            set,
            schedule,
            trace,
        }
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.error)?;
        if let Some((index, scripts)) = &self.set {
            write!(f, "\n  scripts {scripts} (set {index})")?;
        }
        write!(f, "\n  schedule {:?}", self.schedule)?;
        if !self.trace.is_empty() {
            write!(f, "\n  trace:\n    {}", self.trace.join("\n    "))?;
        }
        Ok(())
    }
}

/// Runs `schedule` on `machine` and returns how many actors each step had
/// to pick from. With `cut`, stops short at a step that commutes with the
/// one before it and belongs to a lower-numbered actor. Steps from
/// `new_from` on are checked as new.
fn run<M: Machine>(
    machine: &mut M,
    worker: &mut M::Worker,
    schedule: &[usize],
    new_from: usize,
    cut: bool,
) -> Result<Vec<usize>, String> {
    let mut widths = Vec::new();
    let mut last: Option<(usize, M::Did)> = None;
    loop {
        let actors = machine.actors();
        let pick = schedule.get(widths.len()).copied().unwrap_or(0);
        let Some(&actor) = actors.get(pick) else {
            assert!(pick == 0, "schedule entry {} out of range", widths.len());
            return machine.check_end().map(|()| widths);
        };
        let new = widths.len() >= new_from;
        widths.push(actors.len());
        let did = machine.step(actor)?;
        if cut && last.is_some_and(|(before, done)| actor < before && M::commute(done, did)) {
            return Ok(widths);
        }
        last = Some((actor, did));
        machine.check_step(worker, new)?;
    }
}

/// Every schedule of one set, depth first: run one, then advance the
/// deepest pick with an alternative left and cut the schedule there.
/// Returns how many runs that took.
fn every_schedule<M: Machine>(
    worker: &mut M::Worker,
    mut fresh: impl FnMut(&mut M::Worker) -> M,
) -> Result<usize, Failure> {
    let (mut schedule, mut new_from) = (Vec::new(), 0);
    for ran in 1.. {
        let mut machine = fresh(worker);
        let widths = run(&mut machine, worker, &schedule, new_from, true)
            .map_err(|error| Failure::new(error, &schedule, &machine))?;
        schedule.resize(widths.len(), 0);
        while schedule
            .last()
            .is_some_and(|&pick| pick + 1 == widths[schedule.len() - 1])
        {
            schedule.pop();
        }
        let Some(pick) = schedule.last_mut() else {
            return Ok(ran);
        };
        *pick += 1;
        // The states before the changed pick were checked already.
        new_from = schedule.len() - 1;
    }
    unreachable!()
}

/// Runs one schedule on `machine` without the cut, checking every state as
/// new: a [`Failure`]'s schedule replays to its error and trace.
pub fn replay<M: Machine>(
    mut machine: M,
    worker: &mut M::Worker,
    schedule: &[usize],
) -> Result<(), Failure> {
    run(&mut machine, worker, schedule, 0, false)
        .map(drop)
        .map_err(|error| Failure::new(error, schedule, &machine))
}

/// Runs every schedule of every set, one worker per available core:
/// `worker(i)` makes worker `i`'s state and `fresh` a machine for one run
/// of a set. Returns how many sets and schedules that took, or the
/// violation a serial run reports first (the lowest failing set's first in
/// DFS order) whatever the worker count.
pub fn exhaust<'s, S, M>(
    sets: &'s [S],
    worker: impl Fn(usize) -> M::Worker + Sync,
    fresh: impl Fn(&'s S, &mut M::Worker) -> M + Sync,
) -> Result<(usize, usize), Failure>
where
    S: fmt::Debug + Sync,
    M: Machine,
{
    let cores = thread::available_parallelism().map_or(1, |n| n.get());
    exhaust_on(cores, sets, worker, fresh)
}

fn exhaust_on<'s, S, M>(
    workers: usize,
    sets: &'s [S],
    worker: impl Fn(usize) -> M::Worker + Sync,
    fresh: impl Fn(&'s S, &mut M::Worker) -> M + Sync,
) -> Result<(usize, usize), Failure>
where
    S: fmt::Debug + Sync,
    M: Machine,
{
    // Sets are dealt out in order, and a worker stops only past the lowest
    // failing set found so far, so every set before the lowest is finished.
    // Neither counter publishes other data (outcomes return through
    // `join`), so both are `Relaxed`.
    let (next, failed) = (AtomicUsize::new(0), AtomicUsize::new(usize::MAX));
    let outcomes: Vec<(usize, Option<Failure>)> = thread::scope(|scope| {
        let spawned: Vec<_> = (0..workers.clamp(1, sets.len().max(1)))
            .map(|w| {
                let (next, failed, worker, fresh) = (&next, &failed, &worker, &fresh);
                scope.spawn(move || {
                    let (mut state, mut schedules) = (worker(w), 0);
                    loop {
                        let i = next.fetch_add(1, Relaxed);
                        if i >= sets.len() || i > failed.load(Relaxed) {
                            return (schedules, None);
                        }
                        match every_schedule(&mut state, |state| fresh(&sets[i], state)) {
                            Ok(ran) => schedules += ran,
                            Err(failure) => {
                                failed.fetch_min(i, Relaxed);
                                let set = Some((i, format!("{:?}", sets[i])));
                                return (schedules, Some(Failure { set, ..failure }));
                            }
                        }
                    }
                })
            })
            .collect();
        let join = |h: thread::ScopedJoinHandle<'_, _>| {
            h.join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        };
        spawned.into_iter().map(join).collect()
    });
    let (counts, failures): (Vec<usize>, Vec<Option<Failure>>) = outcomes.into_iter().unzip();
    match failures
        .into_iter()
        .flatten()
        .min_by_key(|f| f.set.as_ref().map(|s| s.0))
    {
        Some(failure) => Err(failure),
        None => Ok((sets.len(), counts.iter().sum())),
    }
}

/// Asserts that `outcome` is a violation of `property` (its report starts
/// with it) and returns the failure: how a test shows that the search
/// catches a seeded defect.
#[track_caller]
pub fn assert_fails<T: fmt::Debug>(outcome: Result<T, Failure>, property: &str) -> Failure {
    match outcome {
        Err(failure) if failure.error.starts_with(property) => failure,
        Err(failure) => panic!("expected {property:?}, found:\n{failure}"),
        Ok(ok) => panic!("expected {property:?}, found no violation: {ok:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// A toy's request: load a cell into the actor's register, store the
    /// register plus one (a `Load` then a `Store` is an increment that can
    /// lose a race), or add one in a single step.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Op {
        Load(usize),
        Store(usize),
        Add(usize),
    }

    #[derive(Clone, Copy, Debug)]
    struct Did {
        cell: usize,
        write: bool,
        /// False in a toy whose commute relation is empty.
        commuting: bool,
    }

    /// The set a worker is on, and the states it checked as new there.
    type Seen = (Vec<Vec<Op>>, HashSet<Vec<usize>>);

    /// Actors running scripts over two shared cells, no I/O. Its per-step
    /// check holds the harness to its `new` promise: every state is
    /// checked as new exactly once per set, and before it is skipped.
    #[derive(Clone)]
    struct Toy<'a> {
        scripts: &'a [Vec<Op>],
        commuting: bool,
        at: Vec<usize>,
        registers: Vec<u64>,
        cells: [u64; 2],
        path: Vec<usize>,
        trace: Vec<String>,
    }

    impl<'a> Toy<'a> {
        fn new(scripts: &'a [Vec<Op>], commuting: bool) -> Self {
            Self {
                scripts,
                commuting,
                at: vec![0; scripts.len()],
                registers: vec![0; scripts.len()],
                cells: [0; 2],
                path: Vec::new(),
                trace: Vec::new(),
            }
        }
    }

    impl Machine for Toy<'_> {
        type Did = Did;
        type Worker = Seen;

        fn actors(&self) -> Vec<usize> {
            let left = |&a: &usize| self.at[a] < self.scripts[a].len();
            (0..self.scripts.len()).filter(left).collect()
        }

        fn step(&mut self, actor: usize) -> Result<Did, String> {
            let op = self.scripts[actor][self.at[actor]];
            self.at[actor] += 1;
            self.path.push(actor);
            let (cell, write) = match op {
                Op::Load(cell) => {
                    self.registers[actor] = self.cells[cell];
                    (cell, false)
                }
                Op::Store(cell) => {
                    self.cells[cell] = self.registers[actor] + 1;
                    (cell, true)
                }
                Op::Add(cell) => {
                    self.cells[cell] += 1;
                    (cell, true)
                }
            };
            self.trace
                .push(format!("actor {actor}: {op:?}, cells {:?}", self.cells));
            let commuting = self.commuting;
            Ok(Did {
                cell,
                write,
                commuting,
            })
        }

        fn commute(a: Did, b: Did) -> bool {
            a.commuting && b.commuting && (a.cell != b.cell || !(a.write || b.write))
        }

        fn check_step(&mut self, (set, seen): &mut Seen, new: bool) -> Result<(), String> {
            if set != self.scripts {
                *set = self.scripts.to_vec();
                seen.clear();
            }
            match (new, seen.insert(self.path.clone())) {
                (true, false) => Err(format!("state {:?} checked as new twice", self.path)),
                (false, true) => Err(format!("state {:?} skipped unchecked", self.path)),
                _ => Ok(()),
            }
        }

        fn check_end(&mut self) -> Result<(), String> {
            for (cell, &holds) in self.cells.iter().enumerate() {
                let ops = self.scripts.iter().flatten();
                let writes = ops.filter(|&&op| op == Op::Store(cell) || op == Op::Add(cell));
                let want = writes.count() as u64;
                if holds != want {
                    return Err(format!(
                        "lost update: cell {cell} holds {holds}, not {want}"
                    ));
                }
            }
            Ok(())
        }

        fn trace(&self) -> Vec<String> {
            self.trace.clone()
        }
    }

    fn explore(
        sets: &[Vec<Vec<Op>>],
        commuting: bool,
        workers: usize,
    ) -> Result<(usize, usize), Failure> {
        exhaust_on(
            workers,
            sets,
            |_| Seen::default(),
            |scripts, _| Toy::new(scripts, commuting),
        )
    }

    fn schedules(scripts: Vec<Vec<Op>>, commuting: bool) -> usize {
        explore(&[scripts], commuting, 1).expect("no lost update").1
    }

    /// The runs the search makes, counted over a tree of cloned toys
    /// instead of by replay, and the states it checks: a run ends where no
    /// actor can step, or at a step that commutes with the one before it
    /// and belongs to a lower-numbered actor (a state it never checks).
    fn runs(toy: &Toy, last: Option<(usize, Did)>, states: &mut HashSet<Vec<usize>>) -> usize {
        let actors = toy.actors();
        if actors.is_empty() {
            return 1;
        }
        let mut from = |&actor: &usize| {
            let mut next = toy.clone();
            let did = next.step(actor).expect("the toy steps");
            match last {
                Some((before, done)) if actor < before && Toy::commute(done, did) => 1,
                _ => {
                    states.insert(next.path.clone());
                    runs(&next, Some((actor, did)), states)
                }
            }
        };
        actors.iter().map(&mut from).sum()
    }

    #[test]
    fn counts_are_the_multinomial_without_commutation_and_fewer_with_the_cut() {
        use Op::*;
        let apart = vec![vec![Add(0), Add(0)], vec![Add(1), Add(1)]];
        // 4! / (2! 2!) orders, and with the cut only 0-0-1-1 runs whole;
        // 0-1-0, 0-1-1-0, 1-0 and 1-1-0 are cut at their last step.
        assert_eq!(schedules(apart.clone(), false), 6);
        assert_eq!(schedules(apart, true), 5);

        let mixed = vec![vec![Add(0), Load(1)], vec![Load(1), Add(1)], vec![Load(0)]];
        assert_eq!(schedules(mixed.clone(), false), 30, "5! / (2! 2! 1!)");
        let mut seen = Seen::default();
        let cut = every_schedule(&mut seen, |_| Toy::new(&mixed, true)).expect("no lost update");
        let mut states = HashSet::new();
        let want = runs(&Toy::new(&mixed, true), None, &mut states);
        assert_eq!((cut, seen.1), (want, states));
        assert!(cut < 30, "{cut}");
    }

    #[test]
    fn the_twin_helper_finds_a_seeded_lost_update() {
        use Op::*;
        let atomic = vec![vec![vec![Add(0)], vec![Add(0), Add(1)]]];
        assert_eq!(explore(&atomic, true, 1), Ok((1, 3)));
        let racy = vec![vec![vec![Load(0), Store(0)], vec![Add(0), Add(1)]]];
        let failure = assert_fails(explore(&racy, true, 1), "lost update: cell 0 holds 1");
        assert_eq!(failure.set, Some((0, format!("{:?}", racy[0]))));
    }

    #[test]
    fn a_failing_schedule_replays_alone_to_the_same_error_and_trace() {
        use Op::*;
        let racy = vec![vec![
            vec![Add(1), Load(0), Store(0)],
            vec![Load(0), Store(0)],
        ]];
        let found = assert_fails(explore(&racy, true, 1), "lost update");
        assert!(!found.trace.is_empty());
        let toy = Toy::new(&racy[0], true);
        let replayed = replay(toy, &mut Seen::default(), &found.schedule).unwrap_err();
        assert_eq!((replayed.error, replayed.trace), (found.error, found.trace));
    }

    #[test]
    fn a_split_search_matches_a_serial_one() {
        use Op::*;
        // Set 0 races only where actor 1's `Add(0)` comes between actor 0's
        // `Load(0)` and `Store(0)`, which the search reaches after every
        // order that starts with both: other workers find later races
        // first.
        let tail = || [Add(1)].repeat(6);
        let slow = vec![
            [vec![Load(0), Store(0)], tail()].concat(),
            [vec![Add(0)], tail()].concat(),
        ];
        let units = [
            vec![Add(0)],
            vec![Add(1), Add(0)],
            vec![Load(1), Store(1)],
            vec![Load(0), Store(0)],
            vec![Load(0), Add(1)],
        ];
        let pairs = units
            .iter()
            .flat_map(|a| units.iter().map(|b| vec![a.clone(), b.clone()]));
        let sets: Vec<Vec<Vec<Op>>> = [slow].into_iter().chain(pairs).collect();
        let racy = |set: &&Vec<Vec<Op>>| set.iter().flatten().any(|op| matches!(op, Store(_)));
        let safe: Vec<_> = sets.iter().filter(|set| !racy(set)).cloned().collect();
        let serial = explore(&sets, true, 1).unwrap_err();
        assert_eq!(serial.set.as_ref().map(|s| s.0), Some(0));
        assert!(explore(&sets[1..], true, 1).is_err());
        let whole = explore(&safe, true, 1).expect("no lost update");
        for _ in 0..20 {
            assert_eq!(explore(&sets, true, 3).unwrap_err(), serial);
            assert_eq!(explore(&safe, true, 3), Ok(whole));
        }
    }
}
