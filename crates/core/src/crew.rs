//! The engine shell: `K` sampling engines, one per thread, taking turns over
//! one shared [`Policy`].
//!
//! Offline synthesis ([`SynthesisStream`](crate::SynthesisStream)) and the
//! synthesis service's sampler core both split their lanes over `K`
//! [`BatchEngine`](crate::BatchEngine)s by [`lane_split`](crate::lane_split)
//! and step them concurrently. How those threads share one policy, sleep,
//! stop and fail is decided here, once; what a turn does is the policy's.
//!
//! [`run`] steps engine 0 on the calling thread, which alone reads the
//! inbox, and engines `1..K` on scoped helper threads, every engine's own
//! kernels fanning out over `threads` rayon threads. At `K = 1` no thread is
//! spawned. Each turn of an engine holds the policy's lock once:
//!
//! 1. *under the lock*, it hands over what the engine's last step completed
//!    ([`Policy::hand_over`]), folds every waiting message into the policy
//!    (engine 0 only, [`Policy::handle`]) and plans the turn
//!    ([`Policy::plan`]);
//! 2. *outside the lock*, it takes the step the plan asked for.
//!
//! A plan with nothing to step idles its engine: engine 0 waits on the
//! inbox, a helper on a `Condvar` that any engine's turn notifies when
//! [`Policy::wakes`] says so — each no later than the instant the plan
//! gives. The run ends when engine 0's plan finishes it, a helper's plan or
//! hand-over ends it, the inbox hangs up, or a thread panics. The thread that
//! leaves first raises `stop` under the lock and wakes the others — a helper
//! also [nudges](Policy::nudge) engine 0 off its inbox — and [`run`] joins
//! every helper before it returns, re-raising a helper's panic in its own
//! payload, so no thread outlives a run. A thread that panicked holding the
//! lock poisoned it; the lock is recovered, since the policy still has to
//! answer for the run that panic ended.
//!
//! This module is the only code of either driver that reads the clock or
//! waits: a policy is handed the instant of each turn, and says until when
//! an idle engine may sleep.

use std::panic::resume_unwind;
use std::sync::{mpsc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// What an engine does after the policy half of its turn ([`Policy::plan`]).
#[derive(Debug, PartialEq, Eq)]
pub enum Plan<S, T> {
    /// Step the engine, outside the lock, with this input; then hand what
    /// completed over ([`Policy::hand_over`]).
    Step(S),
    /// Nothing to step: wait for a message (engine 0) or a wake-up (a
    /// helper), no later than the instant given (`None`: until one comes).
    Idle(Option<Instant>),
    /// The run is over, with this result.
    Finished(T),
}

/// The decisions of one sampling driver over engines of type `E`: every
/// part of a turn that [`run`] takes under the lock.
pub trait Policy<E> {
    /// A message to engine 0's inbox.
    type Msg;
    /// What a plan hands to the step.
    type Step;
    /// What a step completed.
    type Done;
    /// What a finished run returns.
    type Output;

    /// Fold one inbox message into the policy.
    fn handle(&mut self, msg: Self::Msg);

    /// The policy half of engine `seat`'s turn at `now`.
    fn plan(&mut self, now: Instant, seat: usize, engine: &mut E)
        -> Plan<Self::Step, Self::Output>;

    /// Take back what engine `seat`'s step completed; `false` ends the run.
    fn hand_over(&mut self, now: Instant, seat: usize, engine: &E, done: Self::Done) -> bool;

    /// Whether, after engine `seat`'s plan, idle helpers should wake.
    fn wakes(&self, seat: usize) -> bool;

    /// Wake engine 0 off its inbox: a helper that ends the run calls it.
    fn nudge(&self);
}

/// Run `policy` over `engines` until engine 0's plan finishes it: its
/// result, or `None` if the run ended otherwise (a helper ended it, or the
/// inbox hung up). Engine 0 steps on this thread and alone reads `inbox`;
/// engine `i > 0` on a helper thread of its own; every step runs under
/// `rayon::with_num_threads(threads)`. A panic on any of the threads ends
/// the run and unwinds here in its own payload.
///
/// # Panics
///
/// Panics if `engines` is empty.
pub fn run<P, E, F>(
    policy: &mut P,
    engines: &mut [E],
    threads: usize,
    inbox: &mpsc::Receiver<P::Msg>,
    step: F,
) -> Option<P::Output>
where
    P: Policy<E> + Send,
    E: Send,
    F: Fn(&mut E, P::Step) -> P::Done + Sync,
{
    let crew = Crew {
        state: Mutex::new(State {
            policy,
            stop: false,
            asleep: 0,
        }),
        wake: Condvar::new(),
    };
    let (lead, helpers) = engines.split_first_mut().expect("a crew has an engine");
    std::thread::scope(|scope| {
        let (crew, step) = (&crew, &step);
        let helpers: Vec<_> = helpers
            .iter_mut()
            .enumerate()
            .map(|(i, engine)| {
                scope.spawn(move || {
                    rayon::with_num_threads(threads, || crew.take_turns(i + 1, engine, None, step));
                })
            })
            .collect();
        let output =
            rayon::with_num_threads(threads, || crew.take_turns(0, lead, Some(inbox), step));
        for helper in helpers {
            if let Err(panic) = helper.join() {
                resume_unwind(panic);
            }
        }
        output
    })
}

/// What the threads of one run share.
struct Crew<'p, P> {
    state: Mutex<State<'p, P>>,
    /// Wakes helpers idle with nothing to step.
    wake: Condvar,
}

/// Everything behind the lock.
struct State<'p, P> {
    policy: &'p mut P,
    /// Raised when any thread leaves the run.
    stop: bool,
    /// Helpers asleep on [`Crew::wake`].
    asleep: usize,
}

impl<'p, P> Crew<'p, P> {
    fn lock(&self) -> MutexGuard<'_, State<'p, P>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Take turns on engine `seat` until the run ends. Engine 0's thread
    /// passes the inbox: it alone folds messages into the policy and waits
    /// on the inbox while idle; a helper waits on [`Crew::wake`].
    fn take_turns<E>(
        &self,
        seat: usize,
        engine: &mut E,
        inbox: Option<&mpsc::Receiver<P::Msg>>,
        step: &impl Fn(&mut E, P::Step) -> P::Done,
    ) -> Option<P::Output>
    where
        P: Policy<E>,
    {
        let _leave = Leave {
            crew: self,
            nudge: inbox.is_none().then_some(P::nudge as fn(&P)),
        };
        let mut done = None;
        let mut state = self.lock();
        loop {
            let now = Instant::now();
            // Handed over even when the run is stopping: what a step
            // completed was dispatched, and the policy outlives the run.
            if let Some(done) = done.take() {
                if !state.policy.hand_over(now, seat, engine, done) {
                    return None;
                }
            }
            if state.stop {
                return None;
            }
            for msg in inbox.into_iter().flat_map(mpsc::Receiver::try_iter) {
                state.policy.handle(msg);
            }
            let plan = state.policy.plan(now, seat, engine);
            if state.asleep > 0 && state.policy.wakes(seat) {
                self.wake.notify_all();
            }
            match plan {
                Plan::Step(input) => {
                    drop(state);
                    done = Some(step(engine, input));
                    state = self.lock();
                }
                Plan::Idle(until) => {
                    // No bound waits for good: a wait past any clock blocks.
                    let wait = until.map_or(Duration::MAX, |t| t.saturating_duration_since(now));
                    if let Some(inbox) = inbox {
                        drop(state);
                        let received = inbox.recv_timeout(wait);
                        state = self.lock();
                        match received {
                            Ok(msg) => state.policy.handle(msg),
                            Err(mpsc::RecvTimeoutError::Timeout) => {}
                            Err(mpsc::RecvTimeoutError::Disconnected) => return None,
                        }
                    } else {
                        state.asleep += 1;
                        state = self
                            .wake
                            .wait_timeout(state, wait)
                            .unwrap_or_else(PoisonError::into_inner)
                            .0;
                        state.asleep -= 1;
                    }
                }
                Plan::Finished(output) => return Some(output),
            }
        }
    }
}

/// Ends its thread's part of a run, however it ends: raises `stop` and wakes
/// the helpers; a helper that leaves first also nudges engine 0.
struct Leave<'c, 'p, P> {
    crew: &'c Crew<'p, P>,
    /// The policy's [`Policy::nudge`], on a helper's thread.
    nudge: Option<fn(&P)>,
}

impl<P> Drop for Leave<'_, '_, P> {
    fn drop(&mut self) {
        // Raised under the lock, so no thread can miss it between testing
        // the flag and going to sleep.
        let mut state = self.crew.lock();
        if !std::mem::replace(&mut state.stop, true) {
            if let Some(nudge) = self.nudge {
                nudge(state.policy);
            }
        }
        drop(state);
        self.crew.wake.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;
    use std::thread::ThreadId;

    /// An engine of the fake policy: its seat, and the value its helper
    /// thread keeps while it runs.
    struct Engine {
        seat: usize,
        alive: Arc<()>,
    }

    thread_local! {
        /// What a helper's steps hold until its thread ends.
        static HELD: std::cell::RefCell<Option<Arc<()>>> = const { std::cell::RefCell::new(None) };
    }

    /// A helper's step keeps its engine's `alive` for the rest of its
    /// thread; engine 0's runs on the caller's thread and keeps nothing.
    fn step(engine: &mut Engine, (): ()) -> usize {
        if engine.seat > 0 {
            HELD.with(|held| *held.borrow_mut() = Some(engine.alive.clone()));
        }
        1
    }

    /// A policy with no model: every engine steps `steps` times, then idles
    /// — a helper with no bound, after telling engine 0 — and engine 0 ends
    /// the run once every engine has handed its steps over, or gives up at
    /// `give_up`. With `wake_check`, helpers also idle before their first
    /// step, until engine 0 has seen one asleep and says they should wake.
    /// With `ender`, engine 2 idles until engine 1 plans a step, then ends
    /// the run, and the nudge of its leaving also sends on `go`.
    struct Fake {
        steps: usize,
        handed: Vec<usize>,
        threads: Vec<HashSet<ThreadId>>,
        /// Engine 0's inbox, for a helper's plan to wake it.
        lead: mpsc::Sender<()>,
        wake_check: bool,
        helper_asleep: bool,
        wake: bool,
        give_up: Instant,
        ender: bool,
        go: Option<mpsc::Sender<()>>,
    }

    impl Fake {
        fn new(engines: usize, steps: usize, lead: mpsc::Sender<()>) -> Fake {
            Fake {
                steps,
                handed: vec![0; engines],
                threads: vec![HashSet::new(); engines],
                lead,
                wake_check: false,
                helper_asleep: false,
                wake: false,
                give_up: Instant::now() + Duration::from_secs(60),
                ender: false,
                go: None,
            }
        }
    }

    impl Policy<Engine> for Fake {
        type Msg = ();
        type Step = ();
        type Done = usize;
        type Output = bool;

        fn handle(&mut self, (): ()) {}

        fn plan(&mut self, now: Instant, seat: usize, _: &mut Engine) -> Plan<(), bool> {
            self.threads[seat].insert(std::thread::current().id());
            if seat == 0 {
                if self.handed.iter().all(|&n| n >= self.steps) {
                    return Plan::Finished(true);
                }
                if now >= self.give_up {
                    return Plan::Finished(false);
                }
                // Asleep, not just idle: the helper planned `Idle` and went
                // to sleep in the same hold of the lock.
                self.wake |= self.wake_check && self.helper_asleep;
                if self.handed[0] < self.steps {
                    return Plan::Step(());
                }
                return Plan::Idle(Some(self.give_up));
            }
            if self.ender && seat == 2 {
                return if self.wake {
                    Plan::Finished(false)
                } else {
                    Plan::Idle(None)
                };
            }
            if self.handed[seat] >= self.steps || (self.wake_check && !self.wake) {
                self.helper_asleep = true;
                let _ = self.lead.send(());
                return Plan::Idle(None);
            }
            self.wake |= self.ender;
            Plan::Step(())
        }

        fn hand_over(&mut self, _: Instant, seat: usize, _: &Engine, done: usize) -> bool {
            self.handed[seat] += done;
            true
        }

        fn wakes(&self, _: usize) -> bool {
            self.wake
        }

        fn nudge(&self) {
            let _ = self.lead.send(());
            if let Some(go) = &self.go {
                let _ = go.send(());
            }
        }
    }

    fn engines(k: usize, alive: &Arc<()>) -> Vec<Engine> {
        (0..k)
            .map(|seat| Engine {
                seat,
                alive: alive.clone(),
            })
            .collect()
    }

    /// At `K = 1` every turn is taken on the caller's thread: no thread is
    /// spawned.
    #[test]
    fn one_engine_spawns_no_thread() {
        let (lead, inbox) = mpsc::channel();
        let mut policy = Fake::new(1, 5, lead);
        let alive = Arc::new(());
        let ended = run(&mut policy, &mut engines(1, &alive), 1, &inbox, step);
        assert_eq!(ended, Some(true));
        assert_eq!(policy.handed, [5]);
        let me = std::thread::current().id();
        assert_eq!(policy.threads, [HashSet::from([me])]);
    }

    /// Every helper has left by the time the shell returns: the value each
    /// helper thread holds is dropped with the thread, and the shell joins
    /// it. Each engine planned on a thread of its own, engine 0 on the
    /// caller's.
    #[test]
    fn no_helper_outlives_the_run() {
        let (lead, inbox) = mpsc::channel();
        let mut policy = Fake::new(3, 4, lead);
        let alive = Arc::new(());
        let mut crew = engines(3, &alive);
        assert_eq!(run(&mut policy, &mut crew, 1, &inbox, step), Some(true));
        assert_eq!(
            Arc::strong_count(&alive),
            1 + crew.len(),
            "only the engines keep it"
        );
        let me = std::thread::current().id();
        assert_eq!(policy.threads[0], HashSet::from([me]));
        let helpers: HashSet<_> = policy.threads[1..].iter().flatten().collect();
        assert_eq!(helpers.len(), 2, "one thread per helper");
        assert!(!helpers.contains(&me));
    }

    /// A helper asleep with no wait bound steps once the policy says it
    /// should wake: engine 0 sees it asleep (a helper's plan sends to the
    /// inbox), flags the wake-up, and its next turn's notify is the only
    /// thing that can wake the helper. No timeout elapses: engine 0 would
    /// only give up after a minute.
    #[test]
    fn an_idle_helper_wakes_when_the_policy_says_so() {
        let (lead, inbox) = mpsc::channel();
        let mut policy = Fake::new(2, 1, lead);
        policy.wake_check = true;
        policy.handed[0] = 1;
        let alive = Arc::new(());
        let ended = run(&mut policy, &mut engines(2, &alive), 1, &inbox, step);
        assert_eq!(
            ended,
            Some(true),
            "the helper stepped before engine 0 gave up"
        );
        assert!(policy.wake && policy.helper_asleep);
        assert_eq!(policy.handed, [1, 1]);
    }

    /// What a step completed is handed over even when the run stopped while
    /// it stepped: it was taken out of the policy, and the policy outlives
    /// the run. Engine 1's step ends only on the nudge of engine 2 leaving,
    /// which comes after `stop` is raised.
    #[test]
    fn a_step_that_ends_after_the_stop_is_handed_over() {
        let (lead, inbox) = mpsc::channel();
        let (go, gate) = mpsc::channel();
        let mut policy = Fake::new(3, 1, lead);
        policy.handed[0] = 1;
        policy.ender = true;
        policy.go = Some(go);
        let gate = Mutex::new(gate);
        let alive = Arc::new(());
        let ended = run(
            &mut policy,
            &mut engines(3, &alive),
            1,
            &inbox,
            |engine, ()| {
                if engine.seat == 1 {
                    gate.lock()
                        .expect("gate")
                        .recv_timeout(Duration::from_secs(60))
                        .expect("the nudge");
                }
                step(engine, ())
            },
        );
        assert_eq!(ended, None, "engine 2 ended the run");
        assert_eq!(policy.handed, [1, 1, 0]);
    }
}
