//! Real and virtual time sources for the in-process deployment.
//!
//! Every timing decision in `legostore-core` — the modeled network delays injected by
//! [`DelayedInbox`](crate::inbox::DelayedInbox), operation timeouts, reconfiguration
//! deadlines and the linearizability timestamps — goes through a [`Clock`]. Two
//! implementations exist:
//!
//! * [`Clock::real`] (the default): wall-clock time. `now_ns` reads a monotonic
//!   [`Instant`] and sleeping really sleeps, so a deployment built with
//!   `latency_scale: 1.0` paces operations exactly like the paper's geo-distributed
//!   testbed.
//! * [`Clock::virtual_time`]: a shared logical-time source. Nobody sleeps; instead, the
//!   clock tracks every participant (server threads, clients inside an operation, the
//!   reconfiguration controller) plus every message still in flight between them, and
//!   when *all* participants are quiescent it jumps straight to the next scheduled
//!   wake-up instant, waking the threads whose deadline arrived. Modeled multi-second
//!   RTT waits collapse to microseconds of real time while preserving the arrival
//!   *order* and the relative timestamps of every event, so latency accounting and
//!   linearizability histories come out the same — and scheduler jitter no longer leaks
//!   into `now_ns`, which makes sequential workloads byte-for-byte reproducible
//!   (concurrent client threads can still race for the order in which servers see their
//!   requests).
//!
//! # Wake-ups on a virtual clock
//!
//! All virtual-clock state sits behind one mutex, and every blocked thread waits on a
//! condvar of its own paired with that mutex: a clocked channel receiver's signal
//! (shared with the channel's senders) or a fresh signal per bare sleep. The rule: every
//! change to a waiter's wake condition notifies exactly that waiter, under the lock.
//!
//! * A send notifies its channel's receiver, and so does dropping the channel's last
//!   sender (the receiver then reports the disconnect).
//! * A waiter with a deadline files its signal under that instant, and a time jump
//!   notifies only the signals filed under the instant it jumps to. Jumps go to the
//!   earliest filed instant, so no deadline is ever skipped.
//! * A thread parked in a receive without a deadline (a server thread) files nothing:
//!   only a message, or the disconnect, wakes it.
//!
//! A message therefore wakes one thread, not every parked one. The caveat is on the
//! caller's side: a thread outside a [`Clock::enter`] guard is invisible, and the clock
//! may jump past it at any moment. A client therefore holds one guard for a whole GET or
//! PUT, so the `invoke` and `ret` it records (and the hashing and recording around them)
//! lie inside it and no other participant's progress is charged to the operation.
//!
//! # Example: a virtual-time cluster in a few lines
//!
//! ```
//! use legostore_core::{Clock, Cluster, ClusterOptions};
//! use legostore_cloud::GcpLocation;
//! use legostore_types::{Key, Value};
//!
//! // Identical to a real-time deployment, except nothing ever sleeps.
//! let cluster = Cluster::gcp9(ClusterOptions {
//!     clock: Clock::virtual_time(),
//!     ..Default::default()
//! });
//! let mut client = cluster.client(GcpLocation::Tokyo.dc());
//! client.create(&Key::from("greeting"), Value::from("hello")).unwrap();
//! assert_eq!(client.get(&Key::from("greeting")).unwrap(), Value::from("hello"));
//! // Virtual time advanced by the modeled RTTs even though no wall-clock time passed.
//! assert!(cluster.options().clock.now_ns() > 0);
//! cluster.shutdown();
//! ```

use crossbeam::channel::{Receiver, RecvError, RecvTimeoutError, SendError, Sender, TryRecvError};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Floor applied to real-clock channel waits so a deadline in the past still yields to the
/// scheduler instead of busy-spinning.
const MIN_REAL_WAIT: Duration = Duration::from_micros(50);

thread_local! {
    /// How many [`ClockGuard`]s the current thread holds, *per virtual clock* (keyed by the
    /// clock's address; a guard keeps its clock alive, so keys cannot dangle or be reused
    /// while an entry exists). A thread that holds a guard is a *participant*: the clock
    /// counts it as busy and must be told (by the sleep / recv primitives) when it blocks,
    /// or time would never advance past its waits. Tracking the depth per clock keeps the
    /// accounting correct for nested guards and for threads that touch several clocks.
    static PARTICIPANT_DEPTH: RefCell<Vec<(usize, usize)>> = const { RefCell::new(Vec::new()) };
}

/// The current thread's participant depth for `clock`.
fn thread_depth(clock: &VirtualClock) -> usize {
    let key = clock as *const VirtualClock as usize;
    PARTICIPANT_DEPTH.with(|d| {
        d.borrow()
            .iter()
            .find_map(|(k, n)| (*k == key).then_some(*n))
            .unwrap_or(0)
    })
}

/// Adjusts the current thread's participant depth for `clock` by `delta`.
fn change_thread_depth(clock: &VirtualClock, delta: isize) {
    let key = clock as *const VirtualClock as usize;
    PARTICIPANT_DEPTH.with(|d| {
        let mut depths = d.borrow_mut();
        if let Some(entry) = depths.iter_mut().find(|(k, _)| *k == key) {
            entry.1 = entry
                .1
                .checked_add_signed(delta)
                .expect("participant depth balanced");
            if entry.1 == 0 {
                depths.retain(|(k, _)| *k != key);
            }
        } else {
            let initial = usize::try_from(delta).expect("participant depth balanced");
            depths.push((key, initial));
        }
    })
}

/// A time source for the deployment: either the machine's monotonic clock or a shared
/// virtual clock (see the [module docs](self) for the semantics of each).
///
/// Cloning a `Clock` yields a handle to the *same* time source; all components of one
/// [`Cluster`](crate::Cluster) must share clones of one clock, which
/// [`ClusterOptions::clock`](crate::ClusterOptions) arranges automatically.
#[derive(Clone, Debug)]
pub struct Clock {
    kind: ClockKind,
}

#[derive(Clone)]
enum ClockKind {
    Real { epoch: Instant },
    Virtual(Arc<VirtualClock>),
}

impl std::fmt::Debug for ClockKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClockKind::Real { .. } => write!(f, "RealClock"),
            ClockKind::Virtual(v) => write!(f, "VirtualClock(now={}ns)", v.lock().now_ns),
        }
    }
}

impl Default for Clock {
    /// The default clock is real time, matching the paper's testbed behaviour.
    fn default() -> Self {
        Clock::real()
    }
}

impl Clock {
    /// A wall-clock time source: `now_ns` is nanoseconds since this call, and sleeping
    /// blocks the calling thread for real.
    pub fn real() -> Clock {
        Clock {
            kind: ClockKind::Real { epoch: Instant::now() },
        }
    }

    /// A virtual time source starting at `now_ns == 0`. Sleeps return as soon as every
    /// other participant of the same clock is quiescent, advancing logical time to the
    /// earliest pending wake-up instead of waiting.
    pub fn virtual_time() -> Clock {
        Clock {
            kind: ClockKind::Virtual(Arc::new(VirtualClock::default())),
        }
    }

    /// True if this is a virtual (logical-time) clock.
    pub fn is_virtual(&self) -> bool {
        matches!(self.kind, ClockKind::Virtual(_))
    }

    /// Nanoseconds elapsed since the clock's epoch (creation for real clocks, 0 for
    /// virtual clocks). Monotonic; used as linearizability-history timestamps.
    pub fn now_ns(&self) -> u64 {
        match &self.kind {
            ClockKind::Real { epoch } => epoch.elapsed().as_nanos() as u64,
            ClockKind::Virtual(v) => v.lock().now_ns,
        }
    }

    /// Blocks until the clock reads at least `deadline_ns`. On a virtual clock this
    /// registers the deadline as a pending wake-up and lets logical time jump to it once
    /// all participants are quiescent.
    ///
    /// A thread that paces further clock-visible work after the sleep returns (sending
    /// operations, sleeping again) should hold a [`Clock::enter`] guard across the whole
    /// sequence, or a virtual clock may advance past it between the wake-up and that work.
    pub fn sleep_until_ns(&self, deadline_ns: u64) {
        match &self.kind {
            ClockKind::Real { epoch } => {
                let now = epoch.elapsed().as_nanos() as u64;
                if deadline_ns > now {
                    std::thread::sleep(Duration::from_nanos(deadline_ns - now));
                }
            }
            ClockKind::Virtual(v) => v.sleep_until(deadline_ns),
        }
    }

    /// Blocks for `duration` of clock time (see [`Clock::sleep_until_ns`]).
    pub fn sleep(&self, duration: Duration) {
        match &self.kind {
            ClockKind::Real { .. } => std::thread::sleep(duration),
            ClockKind::Virtual(v) => {
                let deadline = v.lock().now_ns.saturating_add(duration.as_nanos() as u64);
                v.sleep_until(deadline);
            }
        }
    }

    /// Registers the calling thread as a participant until the returned guard drops.
    ///
    /// While any participant is running (not blocked inside one of the clock's wait
    /// primitives), a virtual clock will not advance: the thread might be about to send a
    /// message or schedule a wake-up, and jumping ahead of it would deliver futures out of
    /// order. Server threads hold a guard for their whole life; clients hold one per
    /// operation.
    ///
    /// External drivers that pace their own work against a virtual clock (e.g. a bench
    /// loop interleaving [`Clock::sleep`] with operations on a cluster) must hold a guard
    /// for the duration of that loop: an unregistered thread is invisible to the clock
    /// between returning from a sleep and issuing its next operation, so logical time
    /// could jump ahead of work it is about to do.
    pub fn enter(&self) -> ClockGuard {
        if let ClockKind::Virtual(v) = &self.kind {
            v.lock().busy += 1;
            change_thread_depth(v, 1);
        }
        ClockGuard {
            clock: self.clone(),
            _not_send: std::marker::PhantomData,
        }
    }

    /// Creates a channel whose sends and receives are visible to this clock: a virtual
    /// clock counts every undelivered message as in-flight and refuses to advance past it.
    pub(crate) fn channel<T>(&self) -> (ClockedSender<T>, ClockedReceiver<T>) {
        let (tx, rx) = crossbeam::channel::unbounded();
        let link = self.virtual_clock().map(|v| {
            Arc::new(Link {
                clock: v.clone(),
                signal: Arc::new(Condvar::new()),
                senders: AtomicUsize::new(1),
            })
        });
        (
            ClockedSender { tx, link: link.clone() },
            ClockedReceiver { rx: Some(rx), link, clock: self.clone() },
        )
    }

    fn virtual_clock(&self) -> Option<&Arc<VirtualClock>> {
        match &self.kind {
            ClockKind::Real { .. } => None,
            ClockKind::Virtual(v) => Some(v),
        }
    }
}

/// Participant registration handle; see [`Clock::enter`].
///
/// `!Send` on purpose: the guard registers the *creating* thread's depth in a thread-local,
/// so dropping it from another thread would unbalance the busy accounting.
pub struct ClockGuard {
    clock: Clock,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for ClockGuard {
    fn drop(&mut self) {
        if let Some(v) = self.clock.virtual_clock() {
            let mut s = v.lock();
            s.busy -= 1;
            change_thread_depth(v, -1);
            s.advance_if_quiescent();
        }
    }
}

/// A waiter's wake-up signal on a virtual clock: a condvar always paired with that
/// clock's mutex.
type Signal = Arc<Condvar>;

/// What a virtual-clock channel's senders share with its receiver.
struct Link {
    clock: Arc<VirtualClock>,
    /// The receiver's signal: notified by every send and by the last sender's drop.
    signal: Signal,
    /// Live senders. Zero disconnects the receiver: no message can arrive any more.
    senders: AtomicUsize,
}

/// The sending half of a clock-aware channel ([`Clock::channel`]).
pub(crate) struct ClockedSender<T> {
    tx: Sender<T>,
    /// `None` on a real clock.
    link: Option<Arc<Link>>,
}

impl<T> Clone for ClockedSender<T> {
    fn clone(&self) -> Self {
        if let Some(link) = &self.link {
            // Relaxed is enough: cloning needs a live sender, so the count cannot reach
            // zero meanwhile (the argument `Arc`'s own increment rests on).
            link.senders.fetch_add(1, Ordering::Relaxed);
        }
        ClockedSender {
            tx: self.tx.clone(),
            link: self.link.clone(),
        }
    }
}

impl<T> Drop for ClockedSender<T> {
    fn drop(&mut self) {
        if let Some(link) = &self.link {
            if link.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // The last sender: a receiver parked on the empty channel must wake to
                // report the disconnect. It reads the count under the lock before it
                // parks, so notifying under the lock cannot fall between the two.
                let _s = link.clock.lock();
                link.signal.notify_one();
            }
        }
    }
}

impl<T> ClockedSender<T> {
    /// Sends `msg`, marking it in-flight on a virtual clock until the receiver picks it up
    /// (or drains it on drop). The send and the in-flight accounting happen under the
    /// clock lock so a waiting receiver can never observe the notification without the
    /// message.
    pub(crate) fn send(&self, msg: T) -> Result<(), SendError<T>> {
        match &self.link {
            None => self.tx.send(msg),
            Some(link) => {
                let mut s = link.clock.lock();
                self.tx.send(msg)?;
                s.in_flight += 1;
                link.signal.notify_one();
                Ok(())
            }
        }
    }
}

/// The receiving half of a clock-aware channel ([`Clock::channel`]).
///
/// Dropping the receiver drains and un-counts any messages still queued, so replies that
/// arrive after a client loses interest (e.g. a timed-out attempt) cannot wedge the
/// virtual clock. Not `Sync` (nor is the channel receiver inside), so at most one thread
/// waits on its signal at a time: one notification always reaches the right waiter.
pub(crate) struct ClockedReceiver<T> {
    /// `Some` until dropped; the receiver is destroyed *inside* the clock lock so no send
    /// can slip between the final drain and the disconnect.
    rx: Option<Receiver<T>>,
    /// `None` on a real clock.
    link: Option<Arc<Link>>,
    clock: Clock,
}

impl<T> ClockedReceiver<T> {
    fn rx(&self) -> &Receiver<T> {
        self.rx.as_ref().expect("receiver present until drop")
    }

    /// Takes the next queued message under the virtual clock's lock. An empty channel
    /// whose senders are all gone reports the disconnect even while the last sender's
    /// channel half is still being dropped.
    fn take(&self, link: &Link, s: &mut VirtualState) -> Result<T, TryRecvError> {
        match self.rx().try_recv() {
            Ok(msg) => {
                s.in_flight -= 1;
                Ok(msg)
            }
            Err(TryRecvError::Empty) if link.senders.load(Ordering::Acquire) == 0 => {
                Err(TryRecvError::Disconnected)
            }
            Err(e) => Err(e),
        }
    }

    /// Non-blocking receive.
    pub(crate) fn try_recv(&self) -> Result<T, TryRecvError> {
        match &self.link {
            None => self.rx().try_recv(),
            Some(link) => self.take(link, &mut link.clock.lock()),
        }
    }

    /// Blocking receive with no deadline (used by server threads, which wait for work
    /// indefinitely). On a virtual clock the calling participant is counted as quiescent
    /// while it waits but registers no wake-up: only a message (or the last sender's
    /// drop) can resume it.
    pub(crate) fn recv(&self) -> Result<T, RecvError> {
        match &self.link {
            None => self.rx().recv(),
            Some(link) => {
                let v = &link.clock;
                // This thread contributed `depth` busy increments to *this* clock; while it
                // is parked here, all of them must be released or time could never advance.
                let depth = thread_depth(v);
                let mut s = v.lock();
                loop {
                    match self.take(link, &mut s) {
                        Ok(msg) => return Ok(msg),
                        Err(TryRecvError::Disconnected) => return Err(RecvError),
                        Err(TryRecvError::Empty) => {}
                    }
                    s.busy -= depth;
                    s.advance_if_quiescent();
                    s = park(s, &link.signal);
                    s.busy += depth;
                }
            }
        }
    }

    /// Blocking receive that gives up once the clock reaches `deadline_ns`. On a virtual
    /// clock the deadline is registered as a pending wake-up, so an unreachable quorum
    /// times out at the modeled instant without any wall-clock wait.
    pub(crate) fn recv_deadline_ns(&self, deadline_ns: u64) -> Result<T, RecvTimeoutError> {
        match &self.link {
            None => {
                let timeout = Duration::from_nanos(deadline_ns.saturating_sub(self.clock.now_ns()))
                    .max(MIN_REAL_WAIT);
                self.rx().recv_timeout(timeout)
            }
            Some(link) => {
                let v = &link.clock;
                let depth = thread_depth(v);
                let mut s = v.lock();
                loop {
                    match self.take(link, &mut s) {
                        Ok(msg) => return Ok(msg),
                        Err(TryRecvError::Disconnected) => return Err(RecvTimeoutError::Disconnected),
                        Err(TryRecvError::Empty) => {}
                    }
                    if s.now_ns >= deadline_ns {
                        return Err(RecvTimeoutError::Timeout);
                    }
                    s.busy -= depth;
                    s.add_sleeper(deadline_ns, &link.signal);
                    s.advance_if_quiescent();
                    // Re-check after the advance: it may have jumped to *our own*
                    // deadline, in which case its notification already fired and waiting
                    // would sleep forever.
                    if s.now_ns < deadline_ns {
                        s = park(s, &link.signal);
                    }
                    s.remove_sleeper(deadline_ns, &link.signal);
                    s.busy += depth;
                }
            }
        }
    }
}

impl<T> Drop for ClockedReceiver<T> {
    fn drop(&mut self) {
        if let Some(link) = &self.link {
            let mut s = link.clock.lock();
            if let Some(rx) = self.rx.take() {
                while rx.try_recv().is_ok() {
                    s.in_flight -= 1;
                }
                // Disconnect inside the lock: a concurrent ClockedSender::send either ran
                // before us (its message was just drained) or will observe the disconnect.
                drop(rx);
            }
            s.advance_if_quiescent();
        }
    }
}

/// Shared state of a virtual clock.
#[derive(Default)]
struct VirtualClock {
    state: Mutex<VirtualState>,
}

#[derive(Default)]
struct VirtualState {
    /// Current logical time.
    now_ns: u64,
    /// Participants currently running (holding a [`ClockGuard`] and not blocked in a
    /// clock wait primitive).
    busy: usize,
    /// Messages sent through a [`ClockedSender`] and not yet received.
    in_flight: usize,
    /// Pending wake-up instants of blocked threads: deadline → the signal of each thread
    /// waiting for it.
    sleepers: BTreeMap<u64, Vec<Signal>>,
    /// Returns from a signal wait, so tests can count the wake-ups a message costs.
    #[cfg(test)]
    wakes: usize,
}

impl VirtualState {
    fn add_sleeper(&mut self, deadline_ns: u64, signal: &Signal) {
        self.sleepers.entry(deadline_ns).or_default().push(signal.clone());
    }

    /// Removes `signal`'s entry under `deadline_ns` by identity: two waiters sharing a
    /// deadline each remove their own.
    fn remove_sleeper(&mut self, deadline_ns: u64, signal: &Signal) {
        if let Some(waiters) = self.sleepers.get_mut(&deadline_ns) {
            if let Some(i) = waiters.iter().position(|w| Arc::ptr_eq(w, signal)) {
                waiters.swap_remove(i);
            }
            if waiters.is_empty() {
                self.sleepers.remove(&deadline_ns);
            }
        }
    }

    /// The advance rule: once no participant is running and no message is undelivered,
    /// jump logical time to the earliest pending wake-up and notify only the waiters
    /// filed under that instant. Their entries stay until they run, which pins time at
    /// the instant until each woken waiter has re-checked.
    fn advance_if_quiescent(&mut self) {
        if self.busy == 0 && self.in_flight == 0 {
            if let Some((&wake, waiters)) = self.sleepers.first_key_value() {
                if wake > self.now_ns {
                    self.now_ns = wake;
                    for signal in waiters {
                        signal.notify_one();
                    }
                }
            }
        }
    }
}

/// Parks on `signal` until it is notified (or wakes spuriously); the caller re-checks
/// its wake condition.
fn park<'a>(s: MutexGuard<'a, VirtualState>, signal: &Condvar) -> MutexGuard<'a, VirtualState> {
    let s = signal.wait(s).unwrap_or_else(|e| e.into_inner());
    #[cfg(test)]
    let s = {
        let mut s = s;
        s.wakes += 1;
        s
    };
    s
}

impl VirtualClock {
    fn lock(&self) -> MutexGuard<'_, VirtualState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn sleep_until(&self, deadline_ns: u64) {
        let depth = thread_depth(self);
        let mut s = self.lock();
        if s.now_ns >= deadline_ns {
            return;
        }
        let signal = Signal::default();
        s.busy -= depth;
        s.add_sleeper(deadline_ns, &signal);
        s.advance_if_quiescent();
        while s.now_ns < deadline_ns {
            s = park(s, &signal);
        }
        s.remove_sleeper(deadline_ns, &signal);
        s.busy += depth;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_is_monotonic_and_sleeps() {
        let clock = Clock::real();
        assert!(!clock.is_virtual());
        let t0 = clock.now_ns();
        clock.sleep(Duration::from_millis(2));
        let t1 = clock.now_ns();
        assert!(t1 - t0 >= 2_000_000, "slept {}ns", t1 - t0);
    }

    #[test]
    fn virtual_clock_jumps_instead_of_sleeping() {
        let clock = Clock::virtual_time();
        assert!(clock.is_virtual());
        assert_eq!(clock.now_ns(), 0);
        let wall = Instant::now();
        clock.sleep(Duration::from_secs(3600)); // an hour of virtual time
        assert_eq!(clock.now_ns(), 3_600_000_000_000);
        assert!(wall.elapsed() < Duration::from_secs(5), "must not really sleep");
    }

    #[test]
    fn virtual_clock_clones_share_time() {
        let a = Clock::virtual_time();
        let b = a.clone();
        a.sleep_until_ns(500);
        assert_eq!(b.now_ns(), 500);
        b.sleep_until_ns(200); // already past: no-op
        assert_eq!(a.now_ns(), 500);
    }

    #[test]
    fn clocked_channel_round_trip() {
        let clock = Clock::virtual_time();
        let (tx, rx) = clock.channel::<u32>();
        tx.send(7).unwrap();
        assert_eq!(rx.try_recv().unwrap(), 7);
        assert!(matches!(rx.try_recv(), Err(TryRecvError::Empty)));
        clock.sleep_until_ns(1_000);
        assert_eq!(clock.now_ns(), 1_000);
    }

    #[test]
    fn recv_deadline_times_out_at_virtual_deadline() {
        let clock = Clock::virtual_time();
        let (_tx, rx) = clock.channel::<u32>();
        let wall = Instant::now();
        // Nothing will ever arrive: the deadline (a modeled 30 s timeout) must fire
        // immediately in wall-clock terms.
        let got = rx.recv_deadline_ns(30_000_000_000);
        assert!(matches!(got, Err(RecvTimeoutError::Timeout)));
        assert_eq!(clock.now_ns(), 30_000_000_000);
        assert!(wall.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn cross_thread_send_wakes_virtual_receiver() {
        let clock = Clock::virtual_time();
        let (tx, rx) = clock.channel::<&'static str>();
        let sender_clock = clock.clone();
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || {
            let _guard = sender_clock.enter();
            // Only signal readiness once this thread is a registered participant, so the
            // receiver below cannot reach its 1 s deadline before we block.
            ready_tx.send(()).unwrap();
            sender_clock.sleep(Duration::from_millis(250)); // virtual
            tx.send("late").unwrap();
        });
        ready_rx.recv().unwrap();
        let got = rx.recv_deadline_ns(1_000_000_000).unwrap();
        assert_eq!(got, "late");
        assert!(clock.now_ns() >= 250_000_000);
        handle.join().unwrap();
    }

    #[test]
    fn nested_guards_do_not_wedge_the_clock() {
        // Both registrations must be released while the thread is parked, or the clock
        // would count the sleeper as busy forever.
        let clock = Clock::virtual_time();
        let _outer = clock.enter();
        let _inner = clock.enter();
        clock.sleep(Duration::from_secs(5));
        assert_eq!(clock.now_ns(), 5_000_000_000);
    }

    #[test]
    fn guards_on_different_clocks_are_independent() {
        // A guard on clock `a` must not leak into clock `b`'s busy accounting (the depth
        // bookkeeping is per clock, not per thread).
        let a = Clock::virtual_time();
        let b = Clock::virtual_time();
        let _ga = a.enter();
        let _gb = b.enter();
        b.sleep(Duration::from_millis(10));
        a.sleep(Duration::from_millis(20));
        assert_eq!(a.now_ns(), 20_000_000);
        assert_eq!(b.now_ns(), 10_000_000);
    }

    /// Spins until every participant of `clock` is parked in a wait primitive.
    fn wait_until_all_parked(clock: &Clock) {
        let v = clock.virtual_clock().expect("virtual clock");
        while v.lock().busy > 0 {
            std::thread::yield_now();
        }
    }

    fn wakes(clock: &Clock) -> usize {
        clock.virtual_clock().expect("virtual clock").lock().wakes
    }

    #[test]
    fn dropping_the_last_sender_wakes_a_parked_receiver() {
        let clock = Clock::virtual_time();
        let (tx, rx) = clock.channel::<u32>();
        let other_tx = tx.clone();
        let receiver_clock = clock.clone();
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || {
            let _guard = receiver_clock.enter();
            ready_tx.send(()).unwrap();
            done_tx.send(rx.recv()).unwrap();
        });
        ready_rx.recv().unwrap();
        wait_until_all_parked(&clock);
        drop(tx);
        drop(other_tx);
        // Nothing else will ever notify the receiver: the last drop must.
        let got = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("parked receiver woke on disconnect");
        assert_eq!(got, Err(RecvError));
        handle.join().unwrap();
    }

    #[test]
    fn a_message_wakes_only_its_receiver() {
        const IDLE: usize = 8;
        const ROUNDS: usize = 200;
        let clock = Clock::virtual_time();
        // Idle participants parked in `recv`, like server threads with no work.
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let mut idle_senders = Vec::new();
        let mut idle = Vec::new();
        for _ in 0..IDLE {
            let (tx, rx) = clock.channel::<()>();
            let (c, ready) = (clock.clone(), ready_tx.clone());
            idle.push(std::thread::spawn(move || {
                let _guard = c.enter();
                ready.send(()).unwrap();
                rx.recv()
            }));
            idle_senders.push(tx);
        }
        for _ in 0..IDLE {
            ready_rx.recv().unwrap();
        }
        wait_until_all_parked(&clock);

        // Two participants bounce ROUNDS messages each way. The echo thread exits on the
        // disconnect once the pinger is done.
        let before = wakes(&clock);
        let (to_echo, echo_rx) = clock.channel::<usize>();
        let (to_ping, ping_rx) = clock.channel::<usize>();
        let c = clock.clone();
        let echo = std::thread::spawn(move || {
            let _guard = c.enter();
            while let Ok(i) = echo_rx.recv() {
                to_ping.send(i).unwrap();
            }
        });
        let c = clock.clone();
        let ping = std::thread::spawn(move || {
            let _guard = c.enter();
            for i in 0..ROUNDS {
                to_echo.send(i).unwrap();
                assert_eq!(ping_rx.recv().unwrap(), i);
            }
        });
        ping.join().unwrap();
        echo.join().unwrap();
        let messages = 2 * ROUNDS;
        let ping_pong_wakes = wakes(&clock) - before;
        // At most the receiver per message (plus the odd spurious wake-up). A broadcast
        // to every parked thread fails this: it wakes up to IDLE + 1 threads per message.
        assert!(
            ping_pong_wakes <= 2 * messages,
            "{ping_pong_wakes} wake-ups for {messages} messages"
        );

        // Control: the counter does see wake-ups. One message to each idle thread wakes it.
        let before = wakes(&clock);
        for tx in &idle_senders {
            tx.send(()).unwrap();
        }
        for handle in idle {
            handle.join().unwrap().unwrap();
        }
        assert!(wakes(&clock) - before >= IDLE, "each parked idle thread woke once");
    }

    #[test]
    fn dropping_receiver_drains_in_flight_messages() {
        let clock = Clock::virtual_time();
        let (tx, rx) = clock.channel::<u32>();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(rx); // must un-count both, or the clock would wedge
        clock.sleep_until_ns(99);
        assert_eq!(clock.now_ns(), 99);
        assert!(tx.send(3).is_err(), "channel is disconnected");
    }
}
