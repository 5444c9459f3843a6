//! Event records and their deterministic total order.
//!
//! The event payload ([`Action`]) is data-oriented: the dominant engine
//! kinds (spawn, timer fire, message wake) are plain enum variants, and
//! every upper-layer event is one boxed [`Call`] that owns its state. A
//! message is its own event: the MPI layer's pooled envelope box is the
//! `Call` of its delivery and of its receive completion, so steady-state
//! messaging allocates nothing; closures ([`Action::call`]) serve the
//! fault, abort and file-system paths at one allocation each. An
//! [`EventRec`] is 48 bytes.

use crate::kernel::Kernel;
use crate::rank::Rank;
use crate::time::SimTime;
use crate::vp::WaitToken;
use std::cmp::Ordering;
use std::fmt;

/// The deterministic sort key of an event.
///
/// Events are processed in ascending `(time, dst, src, seq)` order. `src`
/// is the rank whose execution scheduled the event (or `dst` itself for
/// kernel-internal events) and `seq` a per-source counter; because every
/// rank executes an identical instruction stream in the sequential and the
/// parallel engine, this key yields bit-identical schedules in both.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventKey {
    /// Virtual time at which the event fires.
    pub time: SimTime,
    /// Rank at which the event fires.
    pub dst: Rank,
    /// Rank whose execution scheduled the event.
    pub src: Rank,
    /// Per-source scheduling counter (monotonically increasing).
    pub seq: u64,
}

impl Ord for EventKey {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.time
            .cmp(&other.time)
            .then_with(|| self.dst.cmp(&other.dst))
            .then_with(|| self.src.cmp(&other.src))
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for EventKey {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for EventKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:?} @{:?} from {:?}#{}]",
            self.time, self.dst, self.src, self.seq
        )
    }
}

/// A simulator-internal event that owns its state: it runs once at its
/// destination when the event fires, or is dropped unfired (abort
/// teardown). Upper layers implement it on the record a hot event
/// already travels in — the MPI layer's pooled message envelope is its
/// own delivery and completion event — and wrap everything else in
/// [`Action::call`].
pub trait Call: Send {
    /// Fire the event at the kernel that owns its destination rank.
    fn call(self: Box<Self>, k: &mut Kernel);
}

/// An `FnOnce(&mut Kernel)` as a [`Call`].
struct Closure<F>(F);

impl<F: FnOnce(&mut Kernel) + Send> Call for Closure<F> {
    #[inline]
    fn call(self: Box<Self>, k: &mut Kernel) {
        (self.0)(k)
    }
}

/// What an event does when it fires.
pub enum Action {
    /// Spawn the destination VP (initial scheduling at simulation start).
    Spawn,
    /// Wake the destination VP if it is still blocked on the wait
    /// identified by `token` (guards against stale wakeups — e.g. a
    /// compute-completion racing an abort release).
    WakeToken(WaitToken),
    /// Wake the destination VP if it is blocked on any message-class wait.
    /// Used by upper layers after delivering data that may satisfy a wait.
    WakeMessage,
    /// Run a simulator-internal action at the destination rank. This is
    /// how upper layers (MPI matching, failure notification, abort
    /// propagation, file system completions) hook into the engine.
    Call(Box<dyn Call>),
}

impl Action {
    /// A `Call` action running `f` (one allocation, none for a closure
    /// that captures nothing).
    #[inline]
    pub fn call<F: FnOnce(&mut Kernel) + Send + 'static>(f: F) -> Self {
        Action::Call(Box::new(Closure(f)))
    }
}

impl fmt::Debug for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Spawn => write!(f, "Spawn"),
            Action::WakeToken(t) => write!(f, "WakeToken({t:?})"),
            Action::WakeMessage => write!(f, "WakeMessage"),
            Action::Call(_) => write!(f, "Call"),
        }
    }
}

/// A scheduled event: key plus action.
#[derive(Debug)]
pub struct EventRec {
    /// Deterministic sort key.
    pub key: EventKey,
    /// Effect to apply when the event fires.
    pub action: Action,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering as AtomicOrdering};
    use std::sync::Arc;

    fn key(t: u64, dst: u32, src: u32, seq: u64) -> EventKey {
        EventKey {
            time: SimTime(t),
            dst: Rank(dst),
            src: Rank(src),
            seq,
        }
    }

    #[test]
    fn key_order_is_lexicographic() {
        assert!(key(1, 9, 9, 9) < key(2, 0, 0, 0));
        assert!(key(1, 0, 9, 9) < key(1, 1, 0, 0));
        assert!(key(1, 1, 0, 9) < key(1, 1, 1, 0));
        assert!(key(1, 1, 1, 0) < key(1, 1, 1, 1));
        assert_eq!(key(1, 1, 1, 1), key(1, 1, 1, 1));
    }

    /// A fat `Box<dyn Call>` plus the variant tag: an event record is
    /// the 24-byte key and a 24-byte action.
    #[test]
    fn event_records_stay_small() {
        assert!(std::mem::size_of::<Action>() <= 24);
        assert!(std::mem::size_of::<EventRec>() <= 48);
    }

    #[test]
    fn dropping_an_unfired_call_releases_captures() {
        // The capture's destructor runs exactly once when the event is
        // dropped unfired.
        let counter = Arc::new(AtomicU32::new(0));
        struct Bump(Arc<AtomicU32>);
        impl Drop for Bump {
            fn drop(&mut self) {
                self.0.fetch_add(1, AtomicOrdering::SeqCst);
            }
        }
        let b = Bump(counter.clone());
        let unfired = Action::call(move |_k: &mut Kernel| {
            let _ = &b;
        });
        assert_eq!(counter.load(AtomicOrdering::SeqCst), 0);
        drop(unfired);
        assert_eq!(counter.load(AtomicOrdering::SeqCst), 1);
    }
}
