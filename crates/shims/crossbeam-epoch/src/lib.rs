//! In-repo epoch-based reclamation, API-compatible with the subset of
//! `crossbeam-epoch` 0.9 this workspace uses.
//!
//! The container this project builds in has no access to crates.io, so the
//! workspace vendors a from-scratch implementation of the classic
//! three-epoch reclamation scheme (Fraser 2004) behind crossbeam's names:
//! [`Atomic`], [`Owned`], [`Shared`], [`Guard`], [`pin`], [`unprotected`]
//! and the [`Pointer`] trait.
//!
//! # Scheme
//!
//! A global epoch counter advances only when every *pinned* thread has
//! observed the current epoch. Retired garbage is stamped with the epoch of
//! the retiring thread's pin; once the global epoch has advanced twice past
//! that stamp, no pinned thread can still hold a reference obtained before
//! the retirement, and the garbage is freed. Threads collect their own
//! garbage on unpin (amortized); garbage of exited threads moves to a
//! global orphan list that surviving threads drain opportunistically.
//!
//! Tag bits are packed into pointer low bits exactly like crossbeam
//! (`align_of::<T>() - 1` bits available).

#![deny(unsafe_op_in_unsafe_fn)]

use std::cell::{Cell, UnsafeCell};
use std::marker::PhantomData;
use std::mem;
use std::sync::atomic::{fence, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Attempt a collection every this many pin/unpin cycles.
const PINS_BETWEEN_COLLECT: usize = 64;
/// Always attempt a collection when a thread's local garbage exceeds this.
const LOCAL_GARBAGE_HIGH_WATER: usize = 256;

// ---------------------------------------------------------------------------
// Tagged-pointer helpers
// ---------------------------------------------------------------------------

#[inline]
fn low_bits<T>() -> usize {
    mem::align_of::<T>() - 1
}

#[inline]
fn decompose<T>(data: usize) -> (*mut T, usize) {
    ((data & !low_bits::<T>()) as *mut T, data & low_bits::<T>())
}

#[inline]
fn compose<T>(ptr: *mut T, tag: usize) -> usize {
    (ptr as usize) | (tag & low_bits::<T>())
}

// ---------------------------------------------------------------------------
// Global + participant state
// ---------------------------------------------------------------------------

struct Garbage {
    /// Pin epoch of the retiring thread at retirement time.
    epoch: usize,
    destroy: unsafe fn(*mut u8),
    data: *mut u8,
}

// SAFETY: the raw pointer is only ever dereferenced by the destroy function,
// once, after the epoch protocol has proven exclusive access.
unsafe impl Send for Garbage {}

// SAFETY: callers must pass a `Box::into_raw`-produced `*mut T` (cast to
// `*mut u8`) to which they hold exclusive access.
unsafe fn drop_box<T>(data: *mut u8) {
    // SAFETY: `data` was produced by `Box::into_raw` (via `Owned::new` /
    // `Atomic::new`) and the epoch protocol guarantees exclusivity.
    drop(unsafe { Box::from_raw(data.cast::<T>()) });
}

struct Participant {
    /// Pin nesting depth. Written by the owner thread, read by collectors.
    active: AtomicUsize,
    /// Epoch observed at pin time; meaningful while `active > 0`.
    epoch: AtomicUsize,
    /// Owner-thread garbage bag (no lock: only the owner touches it while
    /// the participant is registered).
    garbage: UnsafeCell<Vec<Garbage>>,
    /// Owner-thread pin counter driving periodic collection.
    pins: Cell<usize>,
}

// SAFETY: `garbage`/`pins` are only accessed by the owning thread (moved to
// the orphan list under the registry lock on thread exit); the rest is
// atomics.
unsafe impl Send for Participant {}
unsafe impl Sync for Participant {}

struct Global {
    epoch: AtomicUsize,
    participants: Mutex<Vec<Arc<Participant>>>,
    orphans: Mutex<Vec<Garbage>>,
}

fn global() -> &'static Global {
    static GLOBAL: OnceLock<Global> = OnceLock::new();
    GLOBAL.get_or_init(|| Global {
        epoch: AtomicUsize::new(0),
        participants: Mutex::new(Vec::new()),
        orphans: Mutex::new(Vec::new()),
    })
}

/// Advance the global epoch if every pinned participant has observed it.
fn try_advance(g: &Global) -> usize {
    #[cfg(feature = "audit-sched")]
    jiffy_audit::sched::probe("epoch::advance");
    let cur = g.epoch.load(Ordering::SeqCst);
    let Ok(parts) = g.participants.try_lock() else {
        return cur;
    };
    for p in parts.iter() {
        if p.active.load(Ordering::SeqCst) > 0 && p.epoch.load(Ordering::SeqCst) != cur {
            return cur;
        }
    }
    drop(parts);
    match g.epoch.compare_exchange(cur, cur + 1, Ordering::SeqCst, Ordering::SeqCst) {
        Ok(_) => cur + 1,
        Err(actual) => actual,
    }
}

/// Free every garbage item whose stamp is two or more epochs behind.
fn release(items: Vec<Garbage>, cur: usize, keep: &mut Vec<Garbage>) {
    for item in items {
        if item.epoch + 2 <= cur {
            // SAFETY: stamped two epochs back — no pinned thread can still
            // reach it (see module docs).
            unsafe { (item.destroy)(item.data) };
        } else {
            keep.push(item);
        }
    }
}

/// Owner-thread collection: advance if possible, then drain the local bag
/// and (opportunistically) the orphan list.
fn collect(p: &Participant) {
    let g = global();
    let cur = try_advance(g);

    // SAFETY: only the owner thread (us) touches the local bag.
    let items = mem::take(unsafe { &mut *p.garbage.get() });
    let mut keep = Vec::new();
    release(items, cur, &mut keep);
    // SAFETY: still the owner thread — nothing else touches the bag.
    unsafe { (*p.garbage.get()).append(&mut keep) };

    if let Ok(mut orphans) = g.orphans.try_lock() {
        let items = mem::take(&mut *orphans);
        drop(orphans);
        let mut keep = Vec::new();
        release(items, cur, &mut keep);
        if !keep.is_empty() {
            g.orphans.lock().unwrap().append(&mut keep);
        }
    }
}

struct LocalHandle {
    participant: Arc<Participant>,
}

impl LocalHandle {
    fn register() -> LocalHandle {
        let participant = Arc::new(Participant {
            active: AtomicUsize::new(0),
            epoch: AtomicUsize::new(0),
            garbage: UnsafeCell::new(Vec::new()),
            pins: Cell::new(0),
        });
        global().participants.lock().unwrap().push(Arc::clone(&participant));
        LocalHandle { participant }
    }
}

impl Drop for LocalHandle {
    fn drop(&mut self) {
        let g = global();
        // Surrender remaining garbage to the orphan list, then unregister.
        // SAFETY: the thread is exiting; nobody else touches the bag.
        let leftovers = mem::take(unsafe { &mut *self.participant.garbage.get() });
        if !leftovers.is_empty() {
            g.orphans.lock().unwrap().extend(leftovers);
        }
        if self.participant.active.load(Ordering::SeqCst) > 0 {
            // A Guard outlives this TLS handle (thread-local teardown
            // ordering edge). Guards address the participant by raw
            // pointer, so keep it registered — and therefore allocated and
            // visible to `try_advance` — forever. One small leak per
            // offending thread, in exchange for soundness.
            return;
        }
        let mut parts = g.participants.lock().unwrap();
        if let Some(i) = parts.iter().position(|p| Arc::ptr_eq(p, &self.participant)) {
            parts.swap_remove(i);
        }
    }
}

thread_local! {
    static LOCAL: LocalHandle = LocalHandle::register();
}

// ---------------------------------------------------------------------------
// Guard
// ---------------------------------------------------------------------------

/// A pinned-scope token. While any `Guard` from [`pin`] is alive, memory
/// retired by other threads is not freed.
///
/// Holds its participant by raw pointer (not `Arc`) so the per-operation
/// pin/unpin path costs no refcount traffic. Validity: the allocation is
/// owned by the global registry (plus the thread's `LocalHandle`), and
/// `LocalHandle::drop` deliberately leaks the registration if a guard is
/// still active, so the pointer outlives every `Guard` on the thread.
pub struct Guard {
    /// `None` for the [`unprotected`] guard, which frees immediately.
    participant: Option<std::ptr::NonNull<Participant>>,
}

impl Guard {
    #[inline]
    fn participant(&self) -> Option<&Participant> {
        // SAFETY: see the struct docs — the participant allocation is kept
        // alive for at least as long as any Guard pointing at it.
        self.participant.as_ref().map(|p| unsafe { p.as_ref() })
    }
}

impl Guard {
    /// Defer destruction of the boxed object behind `ptr` until no pinned
    /// thread can still hold a reference to it.
    ///
    /// # Safety
    /// `ptr` must point to a live `Box`-allocated `T` that has been made
    /// unreachable to threads that are not yet pinned, and no thread may
    /// use it after the current pinned threads unpin.
    pub unsafe fn defer_destroy<T>(&self, ptr: Shared<'_, T>) {
        #[cfg(feature = "audit-sched")]
        jiffy_audit::sched::probe("epoch::defer");
        let raw = ptr.untagged_raw().cast::<u8>().cast_mut();
        debug_assert!(!raw.is_null(), "defer_destroy(null)");
        match self.participant() {
            None => {
                // SAFETY: unprotected guard — the caller asserted exclusive
                // access to `ptr` (see `unprotected`), so free immediately.
                unsafe { drop_box::<T>(raw) };
            }
            Some(p) => {
                // Seal with the *global* epoch at defer time (not this
                // thread's pin epoch, which may lag one behind): a reader
                // pinned at `seal` does not block `seal+1 -> seal+2`, so a
                // lower stamp could free memory that reader still holds.
                let epoch = global().epoch.load(Ordering::SeqCst);
                // SAFETY: `p` is this thread's own participant (the guard
                // pinned it); only the owner touches the bag.
                let bag = unsafe { &mut *p.garbage.get() };
                bag.push(Garbage { epoch, destroy: drop_box::<T>, data: raw });
                if bag.len() >= LOCAL_GARBAGE_HIGH_WATER {
                    // Collection is safe while pinned: only items two full
                    // epochs behind our own pin are freed.
                    collect(p);
                }
            }
        }
    }

    /// Defer an arbitrary function until the current pinned threads unpin.
    pub fn defer<F, R>(&self, f: F)
    where
        F: FnOnce() -> R,
        F: Send + 'static,
    {
        let boxed: Box<dyn FnOnce() + Send> = Box::new(move || {
            f();
        });
        let data = Box::into_raw(Box::new(boxed));
        #[cfg(feature = "audit-sched")]
        jiffy_audit::sched::probe("epoch::defer");
        // SAFETY: callers pass the `Box::into_raw` result from above,
        // exactly once — `from_raw` reclaims unique ownership.
        unsafe fn call(data: *mut u8) {
            let f = unsafe { Box::from_raw(data.cast::<Box<dyn FnOnce() + Send>>()) };
            (*f)();
        }
        match self.participant() {
            // SAFETY: unprotected guard — run the closure immediately;
            // `data` was allocated two lines up and never shared.
            None => unsafe { call(data.cast()) },
            Some(p) => {
                // Seal with the global epoch — see `defer_destroy`.
                let epoch = global().epoch.load(Ordering::SeqCst);
                // SAFETY: owner thread's own garbage bag (we hold its pin).
                unsafe { &mut *p.garbage.get() }.push(Garbage {
                    epoch,
                    destroy: call,
                    data: data.cast(),
                });
            }
        }
    }

    /// Force a collection attempt.
    pub fn flush(&self) {
        if let Some(p) = self.participant() {
            collect(p);
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(p) = self.participant() {
            let depth = p.active.load(Ordering::Relaxed);
            debug_assert!(depth > 0);
            if depth == 1 {
                fence(Ordering::SeqCst);
                p.active.store(0, Ordering::SeqCst);
                let pins = p.pins.get().wrapping_add(1);
                p.pins.set(pins);
                // SAFETY: owner-thread read of the bag length.
                let bag_len = unsafe { &*p.garbage.get() }.len();
                if pins % PINS_BETWEEN_COLLECT == 0 || bag_len >= LOCAL_GARBAGE_HIGH_WATER {
                    collect(p);
                }
            } else {
                p.active.store(depth - 1, Ordering::Relaxed);
            }
        }
    }
}

/// Pin the current thread, returning a [`Guard`] that keeps retired memory
/// alive until dropped.
pub fn pin() -> Guard {
    #[cfg(feature = "audit-sched")]
    jiffy_audit::sched::probe("epoch::pin");
    LOCAL.with(|local| {
        let p = &local.participant;
        let depth = p.active.load(Ordering::Relaxed);
        if depth == 0 {
            p.active.store(1, Ordering::SeqCst);
            // Publish the epoch we pin at; loop until it is stable so the
            // collector never advances twice past a pin it has not seen.
            loop {
                let e = global().epoch.load(Ordering::SeqCst);
                p.epoch.store(e, Ordering::SeqCst);
                fence(Ordering::SeqCst);
                if global().epoch.load(Ordering::SeqCst) == e {
                    break;
                }
            }
        } else {
            p.active.store(depth + 1, Ordering::Relaxed);
        }
        Guard { participant: Some(std::ptr::NonNull::from(&**p)) }
    })
}

/// A guard that performs no pinning and frees deferred garbage immediately.
///
/// # Safety
/// Callers must guarantee exclusive access to any data reached through this
/// guard (e.g. inside `Drop` of the owning structure).
pub unsafe fn unprotected() -> &'static Guard {
    struct SyncGuard(Guard);
    // SAFETY: the unprotected guard has no participant — it is stateless,
    // so sharing the static across threads is harmless.
    unsafe impl Sync for SyncGuard {}
    static UNPROTECTED: SyncGuard = SyncGuard(Guard { participant: None });
    &UNPROTECTED.0
}

// ---------------------------------------------------------------------------
// Pointer types
// ---------------------------------------------------------------------------

/// Types that can stand in for a (possibly tagged) pointer to `T`.
pub trait Pointer<T> {
    /// The raw tagged representation.
    fn into_usize(self) -> usize;
    /// Rebuild from the raw tagged representation.
    ///
    /// # Safety
    /// `data` must come from a matching `into_usize` and respect ownership.
    unsafe fn from_usize(data: usize) -> Self;
}

/// An owned heap pointer, like `Box<T>`, optionally tagged.
pub struct Owned<T> {
    data: usize,
    _marker: PhantomData<Box<T>>,
}

impl<T> Owned<T> {
    pub fn new(value: T) -> Owned<T> {
        Owned { data: Box::into_raw(Box::new(value)) as usize, _marker: PhantomData }
    }

    pub fn into_box(self) -> Box<T> {
        let (ptr, _) = decompose::<T>(self.data);
        mem::forget(self);
        // SAFETY: `ptr` came from `Box::into_raw` and we own it.
        unsafe { Box::from_raw(ptr) }
    }

    pub fn into_shared(self, _guard: &Guard) -> Shared<'_, T> {
        let data = self.data;
        mem::forget(self);
        Shared { data, _marker: PhantomData }
    }

    pub fn with_tag(self, tag: usize) -> Owned<T> {
        let (ptr, _) = decompose::<T>(self.data);
        let data = compose(ptr, tag);
        mem::forget(self);
        Owned { data, _marker: PhantomData }
    }

    pub fn tag(&self) -> usize {
        decompose::<T>(self.data).1
    }
}

impl<T> Drop for Owned<T> {
    fn drop(&mut self) {
        let (ptr, _) = decompose::<T>(self.data);
        // SAFETY: an `Owned` uniquely owns its allocation.
        drop(unsafe { Box::from_raw(ptr) });
    }
}

impl<T> std::ops::Deref for Owned<T> {
    type Target = T;
    fn deref(&self) -> &T {
        let (ptr, _) = decompose::<T>(self.data);
        // SAFETY: an `Owned` always points at a live allocation.
        unsafe { &*ptr }
    }
}

impl<T> std::ops::DerefMut for Owned<T> {
    fn deref_mut(&mut self) -> &mut T {
        let (ptr, _) = decompose::<T>(self.data);
        // SAFETY: unique ownership.
        unsafe { &mut *ptr }
    }
}

impl<T> From<T> for Owned<T> {
    fn from(value: T) -> Self {
        Owned::new(value)
    }
}

impl<T> Pointer<T> for Owned<T> {
    fn into_usize(self) -> usize {
        let data = self.data;
        mem::forget(self);
        data
    }

    // SAFETY: contract is `Pointer::from_usize`'s — `data` came from a
    // matching `into_usize` and carries unique ownership.
    unsafe fn from_usize(data: usize) -> Self {
        Owned { data, _marker: PhantomData }
    }
}

/// A tagged shared pointer valid for the lifetime of a [`Guard`].
pub struct Shared<'g, T> {
    data: usize,
    _marker: PhantomData<(&'g (), *const T)>,
}

impl<'g, T> Clone for Shared<'g, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<'g, T> Copy for Shared<'g, T> {}

impl<'g, T> PartialEq for Shared<'g, T> {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data
    }
}

impl<'g, T> Eq for Shared<'g, T> {}

impl<'g, T> std::fmt::Debug for Shared<'g, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (ptr, tag) = decompose::<T>(self.data);
        f.debug_struct("Shared").field("ptr", &ptr).field("tag", &tag).finish()
    }
}

impl<'g, T> Shared<'g, T> {
    pub fn null() -> Shared<'g, T> {
        Shared { data: 0, _marker: PhantomData }
    }

    pub fn is_null(&self) -> bool {
        decompose::<T>(self.data).0.is_null()
    }

    pub fn as_raw(&self) -> *const T {
        decompose::<T>(self.data).0
    }

    fn untagged_raw(&self) -> *const T {
        decompose::<T>(self.data).0
    }

    /// # Safety
    /// The pointer must be valid (non-null, alive under the guard).
    pub unsafe fn deref(&self) -> &'g T {
        // SAFETY: forwarded to the caller.
        unsafe { &*self.untagged_raw() }
    }

    /// # Safety
    /// If non-null, the pointer must be alive under the guard.
    pub unsafe fn as_ref(&self) -> Option<&'g T> {
        let ptr = self.untagged_raw();
        if ptr.is_null() {
            None
        } else {
            // SAFETY: forwarded to the caller.
            Some(unsafe { &*ptr })
        }
    }

    /// # Safety
    /// The caller must uniquely own the allocation.
    pub unsafe fn into_owned(self) -> Owned<T> {
        debug_assert!(!self.is_null(), "into_owned(null)");
        Owned { data: self.data, _marker: PhantomData }
    }

    pub fn tag(&self) -> usize {
        decompose::<T>(self.data).1
    }

    pub fn with_tag(&self, tag: usize) -> Shared<'g, T> {
        let (ptr, _) = decompose::<T>(self.data);
        Shared { data: compose(ptr, tag), _marker: PhantomData }
    }
}

impl<'g, T> Pointer<T> for Shared<'g, T> {
    fn into_usize(self) -> usize {
        self.data
    }

    // SAFETY: contract is `Pointer::from_usize`'s — `data` came from a
    // matching `into_usize` and stays valid under the borrowed guard.
    unsafe fn from_usize(data: usize) -> Self {
        Shared { data, _marker: PhantomData }
    }
}

/// The error of a failed [`Atomic::compare_exchange`].
pub struct CompareExchangeError<'g, T, P: Pointer<T>> {
    /// The value the atomic actually held.
    pub current: Shared<'g, T>,
    /// The proposed new value, handed back to the caller.
    pub new: P,
}

/// An atomic, tagged pointer to a heap allocation, like
/// `AtomicPtr<T>` with epoch-aware loads.
pub struct Atomic<T> {
    data: AtomicUsize,
    _marker: PhantomData<*mut T>,
}

// SAFETY: same bounds crossbeam uses — the pointee crosses threads.
unsafe impl<T: Send + Sync> Send for Atomic<T> {}
unsafe impl<T: Send + Sync> Sync for Atomic<T> {}

impl<T> Atomic<T> {
    pub fn null() -> Atomic<T> {
        Atomic { data: AtomicUsize::new(0), _marker: PhantomData }
    }

    pub fn new(value: T) -> Atomic<T> {
        Atomic { data: AtomicUsize::new(Owned::new(value).into_usize()), _marker: PhantomData }
    }

    pub fn load<'g>(&self, ord: Ordering, _guard: &'g Guard) -> Shared<'g, T> {
        Shared { data: self.data.load(ord), _marker: PhantomData }
    }

    pub fn store<P: Pointer<T>>(&self, new: P, ord: Ordering) {
        self.data.store(new.into_usize(), ord);
    }

    pub fn swap<'g, P: Pointer<T>>(
        &self,
        new: P,
        ord: Ordering,
        _guard: &'g Guard,
    ) -> Shared<'g, T> {
        Shared { data: self.data.swap(new.into_usize(), ord), _marker: PhantomData }
    }

    pub fn compare_exchange<'g, P: Pointer<T>>(
        &self,
        current: Shared<'_, T>,
        new: P,
        success: Ordering,
        failure: Ordering,
        _guard: &'g Guard,
    ) -> Result<Shared<'g, T>, CompareExchangeError<'g, T, P>> {
        let new = new.into_usize();
        match self.data.compare_exchange(current.into_usize(), new, success, failure) {
            Ok(_) => Ok(Shared { data: new, _marker: PhantomData }),
            Err(actual) => Err(CompareExchangeError {
                current: Shared { data: actual, _marker: PhantomData },
                // SAFETY: `new` was just produced by `into_usize` above and
                // is returned to the caller exactly once.
                new: unsafe { P::from_usize(new) },
            }),
        }
    }
}

impl<T> Default for Atomic<T> {
    fn default() -> Self {
        Atomic::null()
    }
}

impl<T> From<Owned<T>> for Atomic<T> {
    fn from(owned: Owned<T>) -> Self {
        Atomic { data: AtomicUsize::new(owned.into_usize()), _marker: PhantomData }
    }
}

impl<T> std::fmt::Debug for Atomic<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let data = self.data.load(Ordering::Relaxed);
        let (ptr, tag) = decompose::<T>(data);
        f.debug_struct("Atomic").field("ptr", &ptr).field("tag", &tag).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize as StdAtomicUsize;

    #[test]
    fn basic_lifecycle() {
        let a: Atomic<u64> = Atomic::new(42);
        let guard = &pin();
        let s = a.load(Ordering::Acquire, guard);
        assert!(!s.is_null());
        // SAFETY: non-null and alive under `guard`.
        assert_eq!(unsafe { *s.deref() }, 42);
        let prev = a.swap(Shared::null(), Ordering::AcqRel, guard);
        assert_eq!(prev, s);
        // SAFETY: the swap unlinked `prev`; nobody re-reads it.
        unsafe { guard.defer_destroy(prev) };
        assert!(a.load(Ordering::Acquire, guard).is_null());
    }

    #[test]
    fn cas_success_and_failure() {
        let a: Atomic<u64> = Atomic::null();
        let guard = &pin();
        let cur = a.load(Ordering::Acquire, guard);
        let fresh = Owned::new(7u64);
        let s = a
            .compare_exchange(cur, fresh, Ordering::AcqRel, Ordering::Acquire, guard)
            .unwrap_or_else(|_| panic!("CAS on null must succeed"));
        // SAFETY: just installed and alive under `guard`.
        assert_eq!(unsafe { *s.deref() }, 7);
        // Losing CAS hands the attempted value back.
        let lose = Owned::new(9u64);
        let Err(err) =
            a.compare_exchange(Shared::null(), lose, Ordering::AcqRel, Ordering::Acquire, guard)
        else {
            panic!("CAS against stale expectation must fail");
        };
        assert_eq!(err.current, s);
        assert_eq!(*err.new, 9);
        drop(err.new); // reclaim the loser
                       // SAFETY: `s` is unlinked by the store below; single-threaded test.
        unsafe { guard.defer_destroy(s) };
        a.store(Shared::<u64>::null(), Ordering::Release);
    }

    #[test]
    fn tags_roundtrip() {
        let o = Owned::new(5u64);
        let guard = &pin();
        let s = o.into_shared(guard).with_tag(1);
        assert_eq!(s.tag(), 1);
        // SAFETY: freshly allocated, alive under `guard`.
        assert_eq!(unsafe { *s.deref() }, 5);
        let untagged = s.with_tag(0);
        assert_eq!(untagged.tag(), 0);
        // SAFETY: sole owner — the allocation was never published.
        drop(unsafe { untagged.into_owned() });
    }

    #[test]
    fn deferred_destruction_runs() {
        static DROPS: StdAtomicUsize = StdAtomicUsize::new(0);
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let a: Atomic<Counted> = Atomic::new(Counted);
        {
            let guard = &pin();
            let s = a.swap(Shared::null(), Ordering::AcqRel, guard);
            // SAFETY: the swap unlinked `s`; nobody re-reads it.
            unsafe { guard.defer_destroy(s) };
        }
        // Cycle pins until the epoch has advanced twice and the bag
        // drained. A sibling test pinned on another thread can hold the
        // epoch back for a while, so wait on the outcome (bounded), not
        // on a fixed number of pins.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while DROPS.load(Ordering::SeqCst) == 0 && std::time::Instant::now() < deadline {
            for _ in 0..PINS_BETWEEN_COLLECT {
                drop(pin());
            }
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 1, "deferred drop never ran");
    }

    #[test]
    fn unprotected_frees_immediately() {
        static DROPS: StdAtomicUsize = StdAtomicUsize::new(0);
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let a: Atomic<Counted> = Atomic::new(Counted);
        // SAFETY: single-threaded test — exclusive access throughout.
        let guard = unsafe { unprotected() };
        let s = a.swap(Shared::null(), Ordering::AcqRel, guard);
        // SAFETY: unlinked, and no other thread exists.
        unsafe { guard.defer_destroy(s) };
        assert_eq!(DROPS.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn concurrent_churn_is_safe() {
        // Hammer one Atomic from several threads, retiring the loser of
        // every swap. Run under the normal test harness this exercises
        // pin/advance/collect across threads.
        let a = Arc::new(Atomic::new(0u64));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let a = Arc::clone(&a);
            handles.push(std::thread::spawn(move || {
                for i in 0..20_000u64 {
                    let guard = &pin();
                    let prev = a.swap(Owned::new(t * 1_000_000 + i), Ordering::AcqRel, guard);
                    if !prev.is_null() {
                        // SAFETY: the swap made us the sole retirer of
                        // `prev`; readers are protected by their pins.
                        unsafe { guard.defer_destroy(prev) };
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // SAFETY: all workers joined — we have exclusive access.
        let guard = unsafe { unprotected() };
        let last = a.swap(Shared::null(), Ordering::AcqRel, guard);
        // SAFETY: exclusive access after join.
        unsafe { guard.defer_destroy(last) };
    }

    #[test]
    fn nested_pins() {
        let g1 = pin();
        let g2 = pin();
        drop(g1);
        drop(g2);
    }
}
