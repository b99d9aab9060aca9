//! Poison-recovering lock helpers — the one definition the workspace
//! shares.
//!
//! A thread that panics while holding a `std::sync` lock poisons it, and
//! every later `lock()` returns an error. Nothing guarded by these
//! helpers has a multi-step invariant a panicking holder could leave
//! half-done: the service's snapshot slot is a single `Arc` swap, its
//! caches are freshness-checked on every read, the engine's graph cache
//! is version-stamped, and the rest are queues, counters and span rings.
//! So the poison flag carries no information there, and recovering the
//! guard keeps one crashed query from wedging every other worker. Do not
//! use these for data that is only valid once a whole update completes.

use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Lock a mutex, recovering the guard from a poisoned lock.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Read-lock with poison recovery (see [`lock`]).
pub fn read_lock<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

/// Write-lock with poison recovery (see [`lock`]).
pub fn write_lock<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn poisoned_locks_are_recovered() {
        let m = Arc::new(Mutex::new(1));
        let l = Arc::new(RwLock::new(2));
        let (m2, l2) = (Arc::clone(&m), Arc::clone(&l));
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            let _w = l2.write().unwrap();
            panic!("poison both");
        })
        .join();
        assert!(m.is_poisoned() && l.is_poisoned());
        *lock(&m) += 1;
        *write_lock(&l) += 1;
        assert_eq!((*lock(&m), *read_lock(&l)), (2, 3));
    }
}
