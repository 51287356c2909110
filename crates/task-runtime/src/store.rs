//! Typed payload storage for task sets: a slot per [`DataHandle`], so task
//! closures can borrow (read) or mutate (write) the tile a handle names while
//! the executor runs them concurrently.
//!
//! The runtime's dependency inference guarantees that at any instant a handle
//! is either being written by exactly one task or read by any number of tasks;
//! the per-slot `RwLock` merely *asserts* that discipline (it is always
//! uncontended in a correct task graph) while keeping the API entirely safe.
//!
//! Several stores of different payload types can share one
//! [`HandleRegistry`](crate::HandleRegistry) — slots are keyed by the handle,
//! not by a private id space — which is what lets the TLR Cholesky keep its
//! dense diagonal tiles and low-rank off-diagonal tiles in separate typed
//! stores inside a single task set.

use crate::handle::DataHandle;
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A typed slot store keyed by [`DataHandle`].
#[derive(Debug, Default)]
pub struct TileStore<T> {
    slots: HashMap<DataHandle, RwLock<Option<T>>>,
}

impl<T> TileStore<T> {
    /// An empty store.
    pub fn new() -> Self {
        Self {
            slots: HashMap::new(),
        }
    }

    /// Move a payload into the slot of `handle` (registering the slot if it
    /// does not exist yet). Requires `&mut self`, so it cannot race with task
    /// execution.
    pub fn insert(&mut self, handle: DataHandle, value: T) {
        self.slots.insert(handle, RwLock::new(Some(value)));
    }

    /// `true` if a payload is stored for `handle`.
    pub fn contains(&self, handle: DataHandle) -> bool {
        self.slots
            .get(&handle)
            .is_some_and(|s| s.read().map(|guard| guard.is_some()).unwrap_or(false))
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when no slots exist.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Shared borrow of the payload of `handle`.
    ///
    /// Panics if the handle has no slot or the slot is empty — both indicate
    /// a bug in the task graph (an access that was not declared or a payload
    /// that was never inserted), not a recoverable condition.
    pub fn read(&self, handle: DataHandle) -> TileRef<'_, T> {
        let slot = self
            .slots
            .get(&handle)
            .unwrap_or_else(|| panic!("TileStore: no slot for handle {}", handle.id()));
        let guard = slot.read().expect("TileStore slot poisoned");
        assert!(
            guard.is_some(),
            "TileStore: slot for handle {} is empty",
            handle.id()
        );
        TileRef { guard }
    }

    /// Exclusive borrow of the payload of `handle` (same panics as [`read`]).
    ///
    /// [`read`]: TileStore::read
    pub fn write(&self, handle: DataHandle) -> TileRefMut<'_, T> {
        let slot = self
            .slots
            .get(&handle)
            .unwrap_or_else(|| panic!("TileStore: no slot for handle {}", handle.id()));
        let guard = slot.write().expect("TileStore slot poisoned");
        assert!(
            guard.is_some(),
            "TileStore: slot for handle {} is empty",
            handle.id()
        );
        TileRefMut { guard }
    }

    /// Move the payload of `handle` out of the store (the slot stays
    /// registered but empty). Requires `&mut self`, so all task borrows have
    /// ended.
    pub fn take(&mut self, handle: DataHandle) -> T {
        self.slots
            .get_mut(&handle)
            .unwrap_or_else(|| panic!("TileStore: no slot for handle {}", handle.id()))
            .get_mut()
            .expect("TileStore slot poisoned")
            .take()
            .unwrap_or_else(|| panic!("TileStore: slot for handle {} is empty", handle.id()))
    }
}

/// Shared borrow of a stored payload.
pub struct TileRef<'a, T> {
    guard: RwLockReadGuard<'a, Option<T>>,
}

impl<T> Deref for TileRef<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("checked on acquisition")
    }
}

/// Exclusive borrow of a stored payload.
pub struct TileRefMut<'a, T> {
    guard: RwLockWriteGuard<'a, Option<T>>,
}

impl<T> Deref for TileRefMut<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("checked on acquisition")
    }
}

impl<T> DerefMut for TileRefMut<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("checked on acquisition")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::HandleRegistry;
    use crate::task::{AccessMode, TaskSpec};
    use crate::WorkerPool;

    #[test]
    fn insert_read_write_take_roundtrip() {
        let mut reg = HandleRegistry::new();
        let h = reg.register("x");
        let mut store: TileStore<Vec<f64>> = TileStore::new();
        assert!(store.is_empty());
        store.insert(h, vec![1.0, 2.0]);
        assert!(store.contains(h));
        assert_eq!(store.len(), 1);
        assert_eq!(*store.read(h), vec![1.0, 2.0]);
        store.write(h).push(3.0);
        assert_eq!(store.read(h).len(), 3);
        let v = store.take(h);
        assert_eq!(v, vec![1.0, 2.0, 3.0]);
        assert!(!store.contains(h));
    }

    #[test]
    #[should_panic(expected = "no slot")]
    fn reading_an_unregistered_handle_panics() {
        let mut reg = HandleRegistry::new();
        let h = reg.register("x");
        let store: TileStore<u32> = TileStore::new();
        let _ = store.read(h);
    }

    #[test]
    #[should_panic(expected = "is empty")]
    fn reading_a_taken_slot_panics() {
        let mut reg = HandleRegistry::new();
        let h = reg.register("x");
        let mut store: TileStore<u32> = TileStore::new();
        store.insert(h, 7);
        let _ = store.take(h);
        let _ = store.read(h);
    }

    #[test]
    fn two_typed_stores_share_one_registry() {
        let mut reg = HandleRegistry::new();
        let hv = reg.register("vector");
        let hs = reg.register("scalar");
        let mut vectors: TileStore<Vec<f64>> = TileStore::new();
        let mut scalars: TileStore<f64> = TileStore::new();
        vectors.insert(hv, vec![1.0; 4]);
        scalars.insert(hs, 2.0);
        // Distinct handles from the same registry address distinct stores.
        assert_eq!(vectors.read(hv).len(), 4);
        assert_eq!(*scalars.read(hs), 2.0);
    }

    #[test]
    fn graph_tasks_mutate_store_payloads_through_declared_accesses() {
        // A producer/consumer chain over one slot plus an independent slot,
        // executed on several workers: the store must end up with the exact
        // sequential result.
        let mut reg = HandleRegistry::new();
        let a = reg.register("a");
        let b = reg.register("b");
        let mut store: TileStore<f64> = TileStore::new();
        store.insert(a, 1.0);
        store.insert(b, 100.0);

        let store_ref = &store;
        WorkerPool::new(4).execute(|sink| {
            for _ in 0..10 {
                sink.submit_task(
                    TaskSpec::new("double_a").access(a, AccessMode::ReadWrite),
                    Some(Box::new(move || {
                        *store_ref.write(a) *= 2.0;
                    })),
                );
            }
            sink.submit_task(
                TaskSpec::new("a_into_b")
                    .access(a, AccessMode::Read)
                    .access(b, AccessMode::ReadWrite),
                Some(Box::new(move || {
                    let va = *store_ref.read(a);
                    *store_ref.write(b) += va;
                })),
            );
        });
        assert_eq!(store.take(a), 1024.0);
        assert_eq!(store.take(b), 1124.0);
    }
}
