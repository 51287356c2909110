//! The per-worker distributed tile store: every lower tile of the factor has
//! a slot holding its current value (if resident on this node) and a *final*
//! flag.
//!
//! Three kinds of thread touch the store, with disjoint protocols:
//!
//! * **Compute tasks** (pool workers) `take` their read-write tile, run the
//!   kernel, and `put` it back — marking it final when the task is the
//!   tile's finalizer. Exclusivity is guaranteed by the streaming session's
//!   hazard ordering, not by lock tenure (the slot lock is only held for
//!   the pointer swap, never across a kernel).
//! * **The submitter thread** inserts prefetched remote tiles
//!   ([`DistStore::insert_fetched`], always final) before submitting the
//!   task that reads them.
//! * **Peer-serving threads** block in [`DistStore::wait_final_timeout`]
//!   until a requested tile's owner task has finalized it — this is how remote
//!   dependencies synchronize across processes without any version
//!   numbering: the plan guarantees every remote read is of a final tile
//!   (see [`crate::plan`]).
//!
//! Values are `Arc`-shared so serving a tile to a peer never copies or
//! blocks the compute pipeline; a finalized tile is immutable from then on.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use tile_la::dag::Step;
use tlr::Tile;

use crate::plan::TileId;

#[derive(Default)]
struct SlotState {
    value: Option<Arc<Tile>>,
    is_final: bool,
}

#[derive(Default)]
struct Slot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

/// The tile store of one worker process (see the module docs).
pub struct DistStore {
    slots: HashMap<TileId, Slot>,
}

impl DistStore {
    /// A store with one empty slot per tile id.
    pub fn new(ids: impl IntoIterator<Item = TileId>) -> Self {
        Self {
            slots: ids.into_iter().map(|id| (id, Slot::default())).collect(),
        }
    }

    fn slot(&self, id: TileId) -> &Slot {
        self.slots
            .get(&id)
            .unwrap_or_else(|| panic!("tile {id:?} is not in the store"))
    }

    /// Insert an owned tile's initial (unfactored) value.
    pub fn insert_initial(&self, id: TileId, value: Tile) {
        let mut st = self.slot(id).state.lock().unwrap();
        assert!(st.value.is_none(), "tile {id:?} inserted twice");
        st.value = Some(Arc::new(value));
    }

    /// Insert a tile fetched from its remote owner (always a final version).
    ///
    /// Tolerates a duplicate final insert of the same tile: final versions
    /// are bitwise identical by determinism, so the first one in wins and
    /// the duplicate is dropped.
    pub fn insert_fetched(&self, id: TileId, value: Tile) {
        let slot = self.slot(id);
        let mut st = slot.state.lock().unwrap();
        if st.value.is_some() {
            assert!(
                st.is_final,
                "fetched tile {id:?} raced a non-final resident version"
            );
            return;
        }
        st.value = Some(Arc::new(value));
        st.is_final = true;
        slot.cv.notify_all();
    }

    /// Whether the tile is resident and final (used by the prefetcher as its
    /// per-node transfer cache check: a hit means the tile already crossed
    /// this edge, or is owned here).
    pub fn has_final(&self, id: TileId) -> bool {
        let st = self.slot(id).state.lock().unwrap();
        st.is_final && st.value.is_some()
    }

    /// Detach a tile for a read-write kernel. Exclusive by hazard ordering;
    /// the slot is empty (peers wait) until [`DistStore::put`] returns it.
    pub fn take(&self, id: TileId) -> Arc<Tile> {
        let mut st = self.slot(id).state.lock().unwrap();
        st.value
            .take()
            .unwrap_or_else(|| panic!("tile {id:?} not resident for a read-write task"))
    }

    /// Re-attach a tile after a kernel, optionally finalizing it (waking any
    /// peer-serving thread blocked on it).
    pub fn put(&self, id: TileId, value: Arc<Tile>, finalize: bool) {
        let slot = self.slot(id);
        let mut st = slot.state.lock().unwrap();
        assert!(st.value.is_none(), "tile {id:?} put back twice");
        st.value = Some(value);
        if finalize {
            st.is_final = true;
            slot.cv.notify_all();
        }
    }

    /// A read-only reference to a tile that must already be final — every
    /// read in the factorization plan is (see [`crate::plan`]).
    pub fn get_final(&self, id: TileId) -> Arc<Tile> {
        let st = self.slot(id).state.lock().unwrap();
        assert!(st.is_final, "tile {id:?} read before it was finalized");
        Arc::clone(st.value.as_ref().expect("final tile must be resident"))
    }

    /// The read tiles of a plan step, in [`Step::reads`] order; like
    /// [`DistStore::get_final`], each must already be final.
    pub fn final_reads(&self, step: Step) -> Vec<Arc<Tile>> {
        step.reads().iter().map(|&id| self.get_final(id)).collect()
    }

    /// Block until the tile is final, then return it (the peer-serving
    /// path), or give up after `timeout` and return `None`. Unblocked by the
    /// owning task's `put(.., true)`; serving threads wait in slices so they
    /// notice shutdown instead of blocking forever on a tile whose pipeline
    /// failed.
    pub fn wait_final_timeout(
        &self,
        id: TileId,
        timeout: std::time::Duration,
    ) -> Option<Arc<Tile>> {
        let slot = self.slot(id);
        let deadline = std::time::Instant::now() + timeout;
        let mut st = slot.state.lock().unwrap();
        while !(st.is_final && st.value.is_some()) {
            let left = deadline.checked_duration_since(std::time::Instant::now())?;
            let (guard, res) = slot.cv.wait_timeout(st, left).unwrap();
            st = guard;
            if res.timed_out() && !(st.is_final && st.value.is_some()) {
                return None;
            }
        }
        Some(Arc::clone(st.value.as_ref().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tile_la::DenseMatrix;

    fn dense(v: f64) -> Tile {
        Tile::Dense(DenseMatrix::from_fn(2, 2, |_, _| v))
    }

    #[test]
    fn take_put_finalize_cycle() {
        let store = DistStore::new([(0, 0), (1, 0)]);
        store.insert_initial((0, 0), dense(1.0));
        assert!(!store.has_final((0, 0)));
        let mut t = store.take((0, 0));
        Arc::make_mut(&mut t); // unique: nobody else holds a pre-final tile
        store.put((0, 0), t, true);
        assert!(store.has_final((0, 0)));
        assert_eq!(store.get_final((0, 0)).as_dense().get(0, 0), 1.0);
    }

    #[test]
    fn wait_final_blocks_until_finalized() {
        let store = Arc::new(DistStore::new([(0, 0)]));
        store.insert_initial((0, 0), dense(3.0));
        let s2 = Arc::clone(&store);
        let waiter = std::thread::spawn(move || {
            s2.wait_final_timeout((0, 0), std::time::Duration::from_secs(60))
                .map(|t| t.as_dense().get(1, 1))
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        let t = store.take((0, 0));
        store.put((0, 0), t, true);
        assert_eq!(waiter.join().unwrap(), Some(3.0));
    }

    #[test]
    fn fetched_tiles_arrive_final() {
        let store = DistStore::new([(2, 1)]);
        store.insert_fetched((2, 1), dense(7.0));
        assert!(store.has_final((2, 1)));
        assert_eq!(store.get_final((2, 1)).as_dense().get(0, 0), 7.0);
    }

    #[test]
    fn duplicate_final_inserts_keep_the_first_version() {
        // Final versions of a tile are bitwise identical, so a duplicate
        // insert is dropped and the first resident one wins.
        let store = DistStore::new([(3, 2)]);
        store.insert_fetched((3, 2), dense(1.5));
        store.insert_fetched((3, 2), dense(1.5));
        assert_eq!(store.get_final((3, 2)).as_dense().get(0, 0), 1.5);
    }

    #[test]
    fn wait_final_timeout_times_out_then_succeeds() {
        let store = Arc::new(DistStore::new([(1, 1)]));
        assert!(store
            .wait_final_timeout((1, 1), std::time::Duration::from_millis(20))
            .is_none());
        let s2 = Arc::clone(&store);
        let waiter = std::thread::spawn(move || {
            s2.wait_final_timeout((1, 1), std::time::Duration::from_secs(5))
                .map(|t| t.as_dense().get(0, 0))
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        store.insert_fetched((1, 1), dense(9.0));
        assert_eq!(waiter.join().unwrap(), Some(9.0));
    }
}
