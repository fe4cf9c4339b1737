//! Indexed binary max-heap over variables keyed by activity — the VSIDS
//! decision order. Supports `decrease`/`increase`-key by position lookup,
//! which a plain `BinaryHeap` cannot do.

use crate::types::Var;

/// Max-heap of variables ordered by an external activity array.
#[derive(Debug, Clone, Default)]
pub struct VarHeap {
    heap: Vec<Var>,
    /// Position of each variable in `heap`, or `usize::MAX` when absent.
    index: Vec<usize>,
}

const ABSENT: usize = usize::MAX;

impl VarHeap {
    /// An empty heap sized for `n` variables.
    #[must_use]
    pub fn new(n: usize) -> VarHeap {
        let mut h = VarHeap::default();
        h.reset(n);
        h
    }

    /// Empty the heap and size it for `n` variables, keeping its capacity.
    pub(crate) fn reset(&mut self, n: usize) {
        self.heap.clear();
        self.heap.reserve(n);
        crate::recycle::refill(&mut self.index, n, ABSENT);
    }

    /// Bytes of capacity held.
    pub(crate) fn bytes(&self) -> usize {
        crate::recycle::bytes(&self.heap) + crate::recycle::bytes(&self.index)
    }

    /// Number of queued variables.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no variable is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// True when `v` is currently queued.
    #[must_use]
    pub fn contains(&self, v: Var) -> bool {
        self.index[v as usize] != ABSENT
    }

    /// Insert `v` (no-op when present), restoring heap order under
    /// `activity`.
    pub fn insert(&mut self, v: Var, activity: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.index[v as usize] = self.heap.len();
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, activity);
    }

    /// Remove and return the variable with maximal activity.
    pub fn pop_max(&mut self, activity: &[f64]) -> Option<Var> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("nonempty");
        self.index[top as usize] = ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.index[last as usize] = 0;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    /// Restore order after `v`'s activity increased.
    pub fn bumped(&mut self, v: Var, activity: &[f64]) {
        let pos = self.index[v as usize];
        if pos != ABSENT {
            self.sift_up(pos, activity);
        }
    }

    /// Rebuild from scratch with every variable in `vars` queued.
    pub fn rebuild(&mut self, vars: impl Iterator<Item = Var>, activity: &[f64]) {
        self.heap.clear();
        self.index.iter_mut().for_each(|i| *i = ABSENT);
        for v in vars {
            self.index[v as usize] = self.heap.len();
            self.heap.push(v);
        }
        for pos in (0..self.heap.len() / 2).rev() {
            self.sift_down(pos, activity);
        }
    }

    fn sift_up(&mut self, mut pos: usize, activity: &[f64]) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if activity[self.heap[pos] as usize] <= activity[self.heap[parent] as usize] {
                break;
            }
            self.swap(pos, parent);
            pos = parent;
        }
    }

    fn sift_down(&mut self, mut pos: usize, activity: &[f64]) {
        loop {
            let left = 2 * pos + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let mut best = left;
            if right < self.heap.len()
                && activity[self.heap[right] as usize] > activity[self.heap[left] as usize]
            {
                best = right;
            }
            if activity[self.heap[best] as usize] <= activity[self.heap[pos] as usize] {
                break;
            }
            self.swap(pos, best);
            pos = best;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.index[self.heap[a] as usize] = a;
        self.index[self.heap[b] as usize] = b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_activity_order() {
        let activity = vec![0.5, 3.0, 1.0, 2.0];
        let mut h = VarHeap::new(4);
        for v in 0..4 {
            h.insert(v, &activity);
        }
        let order: Vec<Var> = std::iter::from_fn(|| h.pop_max(&activity)).collect();
        assert_eq!(order, vec![1, 3, 2, 0]);
    }

    #[test]
    fn bump_reorders() {
        let mut activity = vec![1.0, 2.0, 3.0];
        let mut h = VarHeap::new(3);
        for v in 0..3 {
            h.insert(v, &activity);
        }
        activity[0] = 10.0;
        h.bumped(0, &activity);
        assert_eq!(h.pop_max(&activity), Some(0));
        assert_eq!(h.pop_max(&activity), Some(2));
        assert_eq!(h.pop_max(&activity), Some(1));
        assert!(h.is_empty());
    }

    #[test]
    fn insert_is_idempotent() {
        let activity = vec![1.0; 3];
        let mut h = VarHeap::new(3);
        h.insert(1, &activity);
        h.insert(1, &activity);
        assert_eq!(h.len(), 1);
        assert!(h.contains(1));
        assert!(!h.contains(0));
    }

    #[test]
    fn rebuild_restores_everything() {
        let activity = vec![2.0, 1.0, 4.0, 3.0];
        let mut h = VarHeap::new(4);
        h.rebuild(0..4, &activity);
        let order: Vec<Var> = std::iter::from_fn(|| h.pop_max(&activity)).collect();
        assert_eq!(order, vec![2, 3, 0, 1]);
    }
}
