//! The solver's watch lists, all in one slab.
//!
//! Every literal's list is a span of one `Vec<Watcher>`: a start, a length
//! and a capacity. Construction counts the watchers of each list first
//! ([`WatchSlab::count`]) and lays the spans out back to back with exactly
//! that capacity ([`WatchSlab::lay_out`]), so loading a formula allocates
//! nothing per literal. A push onto a full list moves the list to the
//! slab's tail at double capacity; its old span becomes garbage until the
//! next lay-out. Moves copy a list in order, so each list keeps the order
//! of its pushes, exactly as a `Vec` per literal would.

use crate::types::Lit;

/// What a clause reference points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// A clause of three or more literals, in the solver's arena.
    Long,
    /// A clause of two literals, kept in its header and its watchers.
    Binary,
    /// A pairwise at-most-one group, its members in the arena.
    Group,
}

/// A clause's index in the solver's header table, with its [`Kind`] in
/// the top two bits, so that propagation tells a binary clause or a group
/// from a long clause by the watcher alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ClauseRef(u32);

impl ClauseRef {
    /// Refers to no clause: the reason of a decision or a root unit.
    pub(crate) const NONE: ClauseRef = ClauseRef(u32::MAX);
    const INDEX: u32 = (1 << 30) - 1;

    pub(crate) fn new(index: usize, kind: Kind) -> ClauseRef {
        let index = u32::try_from(index)
            .ok()
            .filter(|&i| i <= ClauseRef::INDEX)
            .expect("clause count fits 30 bits");
        ClauseRef(index | (kind as u32) << 30)
    }

    /// The header's index.
    pub(crate) fn index(self) -> usize {
        (self.0 & ClauseRef::INDEX) as usize
    }

    pub(crate) fn kind(self) -> Kind {
        match self.0 >> 30 {
            0 => Kind::Long,
            1 => Kind::Binary,
            _ => Kind::Group,
        }
    }
}

/// A watcher: clause reference plus a *blocker* literal whose satisfaction
/// lets propagation skip the clause without touching its memory. A binary
/// clause's blocker is its other literal; a group's is the watched member
/// itself.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Watcher {
    pub(crate) cref: ClauseRef,
    pub(crate) blocker: Lit,
}

/// Fills slab slots no list owns.
const VACANT: Watcher = Watcher {
    cref: ClauseRef::NONE,
    blocker: Lit::pos(0),
};

/// Where one literal's list sits in the slab.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Span {
    pub(crate) start: u32,
    pub(crate) len: u32,
    cap: u32,
}

impl Span {
    /// Slab indices of the list's watchers.
    pub(crate) fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// Every literal's watch list, indexed by [`Lit::code`].
#[derive(Debug, Clone, Default)]
pub(crate) struct WatchSlab {
    pub(crate) slab: Vec<Watcher>,
    pub(crate) spans: Vec<Span>,
}

impl WatchSlab {
    /// Empty every list and forget every count, keeping `num_lits` lists,
    /// for a count and a lay-out.
    pub(crate) fn reset(&mut self, num_lits: usize) {
        self.slab.clear();
        self.spans.clear();
        self.spans.resize(num_lits, Span::default());
    }

    /// Count one more watcher for `code`'s list in the coming lay-out.
    pub(crate) fn count(&mut self, code: usize) {
        self.spans[code].cap += 1;
    }

    /// Empty every list and place them back to back, each with the
    /// capacity counted for it since the last reset.
    pub(crate) fn lay_out(&mut self) {
        let mut start = 0u32;
        for s in &mut self.spans {
            s.start = start;
            s.len = 0;
            start = start.checked_add(s.cap).expect("watchers fit u32");
        }
        self.slab.clear();
        self.slab.resize(start as usize, VACANT);
    }

    /// Append `w` to `code`'s list, moving the list to the slab's tail at
    /// double capacity when it is full.
    pub(crate) fn push(&mut self, code: usize, w: Watcher) {
        let mut s = self.spans[code];
        if s.len == s.cap {
            let new_start = self.slab.len();
            s.cap = (2 * s.cap).max(4);
            self.slab.extend_from_within(s.range());
            self.slab.resize(new_start + s.cap as usize, VACANT);
            s.start = u32::try_from(new_start).expect("watch slab fits u32");
        }
        self.slab[(s.start + s.len) as usize] = w;
        s.len += 1;
        self.spans[code] = s;
    }

    /// Bytes of capacity held.
    pub(crate) fn bytes(&self) -> usize {
        crate::recycle::bytes(&self.slab) + crate::recycle::bytes(&self.spans)
    }

    /// Every live watcher, list by list.
    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Watcher> + '_ {
        self.spans.iter().flat_map(|s| &self.slab[s.range()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clause_refs_carry_their_kind() {
        for kind in [Kind::Long, Kind::Binary, Kind::Group] {
            for index in [0, 1, 12_345, (1 << 30) - 1] {
                let cref = ClauseRef::new(index, kind);
                assert_eq!((cref.index(), cref.kind()), (index, kind));
                assert_ne!(cref, ClauseRef::NONE);
            }
        }
    }

    fn w(index: usize) -> Watcher {
        Watcher {
            cref: ClauseRef::new(index, Kind::Long),
            blocker: Lit::pos(0),
        }
    }

    fn list(ws: &WatchSlab, code: usize) -> Vec<usize> {
        ws.slab[ws.spans[code].range()]
            .iter()
            .map(|w| w.cref.index())
            .collect()
    }

    /// Lists keep their push order through moves to the tail, as one
    /// `Vec` per literal would, and the counted lay-out moves nothing.
    #[test]
    fn lists_behave_like_one_vec_per_literal() {
        let mut ws = WatchSlab::default();
        ws.reset(3);
        ws.count(0);
        ws.count(2);
        ws.count(2);
        ws.lay_out();
        assert_eq!(ws.slab.len(), 3);
        let mut naive: Vec<Vec<usize>> = vec![Vec::new(); 3];
        for (k, code) in [2, 0, 2, 1, 1, 0, 2, 2, 2, 0, 1, 2, 2, 2, 2]
            .into_iter()
            .enumerate()
        {
            ws.push(code, w(k));
            naive[code].push(k);
            if k == 2 {
                assert_eq!(ws.slab.len(), 3, "counted pushes never move a list");
            }
            for (c, expected) in naive.iter().enumerate() {
                assert_eq!(&list(&ws, c), expected);
            }
        }
        ws.reset(3);
        ws.count(1);
        ws.lay_out();
        assert_eq!(ws.slab.len(), 1);
        assert!(ws.iter().next().is_none());
    }
}
