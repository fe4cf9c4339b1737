//! Compressed-sparse-row digraph with an iterative Tarjan SCC pass, sized
//! for Régin-style residual value graphs.
//!
//! The GAC `AllDifferent` propagator rebuilds the *residual graph* of its
//! maximum matching on every run: variable nodes, value nodes and one sink
//! node, with arc directions encoding residual capacity (unmatched
//! variable→value arcs, matched value→variable arcs, and sink arcs carrying
//! unused/used value capacity). By Berge's theorem an unmatched edge
//! `(x, v)` belongs to *some* maximum matching — i.e. value `v` is
//! generalized-arc-consistent for `x` — iff it lies on an alternating cycle
//! or an even alternating path from a free vertex; routing free-capacity
//! arcs through the sink folds both cases into one condition: `x` and `v`
//! are in the same strongly connected component. One Tarjan pass over this
//! graph therefore identifies *every* prunable value at once.
//!
//! The struct owns all its scratch (CSR arrays, Tarjan stacks), so a
//! propagator can rebuild and re-run it every wakeup with zero steady-state
//! allocation. Tarjan is implemented iteratively — an explicit DFS frame
//! stack — because residual graphs of paper-scale instances can chain
//! hundreds of nodes and recursion depth would track the longest
//! alternating path.

/// Sentinel for "not yet visited" in the Tarjan index array.
const UNSEEN: u32 = u32::MAX;

/// A reusable CSR digraph plus Tarjan SCC scratch.
///
/// Lifecycle per propagator run: [`Scc::reset`] with the node count, one
/// [`Scc::add_arc`] pass (arc order is irrelevant), [`Scc::run`], then read
/// [`Scc::comp`] to test same-component membership.
#[derive(Debug, Default, Clone)]
pub struct Scc {
    n: usize,
    /// Arcs as pushed: (from, to). Compressed into CSR by `run`.
    arcs: Vec<(u32, u32)>,
    /// CSR row starts, length `n + 1` after compression.
    heads: Vec<u32>,
    /// CSR arc targets, parallel to the compressed order.
    targets: Vec<u32>,
    /// Per-row write cursors for the CSR fill pass (kept to avoid
    /// reallocating every run).
    cursor: Vec<u32>,
    /// Tarjan discovery index per node (`UNSEEN` before the DFS reaches it).
    index: Vec<u32>,
    /// Smallest discovery index reachable from the node's DFS subtree.
    lowlink: Vec<u32>,
    on_stack: Vec<bool>,
    stack: Vec<u32>,
    /// DFS frames: (node, next arc offset to scan).
    frames: Vec<(u32, u32)>,
    /// Component id per node, valid after [`Scc::run`].
    comp: Vec<u32>,
}

impl Scc {
    /// A fresh instance with no capacity reserved.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes of capacity held by the graph and its scratch.
    pub(crate) fn bytes(&self) -> usize {
        use mgrts_obs::recycle::bytes;
        bytes(&self.arcs)
            + bytes(&self.heads)
            + bytes(&self.targets)
            + bytes(&self.cursor)
            + bytes(&self.index)
            + bytes(&self.lowlink)
            + bytes(&self.on_stack)
            + bytes(&self.stack)
            + bytes(&self.frames)
            + bytes(&self.comp)
    }

    /// Clear the graph and size it for `n` nodes. Keeps allocations.
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        self.arcs.clear();
    }

    /// Add the arc `from → to`. Both endpoints must be `< n`.
    pub fn add_arc(&mut self, from: u32, to: u32) {
        debug_assert!((from as usize) < self.n && (to as usize) < self.n);
        self.arcs.push((from, to));
    }

    /// Component id of `node` (valid after [`Scc::run`]). Two nodes are in
    /// the same strongly connected component iff their ids are equal.
    #[must_use]
    pub fn comp(&self, node: u32) -> u32 {
        self.comp[node as usize]
    }

    /// Compress the arc list into CSR form and compute strongly connected
    /// components with an iterative Tarjan DFS over every node.
    pub fn run(&mut self) {
        let n = self.n;
        // Counting sort of arcs by source: degree count, prefix sum, fill.
        self.heads.clear();
        self.heads.resize(n + 1, 0);
        for &(from, _) in &self.arcs {
            self.heads[from as usize + 1] += 1;
        }
        for i in 0..n {
            self.heads[i + 1] += self.heads[i];
        }
        self.targets.resize(self.arcs.len(), 0);
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.heads[..n]);
        for &(from, to) in &self.arcs {
            let slot = self.cursor[from as usize] as usize;
            self.targets[slot] = to;
            self.cursor[from as usize] += 1;
        }

        self.index.clear();
        self.index.resize(n, UNSEEN);
        self.lowlink.clear();
        self.lowlink.resize(n, 0);
        self.on_stack.clear();
        self.on_stack.resize(n, false);
        self.comp.clear();
        self.comp.resize(n, 0);
        self.stack.clear();
        self.frames.clear();

        let mut next_index = 0u32;
        let mut next_comp = 0u32;
        for root in 0..n as u32 {
            if self.index[root as usize] != UNSEEN {
                continue;
            }
            self.push_frame(root, &mut next_index);
            while let Some(&mut (node, ref mut arc)) = self.frames.last_mut() {
                let ni = node as usize;
                let row_end = self.heads[ni + 1];
                if *arc < row_end {
                    let to = self.targets[*arc as usize];
                    *arc += 1;
                    let ti = to as usize;
                    if self.index[ti] == UNSEEN {
                        self.push_frame(to, &mut next_index);
                    } else if self.on_stack[ti] {
                        self.lowlink[ni] = self.lowlink[ni].min(self.index[ti]);
                    }
                    continue;
                }
                // Node fully expanded: pop the frame, close the component if
                // this is its root, and fold the lowlink into the parent.
                self.frames.pop();
                if self.lowlink[ni] == self.index[ni] {
                    loop {
                        let w = self.stack.pop().expect("tarjan stack underflow");
                        self.on_stack[w as usize] = false;
                        self.comp[w as usize] = next_comp;
                        if w == node {
                            break;
                        }
                    }
                    next_comp += 1;
                }
                if let Some(&(parent, _)) = self.frames.last() {
                    let pi = parent as usize;
                    self.lowlink[pi] = self.lowlink[pi].min(self.lowlink[ni]);
                }
            }
        }
    }

    fn push_frame(&mut self, node: u32, next_index: &mut u32) {
        let ni = node as usize;
        self.index[ni] = *next_index;
        self.lowlink[ni] = *next_index;
        *next_index += 1;
        self.on_stack[ni] = true;
        self.stack.push(node);
        self.frames.push((node, self.heads[ni]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comps(scc: &Scc, n: u32) -> Vec<u32> {
        (0..n).map(|i| scc.comp(i)).collect()
    }

    #[test]
    fn singletons_without_arcs() {
        let mut g = Scc::new();
        g.reset(3);
        g.run();
        let c = comps(&g, 3);
        assert_eq!(c.iter().collect::<std::collections::HashSet<_>>().len(), 3);
    }

    #[test]
    fn cycle_is_one_component() {
        let mut g = Scc::new();
        g.reset(4);
        g.add_arc(0, 1);
        g.add_arc(1, 2);
        g.add_arc(2, 0);
        g.add_arc(2, 3); // 3 dangles off the cycle
        g.run();
        let c = comps(&g, 4);
        assert_eq!(c[0], c[1]);
        assert_eq!(c[1], c[2]);
        assert_ne!(c[2], c[3]);
    }

    #[test]
    fn two_cycles_bridged_one_way() {
        let mut g = Scc::new();
        g.reset(6);
        for (a, b) in [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)] {
            g.add_arc(a, b);
        }
        g.add_arc(4, 5);
        g.run();
        let c = comps(&g, 6);
        assert_eq!(c[0], c[1]);
        assert_eq!(c[2], c[3]);
        assert_ne!(c[0], c[2], "one-way bridge must not merge the cycles");
        assert_ne!(c[4], c[5]);
    }

    #[test]
    fn reuse_resets_state() {
        let mut g = Scc::new();
        g.reset(2);
        g.add_arc(0, 1);
        g.add_arc(1, 0);
        g.run();
        assert_eq!(g.comp(0), g.comp(1));
        g.reset(2);
        g.run();
        assert_ne!(g.comp(0), g.comp(1), "stale arcs leaked through reset");
    }

    #[test]
    fn deep_path_does_not_overflow() {
        // 10_000-node directed path + back edge: one giant SCC, exercised
        // iteratively (a recursive Tarjan would blow the stack here).
        let n = 10_000u32;
        let mut g = Scc::new();
        g.reset(n as usize);
        for i in 0..n - 1 {
            g.add_arc(i, i + 1);
        }
        g.add_arc(n - 1, 0);
        g.run();
        let c0 = g.comp(0);
        assert!((0..n).all(|i| g.comp(i) == c0));
    }
}
