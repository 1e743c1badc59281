//! Flat row-major storage for batches of variable-length vector sequences.
//!
//! Batched LSTM inference consumes "a batch of sequences of input vectors".
//! Materializing that as `Vec<Vec<Vec<f32>>>` costs one heap allocation per
//! step vector and scatters the rows across the heap; a [`SequenceBatch`]
//! keeps every row in one contiguous row-major buffer (like a ragged tensor)
//! so building the batch is a series of `memcpy`s and stepping it is
//! cache-friendly.

/// A batch of variable-length sequences of fixed-dimension `f32` rows, stored
/// contiguously in one row-major buffer.
///
/// Build order is append-only: call [`SequenceBatch::begin_sequence`] to open
/// a sequence, then [`SequenceBatch::push_row`] once per step. Rows of a
/// sequence are contiguous, sequences are laid out in build order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SequenceBatch {
    data: Vec<f32>,
    /// Row index at which each sequence starts; `starts[i]..starts[i + 1]`
    /// (or `rows()` for the last sequence) are sequence `i`'s rows.
    starts: Vec<usize>,
    dim: usize,
}

impl SequenceBatch {
    /// Creates an empty batch of rows with `dim` columns.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        SequenceBatch {
            data: Vec::new(),
            starts: Vec::new(),
            dim,
        }
    }

    /// Creates an empty batch with room for `rows` rows of `dim` columns.
    #[must_use]
    pub fn with_capacity(dim: usize, rows: usize, sequences: usize) -> Self {
        SequenceBatch {
            data: Vec::with_capacity(dim * rows),
            starts: Vec::with_capacity(sequences),
            dim,
        }
    }

    /// Row width.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of sequences begun so far.
    #[must_use]
    pub fn num_sequences(&self) -> usize {
        self.starts.len()
    }

    /// Whether the batch holds no sequences.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Total number of rows across all sequences.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.data.len().checked_div(self.dim).unwrap_or(0)
    }

    /// Number of rows (steps) of sequence `index`.
    #[must_use]
    pub fn seq_len(&self, index: usize) -> usize {
        let start = self.starts[index];
        let end = self
            .starts
            .get(index + 1)
            .copied()
            .unwrap_or_else(|| self.rows());
        end - start
    }

    /// Opens a new (initially empty) sequence; subsequent
    /// [`SequenceBatch::push_row`] calls append rows to it.
    pub fn begin_sequence(&mut self) {
        self.starts.push(self.rows());
    }

    /// Appends one zero-initialized row to the current sequence and returns
    /// it for the caller to fill.
    ///
    /// # Panics
    ///
    /// Panics if no sequence has been begun.
    pub fn push_row(&mut self) -> &mut [f32] {
        assert!(!self.starts.is_empty(), "push_row before begin_sequence");
        let at = self.data.len();
        self.data.resize(at + self.dim, 0.0);
        &mut self.data[at..]
    }

    /// Row `step` of sequence `index`.
    #[must_use]
    pub fn row(&self, index: usize, step: usize) -> &[f32] {
        debug_assert!(step < self.seq_len(index), "step out of range");
        let row = self.starts[index] + step;
        &self.data[row * self.dim..(row + 1) * self.dim]
    }

    /// Clears all rows and sequences, keeping the allocations.
    pub fn clear(&mut self) {
        self.data.clear();
        self.starts.clear();
    }
}

/// A length-sorted, time-major repacking of a [`SequenceBatch`] — the layout
/// the gather-free batched LSTM training pass consumes.
///
/// Sequences are ordered longest-first (ties keep input order, making the
/// layout deterministic), and all rows belonging to time step `t` are stored
/// contiguously: slot `s` of step `t`'s slab is step `t` of the `s`-th
/// longest sequence. Because the order is length-descending, the sequences
/// still active at step `t` always form the prefix `0..active_rows(t)` of
/// the slot space, so a step's inputs are one contiguous slab that can be
/// fed straight into the blocked matmul (`Matrix::matmul_slab_into`) with no
/// per-step row gather. The same `(t, slot)` addressing is reused by the
/// batched training cache and its gradient output, which is what makes the
/// deferred gradient-accumulation sweep replayable in the per-sample
/// reference order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimeMajorBatch {
    dim: usize,
    /// Slot -> original sequence index, length-descending, ties index-ascending.
    order: Vec<usize>,
    /// Original sequence index -> slot (inverse of `order`).
    slot_of: Vec<usize>,
    /// Per-slot sequence length (non-increasing).
    lens: Vec<usize>,
    /// `active[t]` = number of slots whose sequence has more than `t` steps.
    active: Vec<usize>,
    /// `step_offsets[t]` = first row of step `t`'s slab; one extra entry
    /// holds the total row count.
    step_offsets: Vec<usize>,
    data: Vec<f32>,
}

impl TimeMajorBatch {
    /// Repacks a sequence-major [`SequenceBatch`] into the time-major
    /// layout. Each input row is copied exactly once (the same copy volume
    /// the per-step gather used to pay inside the hot loop, moved to one
    /// sequential pass).
    #[must_use]
    pub fn from_batch(batch: &SequenceBatch) -> Self {
        let dim = batch.dim();
        let mut order: Vec<usize> = (0..batch.num_sequences()).collect();
        order.sort_by(|&a, &b| batch.seq_len(b).cmp(&batch.seq_len(a)).then(a.cmp(&b)));
        let mut slot_of = vec![0; order.len()];
        for (slot, &seq) in order.iter().enumerate() {
            slot_of[seq] = slot;
        }
        let lens: Vec<usize> = order.iter().map(|&seq| batch.seq_len(seq)).collect();
        let max_len = lens.first().copied().unwrap_or(0);
        let mut active = Vec::with_capacity(max_len);
        let mut step_offsets = Vec::with_capacity(max_len + 1);
        let mut data = Vec::with_capacity(batch.rows() * dim);
        let mut offset = 0;
        for t in 0..max_len {
            step_offsets.push(offset);
            // `lens` is sorted descending, so the active sequences are a
            // prefix of the slot space.
            let still_active = lens.partition_point(|&len| len > t);
            active.push(still_active);
            for &seq in &order[..still_active] {
                data.extend_from_slice(batch.row(seq, t));
            }
            offset += still_active;
        }
        step_offsets.push(offset);
        TimeMajorBatch {
            dim,
            order,
            slot_of,
            lens,
            active,
            step_offsets,
            data,
        }
    }

    /// A zero-filled batch with the same layout (and an arbitrary new row
    /// width) — the shape the batched LSTM backward writes its per-step
    /// input gradients into.
    #[must_use]
    pub fn zeros_like(&self, dim: usize) -> Self {
        TimeMajorBatch {
            dim,
            order: self.order.clone(),
            slot_of: self.slot_of.clone(),
            lens: self.lens.clone(),
            active: self.active.clone(),
            step_offsets: self.step_offsets.clone(),
            data: vec![0.0; self.step_offsets.last().copied().unwrap_or(0) * dim],
        }
    }

    /// Row width.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of sequences (slots), including empty ones.
    #[must_use]
    pub fn num_sequences(&self) -> usize {
        self.order.len()
    }

    /// Length of the longest sequence.
    #[must_use]
    pub fn max_len(&self) -> usize {
        self.active.len()
    }

    /// Number of sequences still active at step `t` — they occupy slots
    /// `0..active_rows(t)`.
    #[must_use]
    pub fn active_rows(&self, t: usize) -> usize {
        self.active[t]
    }

    /// The contiguous slab of step `t`: `active_rows(t)` rows of `dim`
    /// columns, slot-major.
    #[must_use]
    pub fn step_rows(&self, t: usize) -> &[f32] {
        &self.data[self.step_offsets[t] * self.dim..self.step_offsets[t + 1] * self.dim]
    }

    /// Mutable contiguous slab of step `t` — the destination the batched
    /// LSTM backward GEMMs its per-step input gradients straight into.
    pub fn step_rows_mut(&mut self, t: usize) -> &mut [f32] {
        &mut self.data[self.step_offsets[t] * self.dim..self.step_offsets[t + 1] * self.dim]
    }

    /// Original sequence index of slot `slot`.
    #[must_use]
    pub fn sequence_for_slot(&self, slot: usize) -> usize {
        self.order[slot]
    }

    /// Slot of original sequence `seq`.
    #[must_use]
    pub fn slot_of(&self, seq: usize) -> usize {
        self.slot_of[seq]
    }

    /// Length of the sequence in slot `slot` (non-increasing in `slot`).
    #[must_use]
    pub fn slot_len(&self, slot: usize) -> usize {
        self.lens[slot]
    }

    /// Row `(t, slot)` — step `t` of the sequence occupying `slot`.
    #[must_use]
    pub fn row(&self, t: usize, slot: usize) -> &[f32] {
        debug_assert!(slot < self.active[t], "slot inactive at step {t}");
        let row = self.step_offsets[t] + slot;
        &self.data[row * self.dim..(row + 1) * self.dim]
    }

    /// Mutable row `(t, slot)`.
    pub fn row_mut(&mut self, t: usize, slot: usize) -> &mut [f32] {
        debug_assert!(slot < self.active[t], "slot inactive at step {t}");
        let row = self.step_offsets[t] + slot;
        &mut self.data[row * self.dim..(row + 1) * self.dim]
    }
}

/// A prefix-sharing batch of variable-length vector sequences: a trie whose
/// nodes are (key, input row) pairs grouped by depth.
///
/// An LSTM's state after consuming a prefix depends only on that prefix, so
/// two sequences sharing a prefix can share its computation — bit-identical
/// to stepping each sequence separately. Callers insert sequences step by
/// step with an opaque `u64` key per step (a token id, a packed pair, …; two
/// steps may share a key only if their input rows are identical);
/// [`SequenceTrie::push_step`] returns `Some(row)` exactly when the step
/// created a new node whose input row must be filled. The fitness network's
/// batched trace-value encoding drops ~30% of its LSTM steps this way —
/// candidate trace values share list prefixes heavily.
///
/// Consumed by `Lstm::forward_batch_trie`.
#[derive(Debug, Clone, Default)]
pub struct SequenceTrie {
    dim: usize,
    levels: Vec<TrieLevel>,
    /// Per sequence: the (level, slot) its last step landed on; `None` for
    /// an empty sequence.
    terminals: Vec<Option<(usize, usize)>>,
    lookup: crate::hash::FxHashMap<(usize, usize, u64), usize>,
    /// Builder cursor: the node the current sequence last descended to.
    cursor: Option<(usize, usize)>,
}

/// One trie depth: every node at this depth, with its parent's slot in the
/// previous level (`usize::MAX` for depth 0, whose parent is the root) and
/// its input row in flat row-major storage.
#[derive(Debug, Clone, Default)]
pub(crate) struct TrieLevel {
    pub(crate) parents: Vec<usize>,
    pub(crate) rows: Vec<f32>,
}

impl SequenceTrie {
    /// Creates an empty trie of rows with `dim` columns.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        SequenceTrie {
            dim,
            ..SequenceTrie::default()
        }
    }

    /// Row width.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of sequences begun so far.
    #[must_use]
    pub fn num_sequences(&self) -> usize {
        self.terminals.len()
    }

    /// Whether the trie holds no sequences.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.terminals.is_empty()
    }

    /// Number of trie nodes (the LSTM steps actually computed).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.levels.iter().map(|l| l.parents.len()).sum()
    }

    /// Starts a new, initially empty sequence at the root.
    pub fn begin_sequence(&mut self) {
        self.cursor = None;
        self.terminals.push(None);
    }

    /// Descends one step along `key` from the current sequence's position.
    ///
    /// Returns `Some(row)` when the step created a new node: the caller must
    /// fill the returned (zero-initialized) input row. Returns `None` when a
    /// previous sequence already took this step — the existing node (and its
    /// already-filled row) is shared.
    ///
    /// # Panics
    ///
    /// Panics if no sequence has been begun.
    pub fn push_step(&mut self, key: u64) -> Option<&mut [f32]> {
        let terminal = self
            .terminals
            .last_mut()
            .expect("push_step before begin_sequence");
        let (level, parent_slot) = match self.cursor {
            None => (0, usize::MAX),
            Some((level, slot)) => (level + 1, slot),
        };
        if self.levels.len() == level {
            self.levels.push(TrieLevel::default());
        }
        if let Some(&slot) = self.lookup.get(&(level, parent_slot, key)) {
            self.cursor = Some((level, slot));
            *terminal = self.cursor;
            return None;
        }
        let nodes = &mut self.levels[level];
        let slot = nodes.parents.len();
        nodes.parents.push(parent_slot);
        let at = nodes.rows.len();
        nodes.rows.resize(at + self.dim, 0.0);
        self.lookup.insert((level, parent_slot, key), slot);
        self.cursor = Some((level, slot));
        *terminal = self.cursor;
        Some(&mut self.levels[level].rows[at..])
    }

    /// The per-depth node levels (for the LSTM evaluator).
    pub(crate) fn levels(&self) -> &[TrieLevel] {
        &self.levels
    }

    /// The terminal node of each sequence, as `(depth, slot)`; `None` for
    /// an empty sequence. Two sequences share a terminal exactly when their
    /// step keys are equal, so a terminal names its whole key sequence.
    #[must_use]
    pub fn terminals(&self) -> &[Option<(usize, usize)>] {
        &self.terminals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_ragged_sequences() {
        let mut batch = SequenceBatch::new(2);
        assert!(batch.is_empty());
        batch.begin_sequence();
        batch.push_row().copy_from_slice(&[1.0, 2.0]);
        batch.push_row().copy_from_slice(&[3.0, 4.0]);
        batch.begin_sequence(); // empty sequence
        batch.begin_sequence();
        batch.push_row().copy_from_slice(&[5.0, 6.0]);
        assert_eq!(batch.num_sequences(), 3);
        assert_eq!(batch.rows(), 3);
        assert_eq!(batch.seq_len(0), 2);
        assert_eq!(batch.seq_len(1), 0);
        assert_eq!(batch.seq_len(2), 1);
        assert_eq!(batch.row(0, 1), &[3.0, 4.0]);
        assert_eq!(batch.row(2, 0), &[5.0, 6.0]);
        assert_eq!(batch.dim(), 2);
    }

    #[test]
    fn clear_retains_capacity_semantics() {
        let mut batch = SequenceBatch::with_capacity(3, 4, 2);
        batch.begin_sequence();
        batch.push_row()[0] = 9.0;
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(batch.rows(), 0);
        batch.begin_sequence();
        assert_eq!(batch.push_row(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn time_major_repacking_is_length_sorted_and_contiguous() {
        let mut batch = SequenceBatch::new(1);
        // Lengths 2, 0, 3, 2 — sorted order is 2, 0, 3 (ties keep input
        // order), then the empty sequence.
        for rows in [&[1.0, 2.0][..], &[], &[10.0, 20.0, 30.0], &[5.0, 6.0]] {
            batch.begin_sequence();
            for &v in rows {
                batch.push_row()[0] = v;
            }
        }
        let tm = TimeMajorBatch::from_batch(&batch);
        assert_eq!(tm.num_sequences(), 4);
        assert_eq!(tm.dim(), 1);
        assert_eq!(tm.max_len(), 3);
        assert_eq!(
            (0..4).map(|s| tm.sequence_for_slot(s)).collect::<Vec<_>>(),
            vec![2, 0, 3, 1]
        );
        assert_eq!(tm.slot_of(2), 0);
        assert_eq!(tm.slot_of(1), 3);
        assert_eq!(tm.slot_len(0), 3);
        assert_eq!(tm.slot_len(3), 0);
        assert_eq!(
            (0..3).map(|t| tm.active_rows(t)).collect::<Vec<_>>(),
            vec![3, 3, 1]
        );
        // Step slabs are contiguous in slot order.
        assert_eq!(tm.step_rows(0), &[10.0, 1.0, 5.0]);
        assert_eq!(tm.step_rows(1), &[20.0, 2.0, 6.0]);
        assert_eq!(tm.step_rows(2), &[30.0]);
        assert_eq!(tm.row(1, 2), &[6.0]);
        // Gradient-shaped clone: same layout, fresh width, all zero.
        let mut grads = tm.zeros_like(2);
        assert_eq!(grads.max_len(), 3);
        assert_eq!(grads.step_rows(0), &[0.0; 6]);
        grads.row_mut(2, 0).copy_from_slice(&[7.0, 8.0]);
        assert_eq!(grads.step_rows(2), &[7.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "push_row before begin_sequence")]
    fn push_row_requires_a_sequence() {
        let mut batch = SequenceBatch::new(1);
        let _ = batch.push_row();
    }

    #[test]
    fn trie_shares_prefixes_and_tracks_terminals() {
        let mut trie = SequenceTrie::new(1);
        // Sequences: [1,2,3], [1,2], [1,4], [] — prefix [1,2] shared.
        trie.begin_sequence();
        assert!(trie.push_step(1).is_some());
        assert!(trie.push_step(2).is_some());
        assert!(trie.push_step(3).is_some());
        trie.begin_sequence();
        assert!(trie.push_step(1).is_none());
        assert!(trie.push_step(2).is_none());
        trie.begin_sequence();
        assert!(trie.push_step(1).is_none());
        assert!(trie.push_step(4).is_some());
        trie.begin_sequence();
        assert_eq!(trie.num_sequences(), 4);
        assert_eq!(trie.node_count(), 4); // 1, 1-2, 1-2-3, 1-4
        assert_eq!(trie.terminals()[0], Some((2, 0)));
        assert_eq!(trie.terminals()[1], Some((1, 0)));
        assert_eq!(trie.terminals()[2], Some((1, 1)));
        assert_eq!(trie.terminals()[3], None);
        // Distinct keys under distinct parents do not collide.
        assert_eq!(trie.levels()[1].parents, vec![0, 0]);
        assert!(!trie.is_empty());
        assert_eq!(trie.dim(), 1);
    }

    #[test]
    #[should_panic(expected = "push_step before begin_sequence")]
    fn push_step_requires_a_sequence() {
        let mut trie = SequenceTrie::new(1);
        let _ = trie.push_step(0);
    }
}
