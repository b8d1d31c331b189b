//! Slicing structures: normalized Polish expressions and the per-node values
//! of the slicing trees they encode.
//!
//! The layout of a set of blocks is represented by a *slicing tree*: every
//! internal node cuts its rectangle either vertically or horizontally and the
//! leaves are blocks.  Following Wong & Liu (DAC'86), the tree is stored as a
//! normalized Polish expression, and the simulated-annealing search of the
//! paper (Sect. IV-E) perturbs that expression with three moves:
//!
//! * **M1** — swap two adjacent operands,
//! * **M2** — complement a chain of operators (`H` ↔ `V`),
//! * **M3** — swap an adjacent operand/operator pair (only when the result is
//!   still a normalized, balloting-valid expression).

use rand::Rng;

/// Direction of the cut performed by an internal slicing-tree node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CutDirection {
    /// Vertical cut: the children are placed side by side (left, right).
    Vertical,
    /// Horizontal cut: the children are stacked (bottom, top).
    Horizontal,
}

impl CutDirection {
    /// The opposite cut direction.
    pub fn flipped(self) -> CutDirection {
        match self {
            CutDirection::Vertical => CutDirection::Horizontal,
            CutDirection::Horizontal => CutDirection::Vertical,
        }
    }
}

/// One token of a Polish expression: either a block index or a cut operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolishToken {
    /// A leaf block, identified by its index.
    Operand(usize),
    /// An internal node cutting in the given direction.
    Operator(CutDirection),
}

impl PolishToken {
    /// Returns `true` for operand tokens.
    pub fn is_operand(&self) -> bool {
        matches!(self, PolishToken::Operand(_))
    }
}

/// A (postfix) Polish expression describing a slicing floorplan of `n` blocks.
///
/// Invariants maintained by every constructor and move:
///
/// * exactly `n` operands, each block index appearing exactly once,
/// * exactly `n - 1` operators,
/// * the *balloting property*: in every prefix, #operands > #operators,
/// * *normalized*: no two consecutive identical operators (avoids redundant
///   representations of the same floorplan).
///
/// # Example
///
/// ```
/// use geometry::{PolishExpression, CutDirection};
///
/// let e = PolishExpression::chain(3, CutDirection::Vertical);
/// assert_eq!(e.num_blocks(), 3);
/// assert!(e.is_valid());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolishExpression {
    tokens: Vec<PolishToken>,
    num_blocks: usize,
}

impl PolishExpression {
    /// Builds the expression `0 1 op 2 op 3 op ...`, i.e. a "staircase" of
    /// alternating cuts starting from `first_cut`. For a single block the
    /// expression is just that operand.
    ///
    /// # Panics
    ///
    /// Panics if `num_blocks == 0`.
    pub fn chain(num_blocks: usize, first_cut: CutDirection) -> Self {
        assert!(num_blocks > 0, "a slicing floorplan needs at least one block");
        let mut tokens = Vec::with_capacity(2 * num_blocks - 1);
        tokens.push(PolishToken::Operand(0));
        let mut cut = first_cut;
        for i in 1..num_blocks {
            tokens.push(PolishToken::Operand(i));
            tokens.push(PolishToken::Operator(cut));
            cut = cut.flipped();
        }
        Self { tokens, num_blocks }
    }

    /// Builds an expression from raw tokens.
    ///
    /// Returns `None` if the token sequence is not a valid normalized Polish
    /// expression over blocks `0..n`.
    pub fn from_tokens(tokens: Vec<PolishToken>) -> Option<Self> {
        let num_blocks = tokens.iter().filter(|t| t.is_operand()).count();
        let e = Self { tokens, num_blocks };
        if e.is_valid() {
            Some(e)
        } else {
            None
        }
    }

    /// The tokens of the expression in postfix order.
    pub fn tokens(&self) -> &[PolishToken] {
        &self.tokens
    }

    /// Number of leaf blocks.
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Checks every structural invariant (see the type-level docs).
    pub fn is_valid(&self) -> bool {
        if self.num_blocks == 0 || self.tokens.len() != 2 * self.num_blocks - 1 {
            return false;
        }
        let mut seen = vec![false; self.num_blocks];
        let mut operands = 0usize;
        let mut operators = 0usize;
        let mut prev_op: Option<CutDirection> = None;
        for t in &self.tokens {
            match *t {
                PolishToken::Operand(i) => {
                    if i >= self.num_blocks || seen[i] {
                        return false;
                    }
                    seen[i] = true;
                    operands += 1;
                    prev_op = None;
                }
                PolishToken::Operator(dir) => {
                    operators += 1;
                    // balloting property: strictly more operands than operators
                    if operators >= operands {
                        return false;
                    }
                    // normalization: no two consecutive identical operators
                    if prev_op == Some(dir) {
                        return false;
                    }
                    prev_op = Some(dir);
                }
            }
        }
        operands == self.num_blocks && operators + 1 == operands
    }

    /// Applies one random Wong–Liu move in place and returns it: its kind and
    /// the contiguous token span it changed, which is what
    /// [`PolishExpression::undo`] and [`SpanCache::update`] need. The move
    /// kinds are chosen with equal probability as in the paper.
    pub fn random_move<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Move {
        // Retry until a move succeeds; M3 can fail on particular positions.
        loop {
            let applied = match rng.gen_range(0..3) {
                0 => self.move_swap_operands(rng),
                1 => self.move_invert_chain(rng),
                _ => self.move_swap_operand_operator(rng),
            };
            if let Some(mv) = applied {
                return mv;
            }
        }
    }

    /// Reverts `mv`, which must be the last move applied to `self`.
    pub fn undo(&mut self, mv: Move) {
        match mv.kind {
            MoveKind::OperandSwap | MoveKind::OperandOperatorSwap => {
                self.tokens.swap(mv.first, mv.last);
            }
            MoveKind::ChainInvert => self.flip_operators(mv.first, mv.last),
        }
    }

    /// M1: swaps two adjacent operands (adjacent in operand order, ignoring
    /// the operators between them). Always succeeds for ≥ 2 blocks.
    pub fn move_swap_operands<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<Move> {
        if self.num_blocks < 2 {
            return None;
        }
        let k = rng.gen_range(0..self.num_blocks - 1);
        let mut operands =
            self.tokens.iter().enumerate().filter(|(_, t)| t.is_operand()).map(|(i, _)| i);
        let first = operands.nth(k)?;
        let last = operands.next()?;
        self.tokens.swap(first, last);
        Some(Move { kind: MoveKind::OperandSwap, first, last })
    }

    /// M2: complements every operator in a randomly chosen maximal operator
    /// chain (`H` ↔ `V`). Always succeeds when at least one operator exists.
    pub fn move_invert_chain<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<Move> {
        let chains = self.operator_chains().count();
        if chains == 0 {
            return None;
        }
        let (start, len) = self.operator_chains().nth(rng.gen_range(0..chains))?;
        let last = start + len - 1;
        self.flip_operators(start, last);
        Some(Move { kind: MoveKind::ChainInvert, first: start, last })
    }

    /// M3: swaps a randomly chosen adjacent operand/operator pair, provided
    /// the result still satisfies balloting and normalization. Returns `None`
    /// if the chosen position is infeasible.
    pub fn move_swap_operand_operator<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<Move> {
        if self.tokens.len() < 3 {
            return None;
        }
        let candidates = self.mixed_pairs().count();
        if candidates == 0 {
            return None;
        }
        let i = self.mixed_pairs().nth(rng.gen_range(0..candidates))?;
        if !self.can_swap_operand_operator(i) {
            return None;
        }
        self.tokens.swap(i, i + 1);
        Some(Move { kind: MoveKind::OperandOperatorSwap, first: i, last: i + 1 })
    }

    /// Whether swapping the operand/operator pair at tokens `i` and `i + 1`
    /// leaves a valid expression (what [`PolishExpression::is_valid`] would
    /// say after the swap), checked locally instead of rescanning every
    /// token.
    ///
    /// Moving the operator right only adds an operand to one prefix, so
    /// balloting holds, and the operator must differ from a following
    /// operator. Moving it left removes that operand from the prefix ending
    /// at `i`, which must keep more operands than operators, and the
    /// operator must differ from a preceding one.
    pub fn can_swap_operand_operator(&self, i: usize) -> bool {
        match (self.tokens.get(i), self.tokens.get(i + 1)) {
            (Some(PolishToken::Operator(dir)), Some(PolishToken::Operand(_))) => {
                self.tokens.get(i + 2) != Some(&PolishToken::Operator(*dir))
            }
            (Some(PolishToken::Operand(_)), Some(PolishToken::Operator(dir))) => {
                let operators = self.tokens[..i].iter().filter(|t| !t.is_operand()).count();
                // after the swap the prefix `..=i` holds `i - operators`
                // operands and `operators + 1` operators
                operators + 1 < i - operators && self.tokens[i - 1] != PolishToken::Operator(*dir)
            }
            _ => false,
        }
    }

    fn flip_operators(&mut self, first: usize, last: usize) {
        for t in &mut self.tokens[first..=last] {
            if let PolishToken::Operator(dir) = t {
                *dir = dir.flipped();
            }
        }
    }

    /// Positions `i` where tokens `i` and `i + 1` are one operand and one
    /// operator, in either order.
    fn mixed_pairs(&self) -> impl Iterator<Item = usize> + '_ {
        self.tokens
            .windows(2)
            .enumerate()
            .filter(|(_, pair)| pair[0].is_operand() != pair[1].is_operand())
            .map(|(i, _)| i)
    }

    /// Maximal runs of consecutive operators as `(start_index, length)`.
    fn operator_chains(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let mut i = 0;
        std::iter::from_fn(move || {
            while i < self.tokens.len() && self.tokens[i].is_operand() {
                i += 1;
            }
            let start = i;
            while i < self.tokens.len() && !self.tokens[i].is_operand() {
                i += 1;
            }
            (i > start).then_some((start, i - start))
        })
    }
}

/// Which of the three annealing moves was applied by [`PolishExpression::random_move`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveKind {
    /// Two adjacent operands were exchanged.
    OperandSwap,
    /// An operator chain was complemented.
    ChainInvert,
    /// An adjacent operand/operator pair was exchanged.
    OperandOperatorSwap,
}

/// One applied Wong–Liu move: its kind and the contiguous span of tokens it
/// changed. Every move edits one such span (Wong & Liu, DAC 1986), which is
/// what lets [`SpanCache`] recompose only the subtrees around it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Move {
    /// Which move was applied.
    pub kind: MoveKind,
    /// First token the move changed.
    pub first: usize,
    /// Last token the move changed (inclusive).
    pub last: usize,
}

/// Computes the values a [`SpanCache`] keeps at the nodes of a slicing tree.
pub trait NodeValues {
    /// The value kept at every node.
    type Value: Default;

    /// Writes the value of the leaf holding `block` into `out`.
    fn leaf(&self, block: usize, out: &mut Self::Value);

    /// Writes the value of a node cutting in direction `cut` over its
    /// `left` (or bottom) and `right` (or top) children into `out`.
    fn cut(
        &self,
        cut: CutDirection,
        left: &Self::Value,
        right: &Self::Value,
        out: &mut Self::Value,
    );
}

/// The value of every node of a slicing tree, kept in postfix order and
/// recomposed incrementally as annealing moves edit the expression.
///
/// Token `k` of a Polish expression is the root of the subtree whose tokens
/// are `start(k)..=k`. A node reads only the tokens of its own span, so a
/// node whose span misses the span a [`Move`] touched keeps its subtree and
/// its value. [`SpanCache::update`] recomposes just the nodes whose span
/// meets the touched one, the nodes inside it and their ancestors, into
/// scratch slots; [`SpanCache::commit`] keeps them when the annealer accepts
/// the move and [`SpanCache::discard`] drops them when it rejects. Values
/// keep their buffers across moves, so a warm cache does not allocate.
///
/// Until the move is settled, [`SpanCache::start`], [`SpanCache::value`]
/// and [`SpanCache::root`] describe the moved expression.
#[derive(Debug, Clone, Default)]
pub struct SpanCache<T> {
    start: Vec<usize>,
    value: Vec<T>,
    next_start: Vec<usize>,
    next_value: Vec<T>,
    /// Whether a node's scratch slot holds the unsettled move's value.
    pending: Vec<bool>,
    /// The nodes with `pending` set.
    touched: Vec<usize>,
    compositions: u64,
}

impl<T: Default> SpanCache<T> {
    /// An empty cache; [`SpanCache::rebuild`] fills it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Computes every node of `expr` from scratch, dropping any unsettled move.
    pub fn rebuild<V: NodeValues<Value = T>>(&mut self, expr: &PolishExpression, values: &V) {
        self.discard();
        let len = expr.tokens.len();
        self.start.resize(len, 0);
        self.next_start.resize(len, 0);
        self.pending.resize(len, false);
        self.value.resize_with(len, T::default);
        self.next_value.resize_with(len, T::default);
        for (k, &token) in expr.tokens.iter().enumerate() {
            let (done, rest) = self.value.split_at_mut(k);
            match token {
                PolishToken::Operand(block) => {
                    self.start[k] = k;
                    values.leaf(block, &mut rest[0]);
                }
                PolishToken::Operator(cut) => {
                    let left = self.start[k - 1] - 1;
                    self.start[k] = self.start[left];
                    values.cut(cut, &done[left], &done[k - 1], &mut rest[0]);
                    self.compositions += 1;
                }
            }
        }
    }

    /// Recomposes the nodes of `expr` whose span meets the span `mv`
    /// touched. `expr` must be the cached expression with `mv` applied; any
    /// earlier unsettled move is dropped first.
    pub fn update<V: NodeValues<Value = T>>(
        &mut self,
        expr: &PolishExpression,
        mv: Move,
        values: &V,
    ) {
        self.discard();
        for k in mv.first..expr.tokens.len() {
            let start = match expr.tokens[k] {
                PolishToken::Operand(block) if k <= mv.last => {
                    values.leaf(block, &mut self.next_value[k]);
                    k
                }
                PolishToken::Operand(_) => continue,
                PolishToken::Operator(cut) => {
                    let left = self.start(k - 1) - 1;
                    let start = self.start(left);
                    if k > mv.last && start > mv.last {
                        continue;
                    }
                    let Self { value, next_value, pending, .. } = self;
                    let (done, rest) = next_value.split_at_mut(k);
                    let child = |c: usize| if pending[c] { &done[c] } else { &value[c] };
                    values.cut(cut, child(left), child(k - 1), &mut rest[0]);
                    self.compositions += 1;
                    start
                }
            };
            self.next_start[k] = start;
            self.pending[k] = true;
            self.touched.push(k);
        }
    }

    /// Keeps the values of the last [`SpanCache::update`].
    pub fn commit(&mut self) {
        for &k in &self.touched {
            std::mem::swap(&mut self.value[k], &mut self.next_value[k]);
            self.start[k] = self.next_start[k];
            self.pending[k] = false;
        }
        self.touched.clear();
    }

    /// Drops the values of the last [`SpanCache::update`].
    pub fn discard(&mut self) {
        for &k in &self.touched {
            self.pending[k] = false;
        }
        self.touched.clear();
    }

    /// First token of the subtree rooted at token `k`.
    pub fn start(&self, k: usize) -> usize {
        if self.pending[k] {
            self.next_start[k]
        } else {
            self.start[k]
        }
    }

    /// The value of the node at token `k`.
    pub fn value(&self, k: usize) -> &T {
        if self.pending[k] {
            &self.next_value[k]
        } else {
            &self.value[k]
        }
    }

    /// The value of the root (the last token).
    ///
    /// # Panics
    ///
    /// Panics if the cache was never built.
    pub fn root(&self) -> &T {
        self.value(self.value.len() - 1)
    }

    /// Internal-node compositions performed since the cache was created:
    /// a clock-free measure of the annealer's work.
    pub fn compositions(&self) -> u64 {
        self.compositions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{ChaCha8Rng, SeedableRng};

    #[test]
    fn chain_expression_is_valid() {
        for n in 1..10 {
            let e = PolishExpression::chain(n, CutDirection::Vertical);
            assert!(e.is_valid(), "chain of {n} blocks should be valid");
            assert_eq!(e.num_blocks(), n);
        }
    }

    #[test]
    fn invalid_expressions_rejected() {
        use CutDirection::*;
        use PolishToken::*;
        // operator before enough operands
        assert!(PolishExpression::from_tokens(vec![Operand(0), Operator(Vertical), Operand(1)])
            .is_none());
        // duplicate operand
        assert!(PolishExpression::from_tokens(vec![Operand(0), Operand(0), Operator(Vertical)])
            .is_none());
        // consecutive identical operators (not normalized)
        assert!(PolishExpression::from_tokens(vec![
            Operand(0),
            Operand(1),
            Operand(2),
            Operator(Vertical),
            Operator(Vertical),
        ])
        .is_none());
        // valid alternatives
        assert!(PolishExpression::from_tokens(vec![
            Operand(0),
            Operand(1),
            Operand(2),
            Operator(Vertical),
            Operator(Horizontal),
        ])
        .is_some());
        assert!(PolishExpression::from_tokens(vec![
            Operand(0),
            Operand(1),
            Operator(Vertical),
            Operand(2),
            Operator(Horizontal),
        ])
        .is_some());
    }

    #[test]
    fn moves_preserve_validity() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let mut e = PolishExpression::chain(8, CutDirection::Horizontal);
        for _ in 0..500 {
            e.random_move(&mut rng);
            assert!(e.is_valid());
        }
    }

    /// Block indices left to right: the operands in postfix order.
    fn leaf_order(e: &PolishExpression) -> Vec<usize> {
        e.tokens()
            .iter()
            .filter_map(|t| match *t {
                PolishToken::Operand(block) => Some(block),
                PolishToken::Operator(_) => None,
            })
            .collect()
    }

    #[test]
    fn single_block_tree() {
        let e = PolishExpression::chain(1, CutDirection::Vertical);
        assert_eq!(e.tokens(), &[PolishToken::Operand(0)]);
        assert_eq!(leaf_order(&e), vec![0]);
    }

    #[test]
    fn tree_has_all_leaves_once() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut e = PolishExpression::chain(6, CutDirection::Vertical);
        for _ in 0..100 {
            e.random_move(&mut rng);
        }
        let mut leaves = leaf_order(&e);
        leaves.sort_unstable();
        assert_eq!(leaves, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(e.tokens().len(), 2 * 6 - 1);
    }

    #[test]
    fn operand_swap_changes_leaf_order() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut e = PolishExpression::chain(4, CutDirection::Vertical);
        let before = leaf_order(&e);
        e.move_swap_operands(&mut rng).unwrap();
        let after = leaf_order(&e);
        assert_ne!(before, after);
    }

    #[test]
    fn chain_invert_flips_cuts() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut e = PolishExpression::chain(2, CutDirection::Vertical);
        assert!(e.move_invert_chain(&mut rng).is_some());
        match e.tokens()[2] {
            PolishToken::Operator(dir) => assert_eq!(dir, CutDirection::Horizontal),
            _ => panic!("expected operator"),
        }
    }
}
