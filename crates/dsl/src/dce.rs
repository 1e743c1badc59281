//! Dead-code analysis and elimination.
//!
//! A statement is *dead* when its output is never consumed by a later
//! statement (directly or transitively) and it is not the final statement.
//! Because argument resolution is purely type-driven (see
//! [`crate::interp::resolve_arg_sources`]), liveness can be computed
//! statically, and removing dead statements never changes the program's
//! output: nothing ever resolved to them.
//!
//! The paper uses DCE during candidate generation and crossover/mutation to
//! guarantee that the *effective* length of candidate programs equals the
//! target length.

use crate::program::Program;
use crate::value::Type;

/// The longest program [`analyze_liveness`] accepts: liveness is one bit
/// per statement in a `u128`.
pub const MAX_ANALYZED_STATEMENTS: usize = u128::BITS as usize;

/// Liveness of every statement of a program, for a given set of input types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Liveness {
    /// Bit `i` is set when statement `i` is live.
    live: u128,
    len: usize,
}

impl Liveness {
    /// Whether the statement at `index` is live.
    #[must_use]
    pub fn is_live(&self, index: usize) -> bool {
        index < self.len && self.live >> index & 1 == 1
    }

    /// Number of live statements.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.live.count_ones() as usize
    }

    /// Per-statement liveness flags in program order.
    pub fn flags(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(|index| self.is_live(index))
    }
}

/// Computes the liveness of every statement of `program`, assuming the
/// program receives inputs of the given types.
///
/// The result does not depend on `_input_types`: argument resolution (see
/// [`crate::interp::resolve_arg_sources`]) reads the most recent unused
/// earlier statement of the wanted type before it looks at any input, so
/// inputs never change which statements are read. The analysis runs on the
/// GA's every offspring try, so it works on bitmasks and allocates nothing.
///
/// # Panics
///
/// Panics if `program` has more than [`MAX_ANALYZED_STATEMENTS`] statements.
#[must_use]
pub fn analyze_liveness(program: &Program, _input_types: &[Type]) -> Liveness {
    let functions = program.functions();
    let len = functions.len();
    assert!(
        len <= MAX_ANALYZED_STATEMENTS,
        "liveness analysis supports at most {MAX_ANALYZED_STATEMENTS} statements, got {len}"
    );
    if len == 0 {
        return Liveness { live: 0, len };
    }
    // Bit `j` of `producers[t]` is set when statement `j` outputs type `t`.
    let mut producers = [0u128; 4];
    for (j, function) in functions.iter().enumerate() {
        producers[function.output_type() as usize] |= 1 << j;
    }
    // The final statement produces the program output and is always live.
    let mut live: u128 = 1 << (len - 1);
    // Statements are only ever consumed by *later* statements, so one
    // backward sweep reaches a fixed point.
    for i in (0..len).rev() {
        if live >> i & 1 == 0 {
            continue;
        }
        // Earlier statements this statement has not read yet; each argument
        // reads the most recent one of its type.
        let mut unread = (1u128 << i) - 1;
        for &ty in functions[i].signature().inputs {
            let candidates = producers[ty as usize] & unread;
            if candidates != 0 {
                let j = u128::BITS - 1 - candidates.leading_zeros();
                live |= 1 << j;
                unread &= !(1 << j);
            }
        }
    }
    Liveness { live, len }
}

/// Returns a copy of `program` with all dead statements removed.
///
/// The returned program is semantically equivalent to the input for the given
/// input types.
#[must_use]
pub fn eliminate_dead_code(program: &Program, input_types: &[Type]) -> Program {
    let liveness = analyze_liveness(program, input_types);
    program
        .functions()
        .iter()
        .enumerate()
        .filter(|(i, _)| liveness.is_live(*i))
        .map(|(_, &f)| f)
        .collect()
}

/// Number of live statements of `program` — the paper's "effective length".
#[must_use]
pub fn effective_length(program: &Program, input_types: &[Type]) -> usize {
    analyze_liveness(program, input_types).live_count()
}

/// Whether `program` contains any dead statement.
#[must_use]
pub fn has_dead_code(program: &Program, input_types: &[Type]) -> bool {
    effective_length(program, input_types) < program.len()
}

/// The default input signature used throughout the reproduction: a single
/// list-of-integers input, like the paper's Table 1 example.
pub const DEFAULT_INPUT_TYPES: &[Type] = &[Type::List];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::DomainId;
    use crate::function::{Function, IntPredicate, MapOp};
    use crate::interp::ArgSource;
    use crate::value::Value;

    fn list_input() -> Vec<Value> {
        vec![Value::List(vec![5, -3, 8, 2, -1])]
    }

    #[test]
    fn straight_pipeline_has_no_dead_code() {
        let p = Program::new(vec![
            Function::Filter(IntPredicate::Positive),
            Function::Map(MapOp::Mul2),
            Function::Sort,
        ]);
        assert!(!has_dead_code(&p, DEFAULT_INPUT_TYPES));
        assert_eq!(effective_length(&p, DEFAULT_INPUT_TYPES), 3);
        assert_eq!(eliminate_dead_code(&p, DEFAULT_INPUT_TYPES), p);
    }

    #[test]
    fn unconsumed_int_producer_is_dead() {
        // SUM's integer output is never consumed: SORT and REVERSE only take
        // lists, and the final output is the REVERSE result.
        let p = Program::new(vec![Function::Sum, Function::Sort, Function::Reverse]);
        let liveness = analyze_liveness(&p, DEFAULT_INPUT_TYPES);
        assert!(!liveness.is_live(0));
        assert!(liveness.is_live(1));
        assert!(liveness.is_live(2));
        assert_eq!(effective_length(&p, DEFAULT_INPUT_TYPES), 2);
    }

    #[test]
    fn consumed_int_producer_is_live() {
        // COUNT feeds TAKE, so it is live.
        let p = Program::new(vec![Function::Count(IntPredicate::Even), Function::Take]);
        let liveness = analyze_liveness(&p, DEFAULT_INPUT_TYPES);
        assert!(liveness.flags().all(|l| l));
    }

    #[test]
    fn shadowed_list_producer_is_dead() {
        // The first MAP's output is immediately superseded: SORT consumes the
        // second MAP (most recent list), and nothing else consumes the first.
        let p = Program::new(vec![
            Function::Map(MapOp::AddOne),
            Function::Filter(IntPredicate::Positive),
            Function::Sort,
        ]);
        // FILTER consumes MAP's output (most recent list), SORT consumes
        // FILTER: everything is live here.
        assert_eq!(effective_length(&p, DEFAULT_INPUT_TYPES), 3);

        // But a list producer sandwiched between two others that is never the
        // "most recent" source for anyone is dead:
        let q = Program::new(vec![
            Function::Map(MapOp::AddOne), // consumed by stmt 1
            Function::Sum,                // int, never consumed
            Function::Map(MapOp::Mul2),   // consumed by stmt 3 — wait, stmt1 is SUM
            Function::Sort,
        ]);
        // stmt0 (list) feeds stmt1? SUM takes the most recent list = stmt0, so
        // stmt0 is live only if stmt1 is live; SUM's int output is unused so
        // stmt1 is dead, and stmt2 reads stmt0 instead.
        let liveness = analyze_liveness(&q, DEFAULT_INPUT_TYPES);
        assert!(liveness.is_live(0));
        assert!(!liveness.is_live(1));
        assert!(liveness.is_live(2));
        assert!(liveness.is_live(3));
    }

    #[test]
    fn elimination_preserves_semantics() {
        let programs = vec![
            Program::new(vec![Function::Sum, Function::Sort, Function::Reverse]),
            Program::new(vec![
                Function::Map(MapOp::AddOne),
                Function::Sum,
                Function::Map(MapOp::Mul2),
                Function::Sort,
            ]),
            Program::new(vec![
                Function::Head,
                Function::Filter(IntPredicate::Odd),
                Function::Take,
            ]),
        ];
        for p in programs {
            let q = eliminate_dead_code(&p, DEFAULT_INPUT_TYPES);
            assert!(q.len() <= p.len());
            assert_eq!(
                p.output(&list_input()).unwrap(),
                q.output(&list_input()).unwrap(),
                "DCE changed the output of {p}"
            );
        }
    }

    #[test]
    fn last_statement_is_always_live() {
        for f in Function::ALL {
            let p = Program::new(vec![f]);
            assert_eq!(effective_length(&p, DEFAULT_INPUT_TYPES), 1);
        }
    }

    /// The `Vec`-based liveness the bitmask sweep replaced, kept as the
    /// differential oracle: a backward sweep over the full data-flow graph.
    fn oracle_liveness(program: &Program, input_types: &[Type]) -> Vec<bool> {
        let n = program.len();
        let mut live = vec![false; n];
        if n == 0 {
            return live;
        }
        let flow = program.data_flow(input_types);
        live[n - 1] = true;
        for i in (0..n).rev() {
            if !live[i] {
                continue;
            }
            for src in &flow[i] {
                if let ArgSource::Statement(j) = *src {
                    live[j] = true;
                }
            }
        }
        live
    }

    const SIGNATURES: [&[Type]; 4] = [&[Type::List], &[Type::Int, Type::List], &[Type::Str], &[]];

    fn assert_matches_oracle(program: &Program) {
        for input_types in SIGNATURES {
            let expected = oracle_liveness(program, input_types);
            let liveness = analyze_liveness(program, input_types);
            assert_eq!(
                liveness.flags().collect::<Vec<_>>(),
                expected,
                "liveness of {program} with inputs {input_types:?}"
            );
            let live = expected.iter().filter(|&&l| l).count();
            assert_eq!(liveness.live_count(), live, "{program}");
            assert_eq!(has_dead_code(program, input_types), live < program.len());
        }
    }

    #[test]
    fn bitmask_liveness_matches_the_oracle_on_every_short_program() {
        for domain in DomainId::ALL {
            let vocab = domain.vocab();
            assert_matches_oracle(&Program::default());
            for &a in vocab {
                assert_matches_oracle(&Program::new(vec![a]));
                for &b in vocab {
                    assert_matches_oracle(&Program::new(vec![a, b]));
                    for &c in vocab {
                        assert_matches_oracle(&Program::new(vec![a, b, c]));
                    }
                }
            }
        }
    }

    #[test]
    fn bitmask_liveness_matches_the_oracle_on_random_programs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xdce);
        let vocabs = [
            DomainId::List.vocab(),
            DomainId::Str.vocab(),
            &Function::EXTENDED[..],
        ];
        for _ in 0..10_000 {
            let vocab = vocabs[rng.gen_range(0..vocabs.len())];
            let len = rng.gen_range(4..=12);
            let program: Program = (0..len)
                .map(|_| vocab[rng.gen_range(0..vocab.len())])
                .collect();
            assert_matches_oracle(&program);
        }
    }

    #[test]
    fn the_longest_analyzed_program_is_supported() {
        let program = Program::new(vec![Function::Sort; MAX_ANALYZED_STATEMENTS]);
        let liveness = analyze_liveness(&program, DEFAULT_INPUT_TYPES);
        assert_eq!(liveness.live_count(), MAX_ANALYZED_STATEMENTS);
        assert!(liveness.is_live(0) && !liveness.is_live(MAX_ANALYZED_STATEMENTS));
    }

    #[test]
    #[should_panic(expected = "at most 128 statements")]
    fn longer_programs_panic() {
        let program = Program::new(vec![Function::Sort; MAX_ANALYZED_STATEMENTS + 1]);
        let _ = analyze_liveness(&program, DEFAULT_INPUT_TYPES);
    }

    #[test]
    fn empty_program_has_zero_effective_length() {
        let p = Program::default();
        assert_eq!(effective_length(&p, DEFAULT_INPUT_TYPES), 0);
        assert!(!has_dead_code(&p, DEFAULT_INPUT_TYPES));
        assert_eq!(eliminate_dead_code(&p, DEFAULT_INPUT_TYPES), p);
    }
}
