//! The operator vocabulary of the NetSyn DSLs.
//!
//! [`Function::ALL`] holds the 41 functions of the paper's list DSL
//! (Appendix A); [`Function::STRING_OPS`] holds the 18 operators of the
//! string-transformation domain added on top; [`Function::EXTENDED`] is the
//! concatenation and defines the global id space (`1..=41` list, `42..=59`
//! string — list ids are bit-identical to the pre-domain numbering, so
//! learned-fitness checkpoints stay valid).
//!
//! Every function takes one or two arguments and returns exactly one value.
//! All semantics are total: arithmetic saturates, string indexing is
//! char-based and clamped, so programs can never panic or overflow — the
//! property the paper relies on for its genetic operators.

use crate::error::DslError;
use crate::value::{Type, Value};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Predicates used by the `COUNT` and `FILTER` families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum IntPredicate {
    /// `> 0`
    Positive,
    /// `< 0`
    Negative,
    /// odd values (`|x| % 2 == 1`)
    Odd,
    /// even values (`x % 2 == 0`)
    Even,
}

impl IntPredicate {
    /// All predicates in their paper order (`>0`, `<0`, `odd`, `even`).
    pub const ALL: [IntPredicate; 4] = [
        IntPredicate::Positive,
        IntPredicate::Negative,
        IntPredicate::Odd,
        IntPredicate::Even,
    ];

    /// Evaluates the predicate on `x`.
    #[must_use]
    pub fn eval(self, x: i64) -> bool {
        match self {
            IntPredicate::Positive => x > 0,
            IntPredicate::Negative => x < 0,
            IntPredicate::Odd => x.rem_euclid(2) == 1,
            IntPredicate::Even => x.rem_euclid(2) == 0,
        }
    }

    /// Human-readable lambda syntax used by [`Function`]'s `Display` impl.
    #[must_use]
    pub fn symbol(self) -> &'static str {
        match self {
            IntPredicate::Positive => ">0",
            IntPredicate::Negative => "<0",
            IntPredicate::Odd => "odd",
            IntPredicate::Even => "even",
        }
    }
}

/// Unary arithmetic lambdas used by the `MAP` family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MapOp {
    /// `x + 1`
    AddOne,
    /// `x - 1`
    SubOne,
    /// `x * 2`
    Mul2,
    /// `x * 3`
    Mul3,
    /// `x * 4`
    Mul4,
    /// `x / 2` (truncating)
    Div2,
    /// `x / 3` (truncating)
    Div3,
    /// `x / 4` (truncating)
    Div4,
    /// `-x`
    Negate,
    /// `x * x`
    Square,
}

impl MapOp {
    /// All map lambdas in their paper order (`+1,-1,*2,*3,*4,/2,/3,/4,*(-1),^2`).
    pub const ALL: [MapOp; 10] = [
        MapOp::AddOne,
        MapOp::SubOne,
        MapOp::Mul2,
        MapOp::Mul3,
        MapOp::Mul4,
        MapOp::Div2,
        MapOp::Div3,
        MapOp::Div4,
        MapOp::Negate,
        MapOp::Square,
    ];

    /// Applies the lambda to `x` with saturating arithmetic.
    #[must_use]
    pub fn eval(self, x: i64) -> i64 {
        match self {
            MapOp::AddOne => x.saturating_add(1),
            MapOp::SubOne => x.saturating_sub(1),
            MapOp::Mul2 => x.saturating_mul(2),
            MapOp::Mul3 => x.saturating_mul(3),
            MapOp::Mul4 => x.saturating_mul(4),
            MapOp::Div2 => x / 2,
            MapOp::Div3 => x / 3,
            MapOp::Div4 => x / 4,
            MapOp::Negate => x.saturating_neg(),
            MapOp::Square => x.saturating_mul(x),
        }
    }

    /// Human-readable lambda syntax used by [`Function`]'s `Display` impl.
    #[must_use]
    pub fn symbol(self) -> &'static str {
        match self {
            MapOp::AddOne => "+1",
            MapOp::SubOne => "-1",
            MapOp::Mul2 => "*2",
            MapOp::Mul3 => "*3",
            MapOp::Mul4 => "*4",
            MapOp::Div2 => "/2",
            MapOp::Div3 => "/3",
            MapOp::Div4 => "/4",
            MapOp::Negate => "*(-1)",
            MapOp::Square => "^2",
        }
    }
}

/// Binary lambdas shared by the `SCANL1` and `ZIPWITH` families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum BinOp {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `min(a, b)`
    Min,
    /// `max(a, b)`
    Max,
}

impl BinOp {
    /// All binary lambdas in their paper order (`+`, `-`, `*`, `min`, `max`).
    pub const ALL: [BinOp; 5] = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Min, BinOp::Max];

    /// Applies the lambda to `(a, b)` with saturating arithmetic.
    #[must_use]
    pub fn eval(self, a: i64, b: i64) -> i64 {
        match self {
            BinOp::Add => a.saturating_add(b),
            BinOp::Sub => a.saturating_sub(b),
            BinOp::Mul => a.saturating_mul(b),
            BinOp::Min => a.min(b),
            BinOp::Max => a.max(b),
        }
    }

    /// Human-readable lambda syntax used by [`Function`]'s `Display` impl.
    #[must_use]
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Min => "min",
            BinOp::Max => "max",
        }
    }
}

/// Word separators used by the `SPLIT`/`JOIN` families of the string domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Separator {
    /// Whitespace (splitting collapses runs; joining inserts a single space).
    Space,
    /// A comma (splitting trims surrounding whitespace from each piece).
    Comma,
}

impl Separator {
    /// All separators in their id order.
    pub const ALL: [Separator; 2] = [Separator::Space, Separator::Comma];

    /// Short symbol used by [`Function`]'s `Display` impl. Deliberately
    /// avoids a literal `,`: [`crate::Program`]'s parser splits statements
    /// on commas.
    #[must_use]
    pub fn symbol(self) -> &'static str {
        match self {
            Separator::Space => "ws",
            Separator::Comma => "sep",
        }
    }
}

/// The type signature of a DSL function: argument types and return type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    /// Argument types in positional order (1 or 2 entries). A static slice:
    /// signatures are queried per statement per candidate trace, so they
    /// must not allocate.
    pub inputs: &'static [Type],
    /// Return type.
    pub output: Type,
}

/// Size of the `Function::lookup_key` space: 34 variants, 16 lambda slots
/// each.
const LOOKUP_KEY_SPACE: usize = 34 * 16;

/// `Function::lookup_key` → stable id (0: no function has this key), built
/// from [`Function::EXTENDED`] so the numbering has one source of truth.
const ID_BY_LOOKUP_KEY: [u8; LOOKUP_KEY_SPACE] = {
    let mut table = [0u8; LOOKUP_KEY_SPACE];
    let mut i = 0;
    while i < Function::EXTENDED_COUNT {
        let key = Function::EXTENDED[i].lookup_key();
        assert!(table[key] == 0, "two functions share a lookup key");
        table[key] = (i + 1) as u8;
        i += 1;
    }
    table
};

/// One operator of the NetSyn DSLs (list or string domain).
///
/// For the first 41 variants the numbering used by [`Function::id`] matches
/// the "(Function N)" labels of Appendix A, so Figure 6's x-axis can be
/// reproduced directly; the string-domain operators continue the id space at
/// 42. **Ids are stable forever** — new operators are appended to
/// [`Function::EXTENDED`], never inserted, because ids feed the learned
/// encoder's token tables and persisted cache headers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Function {
    /// Function 1: `ACCESS n xs` — the `n`-th element of `xs`, or 0 when out of range.
    Access,
    /// Functions 2–5: `COUNT p xs` — number of elements satisfying predicate `p`.
    Count(IntPredicate),
    /// Function 6: `HEAD xs` — first element or 0.
    Head,
    /// Function 7: `LAST xs` — last element or 0.
    Last,
    /// Function 8: `MINIMUM xs` — smallest element or 0.
    Minimum,
    /// Function 9: `MAXIMUM xs` — largest element or 0.
    Maximum,
    /// Function 10: `SEARCH x xs` — first index of `x` in `xs`, or -1.
    Search,
    /// Function 11: `SUM xs` — sum of the elements (saturating), or 0.
    Sum,
    /// Function 12: `DELETE x xs` — `xs` with every occurrence of `x` removed.
    Delete,
    /// Function 13: `DROP n xs` — `xs` without its first `n` elements.
    Drop,
    /// Functions 14–17: `FILTER p xs` — elements of `xs` satisfying predicate `p`.
    Filter(IntPredicate),
    /// Function 18: `INSERT x xs` — `xs` with `x` appended at the end.
    Insert,
    /// Functions 19–28: `MAP f xs` — `f` applied to every element.
    Map(MapOp),
    /// Function 29: `REVERSE xs`.
    Reverse,
    /// Functions 30–34: `SCANL1 op xs` — prefix scan with `op`.
    Scanl1(BinOp),
    /// Function 35: `SORT xs` — ascending sort.
    Sort,
    /// Function 36: `TAKE n xs` — the first `min(n, len)` elements.
    Take,
    /// Functions 37–41: `ZIPWITH op xs ys` — element-wise combination.
    ZipWith(BinOp),
    /// Function 42: `CONCAT a b` — string concatenation.
    StrConcat,
    /// Function 43: `UPPER s` — uppercase every character.
    StrUpper,
    /// Function 44: `LOWER s` — lowercase every character.
    StrLower,
    /// Function 45: `TITLE s` — uppercase after whitespace/start, lowercase
    /// elsewhere.
    StrTitle,
    /// Function 46: `TRIM s` — strip leading/trailing whitespace.
    StrTrim,
    /// Function 47: `STR.REVERSE s` — reverse the characters.
    StrReverse,
    /// Function 48: `STR.TAKE n s` — the first `n` characters (clamped).
    StrTake,
    /// Function 49: `STR.DROP n s` — without the first `n` characters (clamped).
    StrDrop,
    /// Function 50: `STR.LEN s` — number of characters.
    StrLen,
    /// Functions 51–52: `SPLIT(sep) s` — split into a word list.
    StrSplit(Separator),
    /// Functions 53–54: `JOIN(sep) ws` — join a word list into a string.
    StrJoin(Separator),
    /// Function 55: `WORDS.REVERSE ws` — reverse the word order.
    WordsReverse,
    /// Function 56: `WORDS.SORT ws` — sort words lexicographically.
    WordsSort,
    /// Function 57: `WORDS.HEAD ws` — first word or the empty string.
    WordsHead,
    /// Function 58: `WORDS.LAST ws` — last word or the empty string.
    WordsLast,
    /// Function 59: `WORDS.COUNT ws` — number of words.
    WordsCount,
}

impl Function {
    /// The number of functions in the paper's list DSL.
    pub const COUNT: usize = 41;

    /// The number of operators in the string-transformation domain.
    pub const STRING_COUNT: usize = 18;

    /// The total number of operators across all domains
    /// (`Function::EXTENDED.len()`).
    pub const EXTENDED_COUNT: usize = Function::COUNT + Function::STRING_COUNT;

    /// All 41 list-DSL functions ordered by their paper id (1..=41). This is
    /// the list domain's vocabulary — its order is load-bearing for RNG draw
    /// sequences and learned-encoder token ids, so it must never change.
    pub const ALL: [Function; Function::COUNT] = [
        Function::Access,
        Function::Count(IntPredicate::Positive),
        Function::Count(IntPredicate::Negative),
        Function::Count(IntPredicate::Odd),
        Function::Count(IntPredicate::Even),
        Function::Head,
        Function::Last,
        Function::Minimum,
        Function::Maximum,
        Function::Search,
        Function::Sum,
        Function::Delete,
        Function::Drop,
        Function::Filter(IntPredicate::Positive),
        Function::Filter(IntPredicate::Negative),
        Function::Filter(IntPredicate::Odd),
        Function::Filter(IntPredicate::Even),
        Function::Insert,
        Function::Map(MapOp::AddOne),
        Function::Map(MapOp::SubOne),
        Function::Map(MapOp::Mul2),
        Function::Map(MapOp::Mul3),
        Function::Map(MapOp::Mul4),
        Function::Map(MapOp::Div2),
        Function::Map(MapOp::Div3),
        Function::Map(MapOp::Div4),
        Function::Map(MapOp::Negate),
        Function::Map(MapOp::Square),
        Function::Reverse,
        Function::Scanl1(BinOp::Add),
        Function::Scanl1(BinOp::Sub),
        Function::Scanl1(BinOp::Mul),
        Function::Scanl1(BinOp::Min),
        Function::Scanl1(BinOp::Max),
        Function::Sort,
        Function::Take,
        Function::ZipWith(BinOp::Add),
        Function::ZipWith(BinOp::Sub),
        Function::ZipWith(BinOp::Mul),
        Function::ZipWith(BinOp::Min),
        Function::ZipWith(BinOp::Max),
    ];

    /// The 18 string-domain operators ordered by their id (42..=59).
    pub const STRING_OPS: [Function; Function::STRING_COUNT] = [
        Function::StrConcat,
        Function::StrUpper,
        Function::StrLower,
        Function::StrTitle,
        Function::StrTrim,
        Function::StrReverse,
        Function::StrTake,
        Function::StrDrop,
        Function::StrLen,
        Function::StrSplit(Separator::Space),
        Function::StrSplit(Separator::Comma),
        Function::StrJoin(Separator::Space),
        Function::StrJoin(Separator::Comma),
        Function::WordsReverse,
        Function::WordsSort,
        Function::WordsHead,
        Function::WordsLast,
        Function::WordsCount,
    ];

    /// Every operator of every domain, ordered by id (1..=59). The global id
    /// space: list ids keep the paper numbering, string ids continue at 42.
    /// Append-only — see the type-level docs.
    pub const EXTENDED: [Function; Function::EXTENDED_COUNT] = {
        let mut all = [Function::Access; Function::EXTENDED_COUNT];
        let mut i = 0;
        while i < Function::COUNT {
            all[i] = Function::ALL[i];
            i += 1;
        }
        let mut j = 0;
        while j < Function::STRING_COUNT {
            all[Function::COUNT + j] = Function::STRING_OPS[j];
            j += 1;
        }
        all
    };

    /// Stable id of this function (1..=41 list DSL, paper numbering;
    /// 42..=59 string domain).
    #[must_use]
    pub fn id(self) -> u8 {
        // Ids are looked up once per encoded trace step and per guided
        // mutation, so the position in EXTENDED comes from a table built
        // from EXTENDED at compile time rather than a scan.
        match ID_BY_LOOKUP_KEY[self.lookup_key()] {
            0 => panic!("every Function variant is present in Function::EXTENDED"),
            id => id,
        }
    }

    /// An injective key of the variant and its lambda: the variant's
    /// declaration position times 16 plus the lambda's position in its
    /// enum. It carries no id; [`ID_BY_LOOKUP_KEY`] maps it to one.
    const fn lookup_key(self) -> usize {
        let (variant, lambda) = match self {
            Function::Access => (0, 0),
            Function::Count(p) => (1, p as usize),
            Function::Head => (2, 0),
            Function::Last => (3, 0),
            Function::Minimum => (4, 0),
            Function::Maximum => (5, 0),
            Function::Search => (6, 0),
            Function::Sum => (7, 0),
            Function::Delete => (8, 0),
            Function::Drop => (9, 0),
            Function::Filter(p) => (10, p as usize),
            Function::Insert => (11, 0),
            Function::Map(op) => (12, op as usize),
            Function::Reverse => (13, 0),
            Function::Scanl1(op) => (14, op as usize),
            Function::Sort => (15, 0),
            Function::Take => (16, 0),
            Function::ZipWith(op) => (17, op as usize),
            Function::StrConcat => (18, 0),
            Function::StrUpper => (19, 0),
            Function::StrLower => (20, 0),
            Function::StrTitle => (21, 0),
            Function::StrTrim => (22, 0),
            Function::StrReverse => (23, 0),
            Function::StrTake => (24, 0),
            Function::StrDrop => (25, 0),
            Function::StrLen => (26, 0),
            Function::StrSplit(sep) => (27, sep as usize),
            Function::StrJoin(sep) => (28, sep as usize),
            Function::WordsReverse => (29, 0),
            Function::WordsSort => (30, 0),
            Function::WordsHead => (31, 0),
            Function::WordsLast => (32, 0),
            Function::WordsCount => (33, 0),
        };
        variant * 16 + lambda
    }

    /// Looks a function up by its stable id.
    ///
    /// # Errors
    ///
    /// Returns [`DslError::UnknownFunctionId`] if `id` is not in `1..=59`.
    pub fn from_id(id: u8) -> Result<Function, DslError> {
        if id == 0 || id as usize > Function::EXTENDED_COUNT {
            return Err(DslError::UnknownFunctionId(id));
        }
        Ok(Function::EXTENDED[id as usize - 1])
    }

    /// Zero-based index of this function (`id() - 1`), handy for one-hot
    /// encodings and probability maps.
    #[must_use]
    pub fn index(self) -> usize {
        self.id() as usize - 1
    }

    /// The function's type signature.
    #[must_use]
    pub fn signature(self) -> Signature {
        use Type::{Int, List, Str, StrList};
        let (inputs, output): (&'static [Type], Type) = match self {
            Function::Head
            | Function::Last
            | Function::Minimum
            | Function::Maximum
            | Function::Sum
            | Function::Count(_) => (&[List], Int),
            Function::Access | Function::Search => (&[Int, List], Int),
            Function::Reverse
            | Function::Sort
            | Function::Map(_)
            | Function::Filter(_)
            | Function::Scanl1(_) => (&[List], List),
            Function::Take | Function::Drop | Function::Delete | Function::Insert => {
                (&[Int, List], List)
            }
            Function::ZipWith(_) => (&[List, List], List),
            Function::StrConcat => (&[Str, Str], Str),
            Function::StrUpper
            | Function::StrLower
            | Function::StrTitle
            | Function::StrTrim
            | Function::StrReverse => (&[Str], Str),
            Function::StrTake | Function::StrDrop => (&[Int, Str], Str),
            Function::StrLen => (&[Str], Int),
            Function::StrSplit(_) => (&[Str], StrList),
            Function::StrJoin(_) | Function::WordsHead | Function::WordsLast => (&[StrList], Str),
            Function::WordsReverse | Function::WordsSort => (&[StrList], StrList),
            Function::WordsCount => (&[StrList], Int),
        };
        Signature { inputs, output }
    }

    /// Return type of the function.
    #[must_use]
    pub fn output_type(self) -> Type {
        self.signature().output
    }

    /// Whether the function produces a single integer ("singleton" output).
    #[must_use]
    pub fn returns_int(self) -> bool {
        self.output_type() == Type::Int
    }

    /// Number of arguments (1 or 2).
    #[must_use]
    pub fn arity(self) -> usize {
        self.signature().inputs.len()
    }

    /// Evaluates the function. Arguments are matched by position against the
    /// signature; values of the wrong type are coerced to the type's default
    /// (0 / empty list) as specified in Appendix A.
    #[must_use]
    pub fn apply(self, args: &[Value]) -> Value {
        // Arity is at most 2, so borrowing never allocates.
        match args {
            [] => self.apply_refs(&[]),
            [a] => self.apply_refs(&[a]),
            [a, b, ..] => self.apply_refs(&[a, b]),
        }
    }

    /// Evaluates the function on borrowed arguments — identical semantics to
    /// [`Function::apply`], but callers that already hold references (the
    /// interpreter resolves every argument to a prior statement's output, a
    /// program input or a default) avoid cloning list values just to build
    /// the argument slice.
    #[must_use]
    pub fn apply_refs(self, args: &[&Value]) -> Value {
        let int_arg = |i: usize| args.get(i).map_or(0, |v| v.int_or_default());
        // Read-only list access: no copy at all.
        let list_ref = |i: usize| args.get(i).map_or(&[][..], |v| v.as_list().unwrap_or(&[]));
        // Owned list access for functions that transform in place: one copy.
        let list_arg = |i: usize| args.get(i).map_or_else(Vec::new, |v| v.list_or_default());
        // Read-only string / word-list access (string domain).
        let str_ref = |i: usize| args.get(i).map_or("", |v| v.as_str_val().unwrap_or(""));
        let words_ref = |i: usize| {
            args.get(i)
                .map_or(&[][..], |v| v.as_str_list().unwrap_or(&[]))
        };
        match self {
            Function::Head => {
                let xs = list_ref(0);
                Value::Int(xs.first().copied().unwrap_or(0))
            }
            Function::Last => {
                let xs = list_ref(0);
                Value::Int(xs.last().copied().unwrap_or(0))
            }
            Function::Minimum => {
                let xs = list_ref(0);
                Value::Int(xs.iter().copied().min().unwrap_or(0))
            }
            Function::Maximum => {
                let xs = list_ref(0);
                Value::Int(xs.iter().copied().max().unwrap_or(0))
            }
            Function::Sum => {
                let xs = list_ref(0);
                Value::Int(xs.iter().fold(0_i64, |acc, &x| acc.saturating_add(x)))
            }
            Function::Count(p) => {
                let xs = list_ref(0);
                Value::Int(xs.iter().filter(|&&x| p.eval(x)).count() as i64)
            }
            Function::Access => {
                let n = int_arg(0);
                let xs = list_ref(1);
                if n >= 0 && (n as usize) < xs.len() {
                    Value::Int(xs[n as usize])
                } else {
                    Value::Int(0)
                }
            }
            Function::Search => {
                let x = int_arg(0);
                let xs = list_ref(1);
                Value::Int(xs.iter().position(|&v| v == x).map_or(-1, |idx| idx as i64))
            }
            Function::Reverse => {
                let mut xs = list_arg(0);
                xs.reverse();
                Value::List(xs)
            }
            Function::Sort => {
                let mut xs = list_arg(0);
                xs.sort_unstable();
                Value::List(xs)
            }
            Function::Map(op) => {
                let xs = list_ref(0);
                Value::List(xs.iter().map(|&x| op.eval(x)).collect())
            }
            Function::Filter(p) => {
                let xs = list_ref(0);
                Value::List(xs.iter().copied().filter(|&x| p.eval(x)).collect())
            }
            Function::Scanl1(op) => {
                let xs = list_ref(0);
                let mut out = Vec::with_capacity(xs.len());
                for (i, &x) in xs.iter().enumerate() {
                    if i == 0 {
                        out.push(x);
                    } else {
                        let prev = out[i - 1];
                        out.push(op.eval(x, prev));
                    }
                }
                Value::List(out)
            }
            Function::Take => {
                let n = int_arg(0);
                let xs = list_ref(1);
                let n = n.clamp(0, xs.len() as i64) as usize;
                Value::List(xs[..n].to_vec())
            }
            Function::Drop => {
                let n = int_arg(0);
                let xs = list_ref(1);
                let n = n.clamp(0, xs.len() as i64) as usize;
                Value::List(xs[n..].to_vec())
            }
            Function::Delete => {
                let x = int_arg(0);
                let xs = list_ref(1);
                Value::List(xs.iter().copied().filter(|&v| v != x).collect())
            }
            Function::Insert => {
                let x = int_arg(0);
                let xs = list_ref(1);
                let mut out = Vec::with_capacity(xs.len() + 1);
                out.extend_from_slice(xs);
                out.push(x);
                Value::List(out)
            }
            Function::ZipWith(op) => {
                let xs = list_ref(0);
                let ys = list_ref(1);
                Value::List(
                    xs.iter()
                        .zip(ys.iter())
                        .map(|(&a, &b)| op.eval(a, b))
                        .collect(),
                )
            }
            Function::StrConcat => {
                let a = str_ref(0);
                let b = str_ref(1);
                let mut out = String::with_capacity(a.len() + b.len());
                out.push_str(a);
                out.push_str(b);
                Value::Str(out)
            }
            Function::StrUpper => Value::Str(str_ref(0).to_uppercase()),
            Function::StrLower => Value::Str(str_ref(0).to_lowercase()),
            Function::StrTitle => {
                let s = str_ref(0);
                let mut out = String::with_capacity(s.len());
                let mut boundary = true;
                for c in s.chars() {
                    if c.is_whitespace() {
                        boundary = true;
                        out.push(c);
                    } else if boundary {
                        out.extend(c.to_uppercase());
                        boundary = false;
                    } else {
                        out.extend(c.to_lowercase());
                    }
                }
                Value::Str(out)
            }
            Function::StrTrim => Value::Str(str_ref(0).trim().to_string()),
            Function::StrReverse => Value::Str(str_ref(0).chars().rev().collect()),
            Function::StrTake => {
                let n = int_arg(0).max(0) as usize;
                Value::Str(str_ref(1).chars().take(n).collect())
            }
            Function::StrDrop => {
                let n = int_arg(0).max(0) as usize;
                Value::Str(str_ref(1).chars().skip(n).collect())
            }
            Function::StrLen => Value::Int(str_ref(0).chars().count() as i64),
            Function::StrSplit(Separator::Space) => {
                Value::StrList(str_ref(0).split_whitespace().map(str::to_string).collect())
            }
            Function::StrSplit(Separator::Comma) => Value::StrList(
                str_ref(0)
                    .split(',')
                    .map(|piece| piece.trim().to_string())
                    .collect(),
            ),
            Function::StrJoin(sep) => {
                let glue = match sep {
                    Separator::Space => " ",
                    Separator::Comma => ",",
                };
                Value::Str(words_ref(0).join(glue))
            }
            Function::WordsReverse => {
                let mut ws = words_ref(0).to_vec();
                ws.reverse();
                Value::StrList(ws)
            }
            Function::WordsSort => {
                let mut ws = words_ref(0).to_vec();
                ws.sort_unstable();
                Value::StrList(ws)
            }
            Function::WordsHead => Value::Str(words_ref(0).first().cloned().unwrap_or_default()),
            Function::WordsLast => Value::Str(words_ref(0).last().cloned().unwrap_or_default()),
            Function::WordsCount => Value::Int(words_ref(0).len() as i64),
        }
    }

    /// Canonical name, e.g. `FILTER(>0)`, `MAP(*2)`, `ZIPWITH(max)`.
    #[must_use]
    pub fn name(self) -> String {
        self.to_string()
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Function::Access => write!(f, "ACCESS"),
            Function::Count(p) => write!(f, "COUNT({})", p.symbol()),
            Function::Head => write!(f, "HEAD"),
            Function::Last => write!(f, "LAST"),
            Function::Minimum => write!(f, "MINIMUM"),
            Function::Maximum => write!(f, "MAXIMUM"),
            Function::Search => write!(f, "SEARCH"),
            Function::Sum => write!(f, "SUM"),
            Function::Delete => write!(f, "DELETE"),
            Function::Drop => write!(f, "DROP"),
            Function::Filter(p) => write!(f, "FILTER({})", p.symbol()),
            Function::Insert => write!(f, "INSERT"),
            Function::Map(op) => write!(f, "MAP({})", op.symbol()),
            Function::Reverse => write!(f, "REVERSE"),
            Function::Scanl1(op) => write!(f, "SCANL1({})", op.symbol()),
            Function::Sort => write!(f, "SORT"),
            Function::Take => write!(f, "TAKE"),
            Function::ZipWith(op) => write!(f, "ZIPWITH({})", op.symbol()),
            Function::StrConcat => write!(f, "CONCAT"),
            Function::StrUpper => write!(f, "UPPER"),
            Function::StrLower => write!(f, "LOWER"),
            Function::StrTitle => write!(f, "TITLE"),
            Function::StrTrim => write!(f, "TRIM"),
            Function::StrReverse => write!(f, "STR.REVERSE"),
            Function::StrTake => write!(f, "STR.TAKE"),
            Function::StrDrop => write!(f, "STR.DROP"),
            Function::StrLen => write!(f, "STR.LEN"),
            Function::StrSplit(sep) => write!(f, "SPLIT({})", sep.symbol()),
            Function::StrJoin(sep) => write!(f, "JOIN({})", sep.symbol()),
            Function::WordsReverse => write!(f, "WORDS.REVERSE"),
            Function::WordsSort => write!(f, "WORDS.SORT"),
            Function::WordsHead => write!(f, "WORDS.HEAD"),
            Function::WordsLast => write!(f, "WORDS.LAST"),
            Function::WordsCount => write!(f, "WORDS.COUNT"),
        }
    }
}

impl FromStr for Function {
    type Err = DslError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let normalized = s.trim().to_uppercase().replace(' ', "");
        for func in Function::EXTENDED {
            if func.to_string().to_uppercase().replace(' ', "") == normalized {
                return Ok(func);
            }
        }
        // Accept lambda symbols in their original case (e.g. "min") too.
        let lower_keep = s.trim().replace(' ', "");
        for func in Function::EXTENDED {
            if func
                .to_string()
                .replace(' ', "")
                .eq_ignore_ascii_case(&lower_keep)
            {
                return Ok(func);
            }
        }
        Err(DslError::UnknownFunctionName(s.trim().to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_has_41_unique_functions() {
        assert_eq!(Function::ALL.len(), 41);
        let mut seen = std::collections::HashSet::new();
        for f in Function::ALL {
            assert!(seen.insert(f), "duplicate function {f}");
        }
    }

    #[test]
    fn extended_has_59_unique_functions() {
        assert_eq!(Function::EXTENDED.len(), 59);
        assert_eq!(Function::EXTENDED[..Function::COUNT], Function::ALL);
        assert_eq!(Function::EXTENDED[Function::COUNT..], Function::STRING_OPS);
        let mut seen = std::collections::HashSet::new();
        for f in Function::EXTENDED {
            assert!(seen.insert(f), "duplicate function {f}");
        }
    }

    #[test]
    fn id_round_trip() {
        for (i, f) in Function::EXTENDED.iter().enumerate() {
            assert_eq!(f.id() as usize, i + 1);
            assert_eq!(Function::from_id(f.id()).unwrap(), *f);
            assert_eq!(f.index(), i);
        }
        assert!(Function::from_id(0).is_err());
        assert!(Function::from_id(60).is_err());
    }

    #[test]
    fn paper_numbering_spot_checks() {
        assert_eq!(Function::from_id(1).unwrap(), Function::Access);
        assert_eq!(Function::from_id(6).unwrap(), Function::Head);
        assert_eq!(Function::from_id(11).unwrap(), Function::Sum);
        assert_eq!(Function::from_id(12).unwrap(), Function::Delete);
        assert_eq!(Function::from_id(13).unwrap(), Function::Drop);
        assert_eq!(Function::from_id(18).unwrap(), Function::Insert);
        assert_eq!(Function::from_id(19).unwrap(), Function::Map(MapOp::AddOne));
        assert_eq!(Function::from_id(29).unwrap(), Function::Reverse);
        assert_eq!(Function::from_id(30).unwrap(), Function::Scanl1(BinOp::Add));
        assert_eq!(Function::from_id(35).unwrap(), Function::Sort);
        assert_eq!(Function::from_id(36).unwrap(), Function::Take);
        assert_eq!(
            Function::from_id(37).unwrap(),
            Function::ZipWith(BinOp::Add)
        );
        assert_eq!(
            Function::from_id(41).unwrap(),
            Function::ZipWith(BinOp::Max)
        );
        assert_eq!(Function::from_id(42).unwrap(), Function::StrConcat);
        assert_eq!(
            Function::from_id(51).unwrap(),
            Function::StrSplit(Separator::Space)
        );
        assert_eq!(Function::from_id(59).unwrap(), Function::WordsCount);
    }

    #[test]
    fn singleton_functions_are_one_through_eleven() {
        for f in Function::ALL {
            if f.id() <= 11 {
                assert!(f.returns_int(), "{f} should return int");
            } else {
                assert!(!f.returns_int(), "{f} should return a list");
            }
        }
    }

    #[test]
    fn signatures_have_valid_arity() {
        for f in Function::EXTENDED {
            let sig = f.signature();
            assert!(!sig.inputs.is_empty() && sig.inputs.len() <= 2);
            assert_eq!(f.arity(), sig.inputs.len());
        }
    }

    #[test]
    fn head_last_min_max_sum() {
        let xs = Value::List(vec![3, -1, 7, 2]);
        assert_eq!(
            Function::Head.apply(std::slice::from_ref(&xs)),
            Value::Int(3)
        );
        assert_eq!(
            Function::Last.apply(std::slice::from_ref(&xs)),
            Value::Int(2)
        );
        assert_eq!(
            Function::Minimum.apply(std::slice::from_ref(&xs)),
            Value::Int(-1)
        );
        assert_eq!(
            Function::Maximum.apply(std::slice::from_ref(&xs)),
            Value::Int(7)
        );
        assert_eq!(Function::Sum.apply(&[xs]), Value::Int(11));
    }

    #[test]
    fn empty_list_reductions_return_zero() {
        let empty = Value::List(vec![]);
        for f in [
            Function::Head,
            Function::Last,
            Function::Minimum,
            Function::Maximum,
            Function::Sum,
        ] {
            assert_eq!(f.apply(std::slice::from_ref(&empty)), Value::Int(0));
        }
    }

    #[test]
    fn count_and_filter_predicates() {
        let xs = Value::List(vec![-2, -1, 0, 1, 2, 3]);
        assert_eq!(
            Function::Count(IntPredicate::Positive).apply(std::slice::from_ref(&xs)),
            Value::Int(3)
        );
        assert_eq!(
            Function::Count(IntPredicate::Negative).apply(std::slice::from_ref(&xs)),
            Value::Int(2)
        );
        assert_eq!(
            Function::Count(IntPredicate::Odd).apply(std::slice::from_ref(&xs)),
            Value::Int(3)
        );
        assert_eq!(
            Function::Count(IntPredicate::Even).apply(std::slice::from_ref(&xs)),
            Value::Int(3)
        );
        assert_eq!(
            Function::Filter(IntPredicate::Positive).apply(std::slice::from_ref(&xs)),
            Value::List(vec![1, 2, 3])
        );
        assert_eq!(
            Function::Filter(IntPredicate::Odd).apply(&[xs]),
            Value::List(vec![-1, 1, 3])
        );
    }

    #[test]
    fn odd_even_handle_negatives() {
        assert!(IntPredicate::Odd.eval(-3));
        assert!(!IntPredicate::Odd.eval(-4));
        assert!(IntPredicate::Even.eval(-4));
        assert!(!IntPredicate::Even.eval(-3));
    }

    #[test]
    fn access_and_search() {
        let xs = Value::List(vec![5, 6, 7]);
        assert_eq!(
            Function::Access.apply(&[Value::Int(1), xs.clone()]),
            Value::Int(6)
        );
        assert_eq!(
            Function::Access.apply(&[Value::Int(-1), xs.clone()]),
            Value::Int(0)
        );
        assert_eq!(
            Function::Access.apply(&[Value::Int(3), xs.clone()]),
            Value::Int(0)
        );
        assert_eq!(
            Function::Search.apply(&[Value::Int(7), xs.clone()]),
            Value::Int(2)
        );
        assert_eq!(Function::Search.apply(&[Value::Int(9), xs]), Value::Int(-1));
    }

    #[test]
    fn take_drop_delete_insert() {
        let xs = Value::List(vec![1, 2, 3, 2]);
        assert_eq!(
            Function::Take.apply(&[Value::Int(2), xs.clone()]),
            Value::List(vec![1, 2])
        );
        assert_eq!(
            Function::Take.apply(&[Value::Int(99), xs.clone()]),
            Value::List(vec![1, 2, 3, 2])
        );
        assert_eq!(
            Function::Take.apply(&[Value::Int(-1), xs.clone()]),
            Value::List(vec![])
        );
        assert_eq!(
            Function::Drop.apply(&[Value::Int(2), xs.clone()]),
            Value::List(vec![3, 2])
        );
        assert_eq!(
            Function::Drop.apply(&[Value::Int(99), xs.clone()]),
            Value::List(vec![])
        );
        assert_eq!(
            Function::Delete.apply(&[Value::Int(2), xs.clone()]),
            Value::List(vec![1, 3])
        );
        assert_eq!(
            Function::Insert.apply(&[Value::Int(9), xs]),
            Value::List(vec![1, 2, 3, 2, 9])
        );
    }

    #[test]
    fn map_sort_reverse_scan_zip() {
        let xs = Value::List(vec![3, 1, 2]);
        assert_eq!(
            Function::Map(MapOp::Mul2).apply(std::slice::from_ref(&xs)),
            Value::List(vec![6, 2, 4])
        );
        assert_eq!(
            Function::Sort.apply(std::slice::from_ref(&xs)),
            Value::List(vec![1, 2, 3])
        );
        assert_eq!(
            Function::Reverse.apply(std::slice::from_ref(&xs)),
            Value::List(vec![2, 1, 3])
        );
        assert_eq!(
            Function::Scanl1(BinOp::Add).apply(std::slice::from_ref(&xs)),
            Value::List(vec![3, 4, 6])
        );
        assert_eq!(
            Function::Scanl1(BinOp::Max).apply(&[Value::List(vec![1, 5, 2, 7])]),
            Value::List(vec![1, 5, 5, 7])
        );
        let ys = Value::List(vec![10, 20]);
        assert_eq!(
            Function::ZipWith(BinOp::Add).apply(&[xs, ys]),
            Value::List(vec![13, 21])
        );
    }

    #[test]
    fn scanl1_matches_paper_semantics() {
        // O_n = lambda(I_n, O_{n-1}) for n > 0.
        let xs = Value::List(vec![5, 2, 8]);
        assert_eq!(
            Function::Scanl1(BinOp::Sub).apply(&[xs]),
            // O_0 = 5, O_1 = 2 - 5 = -3, O_2 = 8 - (-3) = 11
            Value::List(vec![5, -3, 11])
        );
    }

    #[test]
    fn saturating_arithmetic_never_panics() {
        let huge = Value::List(vec![i64::MAX, i64::MIN, 2]);
        for f in [
            Function::Map(MapOp::Square),
            Function::Map(MapOp::Mul4),
            Function::Map(MapOp::Negate),
            Function::Scanl1(BinOp::Mul),
            Function::Sum,
        ] {
            let _ = f.apply(std::slice::from_ref(&huge));
        }
        let _ = Function::ZipWith(BinOp::Mul).apply(&[huge.clone(), huge]);
    }

    #[test]
    fn type_mismatch_falls_back_to_defaults() {
        // Passing an Int where a list is expected behaves like the empty list.
        assert_eq!(Function::Sum.apply(&[Value::Int(5)]), Value::Int(0));
        // Passing a List where an int is expected behaves like 0.
        assert_eq!(
            Function::Take.apply(&[Value::List(vec![1]), Value::List(vec![7, 8])]),
            Value::List(vec![])
        );
        // Missing arguments behave like defaults.
        assert_eq!(Function::Head.apply(&[]), Value::Int(0));
    }

    #[test]
    fn display_and_parse_round_trip() {
        for f in Function::EXTENDED {
            let s = f.to_string();
            let parsed: Function = s.parse().unwrap();
            assert_eq!(parsed, f, "round-trip failed for {s}");
        }
        assert!("NOPE".parse::<Function>().is_err());
    }

    #[test]
    fn string_ops_semantics_spot_checks() {
        let s = |t: &str| Value::Str(t.to_string());
        let ws = |items: &[&str]| Value::StrList(items.iter().map(|w| w.to_string()).collect());
        assert_eq!(
            Function::StrConcat.apply(&[s("foo"), s("bar")]),
            s("foobar")
        );
        assert_eq!(Function::StrUpper.apply(&[s("aBc")]), s("ABC"));
        assert_eq!(Function::StrLower.apply(&[s("aBc")]), s("abc"));
        assert_eq!(
            Function::StrTitle.apply(&[s("hello wORLD")]),
            s("Hello World")
        );
        assert_eq!(Function::StrTrim.apply(&[s("  hi  ")]), s("hi"));
        assert_eq!(Function::StrReverse.apply(&[s("abc")]), s("cba"));
        assert_eq!(
            Function::StrTake.apply(&[Value::Int(2), s("abcd")]),
            s("ab")
        );
        assert_eq!(Function::StrTake.apply(&[Value::Int(-3), s("abcd")]), s(""));
        assert_eq!(
            Function::StrDrop.apply(&[Value::Int(2), s("abcd")]),
            s("cd")
        );
        assert_eq!(Function::StrDrop.apply(&[Value::Int(99), s("abcd")]), s(""));
        assert_eq!(Function::StrLen.apply(&[s("héllo")]), Value::Int(5));
        assert_eq!(
            Function::StrSplit(Separator::Space).apply(&[s("  a  b c ")]),
            ws(&["a", "b", "c"])
        );
        assert_eq!(
            Function::StrSplit(Separator::Comma).apply(&[s("a, b ,c")]),
            ws(&["a", "b", "c"])
        );
        assert_eq!(
            Function::StrSplit(Separator::Space).apply(&[s("")]),
            ws(&[])
        );
        assert_eq!(
            Function::StrSplit(Separator::Comma).apply(&[s("")]),
            ws(&[""])
        );
        assert_eq!(
            Function::StrJoin(Separator::Space).apply(&[ws(&["a", "b"])]),
            s("a b")
        );
        assert_eq!(
            Function::StrJoin(Separator::Comma).apply(&[ws(&["a", "b"])]),
            s("a,b")
        );
        assert_eq!(
            Function::WordsReverse.apply(&[ws(&["a", "b", "c"])]),
            ws(&["c", "b", "a"])
        );
        assert_eq!(
            Function::WordsSort.apply(&[ws(&["b", "a", "c"])]),
            ws(&["a", "b", "c"])
        );
        assert_eq!(Function::WordsHead.apply(&[ws(&["x", "y"])]), s("x"));
        assert_eq!(Function::WordsLast.apply(&[ws(&["x", "y"])]), s("y"));
        assert_eq!(Function::WordsHead.apply(&[ws(&[])]), s(""));
        assert_eq!(
            Function::WordsCount.apply(&[ws(&["x", "y"])]),
            Value::Int(2)
        );
    }

    #[test]
    fn string_ops_coerce_wrong_types_to_defaults() {
        // List-domain values fall back to the string defaults ("" / []).
        assert_eq!(
            Function::StrUpper.apply(&[Value::List(vec![1, 2])]),
            Value::Str(String::new())
        );
        assert_eq!(Function::StrLen.apply(&[Value::Int(7)]), Value::Int(0));
        assert_eq!(
            Function::WordsCount.apply(&[Value::Str("a b".to_string())]),
            Value::Int(0)
        );
        assert_eq!(Function::StrConcat.apply(&[]), Value::Str(String::new()));
    }

    #[test]
    fn parse_is_case_insensitive_and_trims() {
        assert_eq!(" head ".parse::<Function>().unwrap(), Function::Head);
        assert_eq!(
            "filter(>0)".parse::<Function>().unwrap(),
            Function::Filter(IntPredicate::Positive)
        );
        assert_eq!(
            "zipwith(MAX)".parse::<Function>().unwrap(),
            Function::ZipWith(BinOp::Max)
        );
    }

    #[test]
    fn serde_round_trip() {
        for f in Function::EXTENDED {
            let json = serde_json::to_string(&f).unwrap();
            let back: Function = serde_json::from_str(&json).unwrap();
            assert_eq!(back, f);
        }
    }
}
