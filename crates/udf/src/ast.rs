//! Abstract syntax tree of the UDF language.
//!
//! The language is the Python subset that covers the UDF corpus studied by
//! Gupta & Ramachandra ("Procedural extensions of SQL", VLDB'21), which the
//! paper uses to calibrate its generator: straight-line arithmetic/string
//! computation, `if`/`else` branches, `for i in range(...)` and bounded
//! `while` loops, calls into `math`/`numpy` and string methods, and a single
//! `return` per control path.

use crate::libfns::LibFn;

/// Binary arithmetic / string operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+` — numeric addition or string concatenation.
    Add,
    Sub,
    Mul,
    /// True division; the interpreter guards division by zero by returning
    /// NULL (the generator additionally guards denominators syntactically).
    Div,
    /// `%` (Python semantics on ints; `fmod` on floats).
    Mod,
    /// `**` (right associative).
    Pow,
    /// `//` floor division.
    FloorDiv,
}

impl BinOp {
    /// All operators, in one-hot order (Table I `ops` feature vocabulary).
    pub const ALL: [BinOp; 7] =
        [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Mod, BinOp::Pow, BinOp::FloorDiv];

    pub fn index(self) -> usize {
        Self::ALL.iter().position(|&o| o == self).expect("op in ALL")
    }

    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Pow => "**",
            BinOp::FloorDiv => "//",
        }
    }

    /// `**`, `//` and `%` take the slow arithmetic path: every evaluator
    /// charges them [`crate::costs::CostWeights::arith_slow_extra`] on top.
    pub fn is_slow(self) -> bool {
        matches!(self, BinOp::Pow | BinOp::FloorDiv | BinOp::Mod)
    }
}

/// Comparison operators (the `cmops` vocabulary of BRANCH nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

impl CmpOp {
    pub const ALL: [CmpOp; 6] = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne];

    pub fn index(self) -> usize {
        Self::ALL.iter().position(|&o| o == self).expect("op in ALL")
    }

    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
        }
    }

    /// The comparison with operands swapped (`a < b` ⇔ `b > a`).
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
        }
    }

    /// The negated comparison (`not (a < b)` ⇔ `a >= b`).
    pub fn negated(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    Neg,
    Not,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to a UDF parameter or a local variable.
    Name(String),
    Int(i64),
    Float(f64),
    Str(String),
    Bool(bool),
    NoneLit,
    Unary {
        op: UnOp,
        operand: Box<Expr>,
    },
    Binary {
        op: BinOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    Compare {
        op: CmpOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    /// Short-circuit `and` / `or`.
    BoolOp {
        is_and: bool,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    /// Library / builtin call (`math.sqrt(x)`, `len(s)`, `int(x)`, ...).
    Call {
        func: LibFn,
        args: Vec<Expr>,
    },
    /// String method call (`s.upper()`, `s.replace(a, b)`, ...).
    Method {
        func: LibFn,
        recv: Box<Expr>,
        args: Vec<Expr>,
    },
}

impl Expr {
    pub fn name(n: &str) -> Expr {
        Expr::Name(n.to_string())
    }

    pub fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Binary { op, left: Box::new(l), right: Box::new(r) }
    }

    pub fn cmp(op: CmpOp, l: Expr, r: Expr) -> Expr {
        Expr::Compare { op, left: Box::new(l), right: Box::new(r) }
    }

    pub fn call(func: LibFn, args: Vec<Expr>) -> Expr {
        Expr::Call { func, args }
    }

    /// Visit this expression and every subexpression: a parent before its
    /// children, children left to right (a method's receiver first).
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Unary { operand, .. } => operand.visit(f),
            Expr::Binary { left, right, .. }
            | Expr::Compare { left, right, .. }
            | Expr::BoolOp { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
            Expr::Call { args, .. } => args.iter().for_each(|a| a.visit(f)),
            Expr::Method { recv, args, .. } => {
                recv.visit(f);
                args.iter().for_each(|a| a.visit(f));
            }
            _ => {}
        }
    }

    /// Collect every `Name` referenced in this expression.
    pub fn names<'a>(&'a self, out: &mut Vec<&'a str>) {
        self.visit(&mut |e| match e {
            Expr::Name(n) if !out.contains(&n.as_str()) => out.push(n),
            _ => {}
        });
    }

    /// Count arithmetic/comparison/call operations in the expression —
    /// the "number of operations" notion of Table II.
    pub fn op_count(&self) -> usize {
        match self {
            Expr::Unary { operand, .. } => 1 + operand.op_count(),
            Expr::Binary { left, right, .. } | Expr::Compare { left, right, .. } => {
                1 + left.op_count() + right.op_count()
            }
            Expr::BoolOp { left, right, .. } => 1 + left.op_count() + right.op_count(),
            Expr::Call { args, .. } => 1 + args.iter().map(Expr::op_count).sum::<usize>(),
            Expr::Method { recv, args, .. } => {
                1 + recv.op_count() + args.iter().map(Expr::op_count).sum::<usize>()
            }
            _ => 0,
        }
    }

    /// All library functions called (for COMP `lib` featurization).
    pub fn lib_calls(&self, out: &mut Vec<LibFn>) {
        self.visit(&mut |e| {
            if let Expr::Call { func, .. } | Expr::Method { func, .. } = e {
                out.push(*func);
            }
        });
    }
}

/// Kind of loop, featurized on LOOP nodes (`loop_type`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoopKind {
    For,
    While,
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `target = expr`
    Assign { target: String, expr: Expr },
    /// `if cond: ... else: ...` (`elif` is desugared by the parser).
    If { cond: Expr, then_body: Vec<Stmt>, else_body: Vec<Stmt> },
    /// `for var in range(count): body`
    For { var: String, count: Expr, body: Vec<Stmt> },
    /// `while cond: body` — the interpreter enforces an iteration cap so
    /// generated/broken UDFs can never hang the engine.
    While { cond: Expr, body: Vec<Stmt> },
    /// `return expr`
    Return(Expr),
}

/// A full UDF definition.
#[derive(Debug, Clone, PartialEq)]
pub struct UdfDef {
    pub name: String,
    pub params: Vec<String>,
    pub body: Vec<Stmt>,
}

impl Stmt {
    /// The statement's own expression: the value it assigns or returns, its
    /// condition or its trip count.
    pub fn expr(&self) -> &Expr {
        match self {
            Stmt::Assign { expr, .. } | Stmt::Return(expr) => expr,
            Stmt::If { cond, .. } | Stmt::While { cond, .. } => cond,
            Stmt::For { count, .. } => count,
        }
    }
}

impl UdfDef {
    /// Visit every statement of the body, as [`Stmt`]s nest: a statement
    /// before its bodies, `then` before `else`.
    pub fn visit_stmts<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        fn walk<'a>(body: &'a [Stmt], f: &mut impl FnMut(&'a Stmt)) {
            for s in body {
                f(s);
                match s {
                    Stmt::If { then_body, else_body, .. } => {
                        walk(then_body, f);
                        walk(else_body, f);
                    }
                    Stmt::For { body, .. } | Stmt::While { body, .. } => walk(body, f),
                    Stmt::Assign { .. } | Stmt::Return(_) => {}
                }
            }
        }
        walk(&self.body, f);
    }

    /// How many statements `keep` accepts.
    fn count(&self, keep: impl Fn(&Stmt) -> usize) -> usize {
        let mut n = 0;
        self.visit_stmts(&mut |s| n += keep(s));
        n
    }

    /// Total operation count across the body (Table II's 10–150 range).
    pub fn op_count(&self) -> usize {
        self.count(|s| s.expr().op_count() + usize::from(!matches!(s, Stmt::Return(_))))
    }

    /// Number of `if` statements (branches) in the UDF.
    pub fn branch_count(&self) -> usize {
        self.count(|s| usize::from(matches!(s, Stmt::If { .. })))
    }

    /// Number of loops in the UDF.
    pub fn loop_count(&self) -> usize {
        self.count(|s| usize::from(matches!(s, Stmt::For { .. } | Stmt::While { .. })))
    }

    /// Every library function mentioned anywhere in the UDF.
    pub fn lib_calls(&self) -> Vec<LibFn> {
        let mut out = Vec::new();
        self.visit_stmts(&mut |s| s.expr().lib_calls(&mut out));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> UdfDef {
        // def f(x):
        //     if x < 20:
        //         z = x ** 2
        //     else:
        //         z = 0
        //     for i in range(10):
        //         z = z + math.sqrt(x)
        //     return z
        UdfDef {
            name: "f".into(),
            params: vec!["x".into()],
            body: vec![
                Stmt::If {
                    cond: Expr::cmp(CmpOp::Lt, Expr::name("x"), Expr::Int(20)),
                    then_body: vec![Stmt::Assign {
                        target: "z".into(),
                        expr: Expr::bin(BinOp::Pow, Expr::name("x"), Expr::Int(2)),
                    }],
                    else_body: vec![Stmt::Assign { target: "z".into(), expr: Expr::Int(0) }],
                },
                Stmt::For {
                    var: "i".into(),
                    count: Expr::Int(10),
                    body: vec![Stmt::Assign {
                        target: "z".into(),
                        expr: Expr::bin(
                            BinOp::Add,
                            Expr::name("z"),
                            Expr::call(LibFn::MathSqrt, vec![Expr::name("x")]),
                        ),
                    }],
                },
                Stmt::Return(Expr::name("z")),
            ],
        }
    }

    #[test]
    fn counting() {
        let udf = sample();
        assert_eq!(udf.branch_count(), 1);
        assert_eq!(udf.loop_count(), 1);
        assert!(udf.op_count() >= 5);
        assert_eq!(udf.lib_calls(), vec![LibFn::MathSqrt]);
    }

    #[test]
    fn names_collects_unique() {
        let e = Expr::bin(
            BinOp::Add,
            Expr::name("x"),
            Expr::bin(BinOp::Mul, Expr::name("x"), Expr::name("y")),
        );
        let mut names = Vec::new();
        e.names(&mut names);
        assert_eq!(names, vec!["x".to_string(), "y".to_string()]);
    }

    #[test]
    fn cmp_op_transformations() {
        assert_eq!(CmpOp::Lt.flipped(), CmpOp::Gt);
        assert_eq!(CmpOp::Lt.negated(), CmpOp::Ge);
        assert_eq!(CmpOp::Eq.flipped(), CmpOp::Eq);
        assert_eq!(CmpOp::Ne.negated(), CmpOp::Eq);
        for op in CmpOp::ALL {
            assert_eq!(op.negated().negated(), op);
            assert_eq!(op.flipped().flipped(), op);
        }
    }

    #[test]
    fn op_indices_dense() {
        for (i, op) in BinOp::ALL.iter().enumerate() {
            assert_eq!(op.index(), i);
        }
        for (i, op) in CmpOp::ALL.iter().enumerate() {
            assert_eq!(op.index(), i);
        }
    }
}
