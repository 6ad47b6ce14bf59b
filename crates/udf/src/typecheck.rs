//! Static type inference over UDFs.
//!
//! The RET node of the UDF graph featurizes the *output data type* (Table I)
//! because DBMS↔UDF conversion costs differ by type. Rather than executing
//! the UDF to observe it, this module infers the return type with a small
//! abstract interpreter over the type lattice
//! `Int ⊑ Float`, `{Bool, Text}` incomparable, `Unknown` as top.
//!
//! The analysis is flow-sensitive for straight-line code, joins branches by
//! type unification, and iterates loop bodies to a (two-pass) fixpoint —
//! enough for the UDF language, which has no recursion.

use crate::ast::{BinOp, Expr, Stmt, UdfDef, UnOp};
use crate::libfns::{LibCategory, LibFn};
use graceful_storage::DataType;

/// Abstract value types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    Int,
    Float,
    Text,
    Bool,
    /// NULL-only or not yet assigned.
    None,
    Unknown,
}

impl Ty {
    fn from_data_type(dt: DataType) -> Ty {
        match dt {
            DataType::Int => Ty::Int,
            DataType::Float => Ty::Float,
            DataType::Text => Ty::Text,
            DataType::Bool => Ty::Bool,
        }
    }

    /// Best-effort conversion back to a storage type (Float for unknowns —
    /// the numeric accumulator case dominates generated UDFs).
    pub fn to_data_type(self) -> DataType {
        match self {
            Ty::Int => DataType::Int,
            Ty::Float | Ty::None | Ty::Unknown => DataType::Float,
            Ty::Text => DataType::Text,
            Ty::Bool => DataType::Bool,
        }
    }

    /// Least upper bound.
    fn unify(self, other: Ty) -> Ty {
        use Ty::*;
        match (self, other) {
            (a, b) if a == b => a,
            (None, t) | (t, None) => t,
            (Int, Float) | (Float, Int) => Float,
            (Bool, Int) | (Int, Bool) => Int,
            (Bool, Float) | (Float, Bool) => Float,
            _ => Unknown,
        }
    }

    fn is_numeric(self) -> bool {
        matches!(self, Ty::Int | Ty::Float | Ty::Bool)
    }
}

/// Variables in scope with their abstract types, by names borrowed from the
/// AST; each name appears once. Scopes hold a handful of names, so a scan
/// beats hashing.
type Scope<'a> = Vec<(&'a str, Ty)>;

fn lookup(env: &[(&str, Ty)], name: &str) -> Option<Ty> {
    env.iter().find(|(n, _)| *n == name).map(|&(_, t)| t)
}

fn bind<'a>(env: &mut Scope<'a>, name: &'a str, ty: Ty) {
    match env.iter_mut().find(|(n, _)| *n == name) {
        Some(slot) => slot.1 = ty,
        None => env.push((name, ty)),
    }
}

/// Infer the return type of a UDF given its argument types.
pub fn infer_return_type(udf: &UdfDef, arg_types: &[DataType]) -> DataType {
    let mut env = Scope::with_capacity(udf.params.len() + 4);
    for (i, p) in udf.params.iter().enumerate() {
        let ty = arg_types.get(i).map(|&d| Ty::from_data_type(d)).unwrap_or(Ty::Unknown);
        bind(&mut env, p, ty);
    }
    let mut returns = Vec::new();
    walk_block(&udf.body, &mut env, &mut returns);
    let mut out = Ty::None;
    for t in returns {
        out = out.unify(t);
    }
    out.to_data_type()
}

fn walk_block<'a>(body: &'a [Stmt], env: &mut Scope<'a>, returns: &mut Vec<Ty>) {
    for stmt in body {
        match stmt {
            Stmt::Assign { target, expr } => {
                let t = type_of(expr, env);
                bind(env, target, t);
            }
            Stmt::Return(e) => returns.push(type_of(e, env)),
            Stmt::If { then_body, else_body, .. } => {
                // The then arm walks a copy, the else arm the scope itself.
                let mut then_env = env.clone();
                walk_block(then_body, &mut then_env, returns);
                walk_block(else_body, env, returns);
                // Join: unify per variable across both arms (an arm that
                // never bound a name contributes `None`).
                for (name, a) in then_env {
                    let b = lookup(env, name).unwrap_or(Ty::None);
                    bind(env, name, a.unify(b));
                }
            }
            Stmt::For { var, body, .. } => {
                bind(env, var, Ty::Int);
                // Two passes reach the fixpoint on this lattice (height 2).
                walk_block(body, env, returns);
                walk_block(body, env, returns);
            }
            Stmt::While { body, .. } => {
                walk_block(body, env, returns);
                walk_block(body, env, returns);
            }
        }
    }
}

fn type_of(e: &Expr, env: &[(&str, Ty)]) -> Ty {
    match e {
        Expr::Name(n) => lookup(env, n).unwrap_or(Ty::Unknown),
        Expr::Int(_) => Ty::Int,
        Expr::Float(_) => Ty::Float,
        Expr::Str(_) => Ty::Text,
        Expr::Bool(_) => Ty::Bool,
        Expr::NoneLit => Ty::None,
        Expr::Unary { op, operand } => match op {
            UnOp::Not => Ty::Bool,
            UnOp::Neg => type_of(operand, env),
        },
        Expr::Compare { .. } | Expr::BoolOp { .. } => Ty::Bool,
        Expr::Binary { op, left, right } => {
            let (l, r) = (type_of(left, env), type_of(right, env));
            match op {
                BinOp::Add if l == Ty::Text && r == Ty::Text => Ty::Text,
                BinOp::Mul if l == Ty::Text && r.is_numeric() => Ty::Text,
                BinOp::Div => Ty::Float,
                BinOp::FloorDiv | BinOp::Mod => {
                    if l == Ty::Int && r == Ty::Int {
                        Ty::Int
                    } else {
                        Ty::Float
                    }
                }
                BinOp::Pow => {
                    if l == Ty::Int && r == Ty::Int {
                        Ty::Int // small literal exponents stay integral
                    } else {
                        Ty::Float
                    }
                }
                _ => {
                    if l == Ty::Int && r == Ty::Int {
                        Ty::Int
                    } else if l.is_numeric() && r.is_numeric() {
                        Ty::Float
                    } else {
                        Ty::Unknown
                    }
                }
            }
        }
        Expr::Call { func, args } => lib_return_type(*func, args.first().map(|a| type_of(a, env))),
        Expr::Method { func, .. } => lib_return_type(*func, Some(Ty::Text)),
    }
}

fn lib_return_type(f: LibFn, first_arg: Option<Ty>) -> Ty {
    use LibFn::*;
    match f {
        MathFloor | MathCeil | BuiltinLen | BuiltinInt | StrFind | StrSplitCount => Ty::Int,
        BuiltinStr | StrUpper | StrLower | StrStrip | StrReplace => Ty::Text,
        StrStartswith | StrEndswith => Ty::Bool,
        BuiltinAbs => match first_arg {
            Some(Ty::Int) => Ty::Int,
            _ => Ty::Float,
        },
        _ => match f.category() {
            LibCategory::Math | LibCategory::Numpy => Ty::Float,
            _ => Ty::Float,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_udf;

    fn infer(src: &str, args: &[DataType]) -> DataType {
        infer_return_type(&parse_udf(src).unwrap(), args)
    }

    #[test]
    fn integer_arithmetic_stays_int() {
        assert_eq!(infer("def f(x):\n    return x + 2\n", &[DataType::Int]), DataType::Int);
        assert_eq!(infer("def f(x):\n    return x * 2 - 1\n", &[DataType::Int]), DataType::Int);
    }

    #[test]
    fn division_promotes_to_float() {
        assert_eq!(infer("def f(x):\n    return x / 2\n", &[DataType::Int]), DataType::Float);
    }

    #[test]
    fn math_calls_are_float() {
        assert_eq!(
            infer("def f(x):\n    return math.sqrt(x)\n", &[DataType::Int]),
            DataType::Float
        );
        assert_eq!(
            infer("def f(x):\n    return math.floor(x)\n", &[DataType::Float]),
            DataType::Int
        );
    }

    #[test]
    fn string_methods_are_text() {
        assert_eq!(infer("def f(s):\n    return s.upper()\n", &[DataType::Text]), DataType::Text);
        assert_eq!(infer("def f(s):\n    return len(s)\n", &[DataType::Text]), DataType::Int);
        assert_eq!(
            infer("def f(s):\n    return s.startswith('a')\n", &[DataType::Text]),
            DataType::Bool
        );
    }

    #[test]
    fn branches_unify() {
        // One branch Int, one Float -> Float.
        let src = "def f(x):\n    if x < 0:\n        return x\n    return x / 2\n";
        assert_eq!(infer(src, &[DataType::Int]), DataType::Float);
        // Both Int -> Int.
        let src2 = "def f(x):\n    if x < 0:\n        return 0\n    return x + 1\n";
        assert_eq!(infer(src2, &[DataType::Int]), DataType::Int);
    }

    #[test]
    fn loop_accumulation_reaches_fixpoint() {
        // z starts Int, becomes Float inside the loop via math.sqrt.
        let src = "def f(x):\n    z = 0\n    for i in range(10):\n        z = z + math.sqrt(x)\n    return z\n";
        assert_eq!(infer(src, &[DataType::Int]), DataType::Float);
    }

    #[test]
    fn implicit_none_defaults_to_float() {
        let src = "def f(x):\n    z = x + 1\n    return z\n";
        assert_eq!(infer(src, &[DataType::Int]), DataType::Int);
        // No return at all -> None path -> Float fallback.
        let src2 = "def f(x):\n    z = x + 1\n    return None\n";
        assert_eq!(infer(src2, &[DataType::Int]), DataType::Float);
    }

    /// `infer_return_type` as first written: a `HashMap<String, Ty>` scope,
    /// cloned for each arm of an `if`.
    fn infer_return_type_as_written(udf: &UdfDef, arg_types: &[DataType]) -> DataType {
        use std::collections::HashMap;
        fn walk(body: &[Stmt], env: &mut HashMap<String, Ty>, returns: &mut Vec<Ty>) {
            let type_of = |e: &Expr, env: &HashMap<String, Ty>| {
                let scope: Vec<(&str, Ty)> = env.iter().map(|(k, &t)| (k.as_str(), t)).collect();
                type_of(e, &scope)
            };
            for stmt in body {
                match stmt {
                    Stmt::Assign { target, expr } => {
                        let t = type_of(expr, env);
                        env.insert(target.clone(), t);
                    }
                    Stmt::Return(e) => returns.push(type_of(e, env)),
                    Stmt::If { then_body, else_body, .. } => {
                        let mut then_env = env.clone();
                        let mut else_env = env.clone();
                        walk(then_body, &mut then_env, returns);
                        walk(else_body, &mut else_env, returns);
                        let keys: Vec<String> =
                            then_env.keys().chain(else_env.keys()).cloned().collect();
                        for k in keys {
                            let a = *then_env.get(&k).unwrap_or(&Ty::None);
                            let b = *else_env.get(&k).unwrap_or(&Ty::None);
                            env.insert(k, a.unify(b));
                        }
                    }
                    Stmt::For { var, body, .. } => {
                        env.insert(var.clone(), Ty::Int);
                        walk(body, env, returns);
                        walk(body, env, returns);
                    }
                    Stmt::While { body, .. } => {
                        walk(body, env, returns);
                        walk(body, env, returns);
                    }
                }
            }
        }
        let mut env: HashMap<String, Ty> = HashMap::new();
        for (i, p) in udf.params.iter().enumerate() {
            env.insert(
                p.clone(),
                arg_types.get(i).map(|&d| Ty::from_data_type(d)).unwrap_or(Ty::Unknown),
            );
        }
        let mut returns = Vec::new();
        walk(&udf.body, &mut env, &mut returns);
        returns.into_iter().fold(Ty::None, Ty::unify).to_data_type()
    }

    /// The borrowed scope infers what the cloned `HashMap` scope inferred,
    /// over the `lint udf` corpus (6 schemas × 250 generated UDFs) with the
    /// real argument types, each type for every argument, and no types at
    /// all; and over hand-written joins of arms that bind different names.
    #[test]
    fn borrowed_scope_infers_what_the_map_scope_inferred() {
        use graceful_common::rng::Rng;
        use graceful_storage::datagen::{generate, schema};
        let mut udfs = Vec::new();
        for name in ["tpc_h", "imdb", "ssb", "airline", "baseball", "movielens"] {
            let db = generate(&schema(name), 0.02, 7);
            for seed in 0..250 {
                let Ok(u) = crate::UdfGenerator::default().generate(&db, &mut Rng::seed(seed))
                else {
                    continue;
                };
                let table = db.table(&u.table).unwrap();
                let types = u.input_columns.iter().map(|c| table.column_type(c).unwrap()).collect();
                udfs.push((u.def, types));
            }
        }
        assert!(udfs.len() >= 1400, "{} UDFs", udfs.len());
        let joins = [
            "def f(x, y):\n    if x < 1:\n        z = 'a'\n    else:\n        w = 2.5\n    return z\n",
            "def f(x, y):\n    if x < 1:\n        z = 1\n    else:\n        z = True\n    return z + w\n",
            "def f(x, y):\n    for i in range(3):\n        if i < 1:\n            x = x / 2\n        else:\n            v = 'b'\n    return x\n",
        ];
        udfs.extend(joins.iter().map(|src| (parse_udf(src).unwrap(), vec![DataType::Int; 2])));
        for (def, types) in &udfs {
            let n = def.params.len();
            let mut cases = vec![types.clone(), vec![]];
            cases.extend(
                [DataType::Int, DataType::Float, DataType::Text, DataType::Bool]
                    .map(|dt| vec![dt; n]),
            );
            for args in cases {
                let want = infer_return_type_as_written(def, &args);
                assert_eq!(infer_return_type(def, &args), want, "{def:?} over {args:?}");
            }
        }
    }

    #[test]
    fn generated_udfs_infer_without_panic() {
        use graceful_common::rng::Rng;
        use graceful_storage::datagen::{generate, schema};
        let db = generate(&schema("imdb"), 0.02, 7);
        let gen = crate::generator::UdfGenerator::default();
        let mut rng = Rng::seed(3);
        for _ in 0..40 {
            let u = gen.generate(&db, &mut rng).unwrap();
            let types: Vec<DataType> = u
                .input_columns
                .iter()
                .map(|c| db.table(&u.table).unwrap().column_type(c).unwrap())
                .collect();
            let dt = infer_return_type(&u.def, &types);
            // Generated UDFs return numbers or strings.
            assert!(matches!(dt, DataType::Int | DataType::Float | DataType::Text));
        }
    }
}
